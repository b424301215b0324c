// Model builders for the paper's evaluation workloads:
//   * VGG-8 on CIFAR-10 (Fig. 11 heterogeneous mapping)
//   * BERT-Base on a single 224x224 ImageNet image, patch-tokenized
//     (Fig. 8 validation against Lightening-Transformer)
//   * a raw GEMM "model" for the (280x28)x(28x280) validation task (Fig. 7)
//
// The builders return shapes plus one WeightSource per model
// (recipe.h): the synthetic weights are drawn on first read, with the
// values an eager draw in layer order would give.
#pragma once

#include <string>
#include <vector>

#include "workload/layer.h"

namespace simphony::workload {

struct Model {
  std::string name;
  std::vector<Layer> layers;

  [[nodiscard]] int64_t total_macs() const;
  [[nodiscard]] int64_t total_weights() const;
};

/// VGG-8 for CIFAR-10: six 3x3 conv layers (64-64-128-128-256-256 with
/// 2x2 pooling after each pair) followed by two linear layers (512, 10).
Model vgg8_cifar10(uint64_t seed = 42, double prune_ratio = 0.0);

/// BERT-Base (12 layers, hidden 768, 12 heads, FFN 3072) over a ViT-style
/// tokenization of a 224x224 image into 196 patches + [CLS] = 197 tokens.
/// Per encoder layer: QKV projections, per-head QK^T and AV matmuls,
/// output projection and the two FFN linears.
Model bert_base_image224(uint64_t seed = 42);

/// A single-GEMM model: output (N x M) = A (N x D) * B (D x M).
Model single_gemm_model(int n, int d, int m, uint64_t seed = 42,
                        double prune_ratio = 0.0);

/// ResNet-20 for CIFAR-10 (3 stages x 3 blocks x 2 convs + stem + fc);
/// residual adds are offloaded to the electrical host, as the paper does
/// for non-GEMM layers.
Model resnet20_cifar10(uint64_t seed = 42, double prune_ratio = 0.0);

/// A three-layer MLP over flattened MNIST (784-256-128-10) — the smallest
/// realistic workload, handy for tests and tutorials.
Model mlp_mnist(uint64_t seed = 42);

/// Builds a model from a spec string — the format the CLI's `--model`
/// flag and WorkloadSet JSON files share:
///   "vgg8" | "resnet20" | "bert" | "mlp" | "gemm:NxDxM"
/// Throws std::invalid_argument on anything else.
Model model_from_spec(const std::string& spec);

}  // namespace simphony::workload
