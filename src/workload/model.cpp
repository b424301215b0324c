#include "workload/model.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace simphony::workload {

int64_t Model::total_macs() const {
  int64_t total = 0;
  for (const auto& layer : layers) total += layer.macs();
  return total;
}

int64_t Model::total_weights() const {
  int64_t total = 0;
  for (const auto& layer : layers) total += layer.weight_count();
  return total;
}

namespace {

/// Binds every weighted layer of `model`, in layer order, to one shared
/// WeightSource drawing from Rng(seed) — the draws an eager builder would
/// make — and marks them pruned by `prune_ratio`.  No value is drawn here.
Model with_recipe(Model model, uint64_t seed, double prune_ratio = 0.0) {
  WeightRecipe recipe;
  recipe.seed = seed;
  recipe.prune_ratio = prune_ratio;
  std::vector<Layer*> weighted;
  for (Layer& layer : model.layers) {
    if (layer.weight_count() == 0) continue;
    recipe.draws.push_back(weight_init(layer));
    weighted.push_back(&layer);
  }
  const auto source = std::make_shared<const WeightSource>(std::move(recipe));
  for (size_t slot = 0; slot < weighted.size(); ++slot) {
    weighted[slot]->weights = Tensor(source, slot);
    if (prune_ratio > 0.0) weighted[slot]->prune_ratio = prune_ratio;
  }
  return model;
}

}  // namespace

Model vgg8_cifar10(uint64_t seed, double prune_ratio) {
  Model model;
  model.name = "VGG-8(CIFAR10)";
  model.layers.push_back(conv2d_layer("conv1", 3, 64, 3, 32, 32));
  model.layers.push_back(conv2d_layer("conv2", 64, 64, 3, 32, 32));
  model.layers.push_back(conv2d_layer("conv3", 64, 128, 3, 16, 16));
  model.layers.push_back(conv2d_layer("conv4", 128, 128, 3, 16, 16));
  model.layers.push_back(conv2d_layer("conv5", 128, 256, 3, 8, 8));
  model.layers.push_back(conv2d_layer("conv6", 256, 256, 3, 8, 8));
  // After three 2x2 poolings: 4 x 4 x 256 = 4096 features.
  model.layers.push_back(linear_layer("fc1", 4096, 512));
  model.layers.push_back(linear_layer("fc2", 512, 10));
  return with_recipe(std::move(model), seed, prune_ratio);
}

Model bert_base_image224(uint64_t seed) {
  Model model;
  model.name = "BERT-Base(ImageNet-224)";
  constexpr int kLayers = 12;
  constexpr int kHidden = 768;
  constexpr int kHeads = 12;
  constexpr int kHeadDim = kHidden / kHeads;  // 64
  constexpr int kFfn = 3072;
  constexpr int kSeq = 197;  // 14x14 patches + [CLS]
  auto seq_linear = [&](const std::string& name, int in, int out) {
    Layer layer = linear_layer(name, in, out);
    layer.mm_m = kSeq;  // applied to every token of the sequence
    return layer;
  };
  for (int l = 0; l < kLayers; ++l) {
    const std::string p = "enc" + std::to_string(l) + ".";
    model.layers.push_back(seq_linear(p + "q_proj", kHidden, kHidden));
    model.layers.push_back(seq_linear(p + "k_proj", kHidden, kHidden));
    model.layers.push_back(seq_linear(p + "v_proj", kHidden, kHidden));
    model.layers.push_back(make_matmul(p + "attn_qk", LayerType::kMatMulQK,
                                       kSeq, kHeadDim, kSeq, kHeads));
    model.layers.push_back(make_matmul(p + "attn_av", LayerType::kMatMulAV,
                                       kSeq, kSeq, kHeadDim, kHeads));
    model.layers.push_back(seq_linear(p + "out_proj", kHidden, kHidden));
    model.layers.push_back(seq_linear(p + "ffn1", kHidden, kFfn));
    model.layers.push_back(seq_linear(p + "ffn2", kFfn, kHidden));
  }
  return with_recipe(std::move(model), seed);
}

Model resnet20_cifar10(uint64_t seed, double prune_ratio) {
  Model model;
  model.name = "ResNet-20(CIFAR10)";
  model.layers.push_back(conv2d_layer("stem", 3, 16, 3, 32, 32));
  struct Stage {
    int channels;
    int size;
  };
  const Stage stages[] = {{16, 32}, {32, 16}, {64, 8}};
  int in_ch = 16;
  for (int s = 0; s < 3; ++s) {
    for (int b = 0; b < 3; ++b) {
      const std::string p =
          "s" + std::to_string(s + 1) + "b" + std::to_string(b + 1) + ".";
      const bool downsample = (s > 0 && b == 0);
      const int in_size = downsample ? stages[s].size * 2 : stages[s].size;
      model.layers.push_back(conv2d_layer(p + "conv1", in_ch,
                                          stages[s].channels, 3, in_size,
                                          in_size, downsample ? 2 : 1));
      model.layers.push_back(conv2d_layer(p + "conv2", stages[s].channels,
                                          stages[s].channels, 3,
                                          stages[s].size, stages[s].size));
      in_ch = stages[s].channels;
    }
  }
  model.layers.push_back(linear_layer("fc", 64, 10));
  return with_recipe(std::move(model), seed, prune_ratio);
}

Model mlp_mnist(uint64_t seed) {
  Model model;
  model.name = "MLP(MNIST)";
  model.layers.push_back(linear_layer("fc1", 784, 256));
  model.layers.push_back(linear_layer("fc2", 256, 128));
  model.layers.push_back(linear_layer("fc3", 128, 10));
  return with_recipe(std::move(model), seed);
}

Model single_gemm_model(int n, int d, int m, uint64_t seed,
                        double prune_ratio) {
  Model model;
  model.name = "GEMM(" + std::to_string(n) + "x" + std::to_string(d) + ")x(" +
               std::to_string(d) + "x" + std::to_string(m) + ")";
  Layer layer = linear_layer("gemm", d, m);
  // A Linear over a batch of n input rows is exactly the (NxD)x(DxM) GEMM;
  // the batch is encoded through gemm extraction (gemm.h) via `mm_m`.
  layer.mm_m = n;
  model.layers.push_back(layer);
  return with_recipe(std::move(model), seed, prune_ratio);
}

Model model_from_spec(const std::string& spec) {
  if (spec == "vgg8") return vgg8_cifar10();
  if (spec == "resnet20") return resnet20_cifar10();
  if (spec == "bert") return bert_base_image224();
  if (spec == "mlp") return mlp_mnist();
  if (spec.rfind("gemm:", 0) == 0) {
    int n = 0;
    int d = 0;
    int m = 0;
    char trailing = '\0';
    if (std::sscanf(spec.c_str() + 5, "%dx%dx%d%c", &n, &d, &m, &trailing) ==
            3 &&
        n > 0 && d > 0 && m > 0) {
      return single_gemm_model(n, d, m);
    }
  }
  throw std::invalid_argument(
      "unknown model spec '" + spec +
      "' (expected vgg8|resnet20|bert|mlp|gemm:NxDxM)");
}

}  // namespace simphony::workload
