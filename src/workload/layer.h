// NN layer descriptions (the TorchONN-facing side of SimPhony-Sim,
// paper §III-C1).
//
// SimPhony consumes *extracted workloads*: per-layer shape, bitwidths,
// pruning mask/sparsity, scaling factors and actual weight values.  These
// layer records carry exactly that.  Convolution, linear and attention
// layers are lowered to GEMMs (gemm.h); other layers are offloaded to the
// electrical host and omitted, as in the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/recipe.h"
#include "workload/tensor.h"

namespace simphony::workload {

enum class LayerType {
  kConv2d,
  kLinear,
  kMatMulQK,  // attention scores: Q x K^T (dynamic x dynamic)
  kMatMulAV,  // attention context: softmax(scores) x V (dynamic x dynamic)
};

[[nodiscard]] std::string to_string(LayerType type);

/// One workload layer with everything the simulator needs.
struct Layer {
  std::string name;
  LayerType type = LayerType::kLinear;

  // Conv2d geometry (ignored for other types).
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 3;
  int stride = 1;
  int padding = 1;
  int in_height = 0;
  int in_width = 0;

  // Linear geometry.
  int in_features = 0;
  int out_features = 0;

  // MatMul geometry (per head), with `batch` independent products
  // (e.g. heads x layers).
  int mm_m = 0;  // rows of the left operand
  int mm_k = 0;  // contraction dim
  int mm_n = 0;  // cols of the right operand
  int batch = 1;

  int input_bits = 4;
  int weight_bits = 4;
  int output_bits = 8;

  /// Fraction of weights pruned to zero (power gating opportunity).
  double prune_ratio = 0.0;

  /// Actual weight values, normalized to [-1, 1] after ONN conversion.
  /// Empty for dynamic x dynamic matmuls (both operands are activations).
  Tensor weights;

  /// True when operand B is produced at run time (attention), requiring a
  /// dynamically reconfigurable PTC.
  [[nodiscard]] bool b_is_dynamic() const {
    return type == LayerType::kMatMulQK || type == LayerType::kMatMulAV;
  }

  /// Output spatial size for Conv2d.
  [[nodiscard]] int out_height() const;
  [[nodiscard]] int out_width() const;

  /// Number of MACs for one inference.
  [[nodiscard]] int64_t macs() const;

  /// Number of weight parameters.
  [[nodiscard]] int64_t weight_count() const;
};

/// Geometry-only factories: `weights` stays empty (model.h binds the
/// built-in models' layers to a shared WeightSource instead).
Layer conv2d_layer(std::string name, int in_ch, int out_ch, int kernel,
                   int in_h, int in_w, int stride = 1, int padding = 1);
Layer linear_layer(std::string name, int in_features, int out_features);

/// The weight draw of a Conv2d or Linear layer: a Kaiming-style
/// normal(0, stddev) over the GEMM operand shape, later normalized to the
/// PTC encoding range.
[[nodiscard]] WeightRecipe::Draw weight_init(const Layer& layer);

/// Factory helpers that also synthesize deterministic weights.
Layer make_conv2d(std::string name, int in_ch, int out_ch, int kernel,
                  int in_h, int in_w, util::Rng& rng, int stride = 1,
                  int padding = 1);
Layer make_linear(std::string name, int in_features, int out_features,
                  util::Rng& rng);
Layer make_matmul(std::string name, LayerType type, int m, int k, int n,
                  int batch);

}  // namespace simphony::workload
