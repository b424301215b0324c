// GEMM workload extraction (paper §III-C1).
//
// "Convolution, linear, and attention layers will be converted to general
// matrix multiplication (GEMM) representations" with the full workload
// configuration: shapes, bitwidths, pruning mask/sparsity and actual weight
// values.  Convolutions are lowered by im2col.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/model.h"

namespace simphony::workload {

/// One extracted GEMM: output (N x M) = A (N x D) * B (D x M), repeated
/// `batch` times (attention heads).
struct GemmWorkload {
  std::string name;
  int64_t n = 0;
  int64_t d = 0;
  int64_t m = 0;
  int batch = 1;

  int input_bits = 4;
  int weight_bits = 4;
  int output_bits = 8;

  /// True when operand B is produced at run time (attention scores /
  /// context): requires a dynamically reconfigurable PTC.
  bool b_dynamic = false;

  /// Fraction of operand-B values pruned to zero.
  double sparsity = 0.0;

  /// Actual operand-B values (normalized), nullptr for dynamic B.  Points
  /// at the source Model's layer tensor, so keep the Model alive (and its
  /// layers unmoved) while simulating; a recipe-backed tensor draws its
  /// values on the first data() read, not at extraction.
  const Tensor* weights = nullptr;

  LayerType source_type = LayerType::kLinear;

  [[nodiscard]] int64_t macs() const { return n * d * m * batch; }

  /// Byte sizes of the operands at their configured precisions.
  [[nodiscard]] double bytes_a() const;
  [[nodiscard]] double bytes_b() const;
  [[nodiscard]] double bytes_out() const;
};

/// Lower one layer to its GEMM representation.
[[nodiscard]] GemmWorkload gemm_of_layer(const Layer& layer);

/// Lower a whole model, in layer order.
[[nodiscard]] std::vector<GemmWorkload> extract_gemms(const Model& model);

}  // namespace simphony::workload
