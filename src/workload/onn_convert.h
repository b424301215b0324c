// ONN model conversion (paper §III-C1).
//
// "A digital DNN will be first converted to its analog optical version ...
// Weight values can have different modes, e.g., matrix values, normalized
// device transmissions, phase shifts, or even control voltages, which are
// useful for precise value-aware power modeling."
//
// This module implements the conversion: symmetric uniform quantization to
// the PTC encoding resolution and translation of normalized matrix values
// into the device-domain representation the power models consume.
#pragma once

#include <string>

#include "workload/model.h"

namespace simphony::workload {

/// Device-domain representation of a weight value.
enum class WeightMode {
  kMatrix,        // normalized matrix value in [-1, 1]
  kTransmission,  // device transmission in [0, 1]: (w + 1) / 2
  kPhase,         // normalized phase phi/pi in [-1, 1] (phase-shifter drive)
  kVoltage,       // normalized control voltage: sign(w) * sqrt(|w|)
};

[[nodiscard]] std::string to_string(WeightMode mode);

/// Symmetric uniform quantization of values in [-1, 1] to a 2^bits - 1
/// level grid (zero-preserving, so pruning masks survive quantization).
[[nodiscard]] Tensor quantize(const Tensor& t, int bits);
/// The same, rewriting `t` (which then owns its values).
void quantize_in_place(Tensor& t, int bits);

/// Translate normalized matrix values into the requested device domain.
[[nodiscard]] Tensor convert_weights(const Tensor& t, WeightMode mode);

/// Per-layer conversion applied in place: quantize weights to
/// layer.weight_bits.  Recipe-backed weights (recipe.h) only record the
/// pass — no value is drawn or read — and stay keyed by recipe; owned
/// weights are quantized at once.
void convert_model_in_place(Model& model);

/// Largest |quantize(w, layer.weight_bits) - w| over every layer's
/// current weights: the error convert_model_in_place is about to
/// introduce (0 on an already converted model).  Reads, and so
/// materializes, every weight.
[[nodiscard]] double max_quantization_error(const Model& model);

}  // namespace simphony::workload
