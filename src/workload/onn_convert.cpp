#include "workload/onn_convert.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "workload/recipe.h"

namespace simphony::workload {

std::string to_string(WeightMode mode) {
  switch (mode) {
    case WeightMode::kMatrix: return "matrix";
    case WeightMode::kTransmission: return "transmission";
    case WeightMode::kPhase: return "phase";
    case WeightMode::kVoltage: return "voltage";
  }
  return "?";
}

namespace {

/// Grid steps per unit: levels at k / q for k in [-q, q], q = 2^(b-1) - 1
/// (q = 1 for b = 1), zero preserved exactly.
double quantize_steps(int bits) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("quantization bits must be in [1, 16]");
  }
  return std::max(1.0, std::pow(2.0, bits - 1) - 1.0);
}

float quantize_value(float v, double q) {
  const double clamped = std::clamp(static_cast<double>(v), -1.0, 1.0);
  return static_cast<float>(std::round(clamped * q) / q);
}

}  // namespace

Tensor quantize(const Tensor& t, int bits) {
  Tensor out = t;
  quantize_in_place(out, bits);
  return out;
}

void quantize_in_place(Tensor& t, int bits) {
  const double q = quantize_steps(bits);
  for (float& v : t.data()) v = quantize_value(v, q);
}

Tensor convert_weights(const Tensor& t, WeightMode mode) {
  Tensor out = t;
  switch (mode) {
    case WeightMode::kMatrix:
      break;
    case WeightMode::kTransmission:
      for (float& v : out.data()) v = (v + 1.0f) / 2.0f;
      break;
    case WeightMode::kPhase:
      break;  // normalized phase == normalized matrix value by convention
    case WeightMode::kVoltage:
      for (float& v : out.data()) {
        v = static_cast<float>(std::copysign(
            std::sqrt(std::abs(static_cast<double>(v))), v));
      }
      break;
  }
  return out;
}

void convert_model_in_place(Model& model) {
  // One derived source per distinct source: its recipe plus this pass.
  struct Pass {
    const WeightSource* from;
    std::vector<int> bits;
    std::shared_ptr<const WeightSource> to;
  };
  std::vector<Pass> passes;
  std::vector<std::pair<Layer*, size_t>> recorded;  // (layer, pass)
  for (auto& layer : model.layers) {
    if (layer.weights.numel() == 0) continue;
    (void)quantize_steps(layer.weight_bits);
    const WeightSource* source = layer.weights.source();
    if (source == nullptr) {
      quantize_in_place(layer.weights, layer.weight_bits);
      continue;
    }
    size_t p = 0;
    while (p < passes.size() && passes[p].from != source) ++p;
    if (p == passes.size()) {
      passes.push_back(
          {source, std::vector<int>(source->recipe().draws.size(), 0), {}});
    }
    int& bits = passes[p].bits[layer.weights.slot()];
    if (bits != 0 && bits != layer.weight_bits) {
      // Another layer shares this slot at other bits: quantize this one
      // on its own values.
      quantize_in_place(layer.weights, layer.weight_bits);
      continue;
    }
    bits = layer.weight_bits;
    recorded.emplace_back(&layer, p);
  }
  for (Pass& pass : passes) {
    WeightRecipe recipe = pass.from->recipe();
    recipe.quantize_bits.push_back(std::move(pass.bits));
    pass.to = std::make_shared<const WeightSource>(std::move(recipe));
  }
  for (const auto& [layer, p] : recorded) {
    layer->weights = Tensor(passes[p].to, layer->weights.slot());
  }
}

double max_quantization_error(const Model& model) {
  double max_err = 0.0;
  for (const auto& layer : model.layers) {
    if (layer.weights.numel() == 0) continue;
    const double q = quantize_steps(layer.weight_bits);
    for (float v : layer.weights.data()) {
      max_err = std::max(max_err,
                         std::abs(static_cast<double>(quantize_value(v, q)) -
                                  static_cast<double>(v)));
    }
  }
  return max_err;
}

}  // namespace simphony::workload
