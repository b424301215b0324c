#include "devlib/power_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace simphony::devlib {

std::string to_string(PowerFidelity fidelity) {
  switch (fidelity) {
    case PowerFidelity::kDataUnaware: return "data-unaware";
    case PowerFidelity::kAnalytical: return "analytical";
    case PowerFidelity::kTabulated: return "tabulated";
  }
  return "?";
}

double PowerModel::mean_power_mW(std::span<const float> values) const {
  if (values.empty()) return 0.0;
  // Direct-mapped memo of power_mW keyed by the value's float bit pattern.
  // A key wider than 32 bits marks an empty slot; a collision recomputes
  // and overwrites, so the memo only ever skips a call that would return
  // the same double.  The sum runs in element order, as a plain loop does.
  constexpr int kSlotBits = 12;  // 4096 slots x 16 B = 64 KiB of stack
  struct Slot {
    uint64_t key;
    double power_mW;
  };
  std::array<Slot, size_t{1} << kSlotBits> table;
  table.fill({~uint64_t{0}, 0.0});
  double sum = 0.0;
  for (float v : values) {
    const auto bits = std::bit_cast<uint32_t>(v);
    Slot& slot = table[(bits * 0x9e3779b1u) >> (32 - kSlotBits)];
    if (slot.key != bits) slot = {bits, power_mW(v)};
    sum += slot.power_mW;
  }
  return sum / static_cast<double>(values.size());
}

TabulatedPowerModel::TabulatedPowerModel(std::vector<Sample> samples)
    : samples_(std::move(samples)) {
  if (samples_.empty()) {
    throw std::invalid_argument("TabulatedPowerModel needs >= 1 sample");
  }
  std::sort(samples_.begin(), samples_.end(),
            [](const Sample& a, const Sample& b) { return a.value < b.value; });
}

double TabulatedPowerModel::power_mW(double value) const {
  // NaN fails every comparison below; without this, lower_bound would
  // return begin() and the bracket would start before the table.
  if (std::isnan(value)) return value;
  if (value <= samples_.front().value) return samples_.front().power_mW;
  if (value >= samples_.back().value) return samples_.back().power_mW;
  // Binary search for the bracketing segment.
  auto hi = std::lower_bound(
      samples_.begin(), samples_.end(), value,
      [](const Sample& s, double v) { return s.value < v; });
  auto lo = hi - 1;
  const double span = hi->value - lo->value;
  if (span <= 0) return lo->power_mW;
  const double t = (value - lo->value) / span;
  return lo->power_mW + t * (hi->power_mW - lo->power_mW);
}

std::unique_ptr<PowerModel> make_phase_shifter_power(double p_pi_mW,
                                                     PowerFidelity fidelity,
                                                     double measured_scale) {
  switch (fidelity) {
    case PowerFidelity::kDataUnaware:
      return std::make_unique<ConstantPowerModel>(p_pi_mW);
    case PowerFidelity::kAnalytical:
      // P = P_pi * |phi| / pi with value == phi/pi in [-1, 1].
      return std::make_unique<AnalyticalPowerModel>(
          [p_pi_mW](double v) { return p_pi_mW * std::abs(v); });
    case PowerFidelity::kTabulated: {
      // "Measured" heater response: linear to first order with a slight
      // sub-linearity at mid-range (thermal crosstalk compensation makes the
      // real device marginally cheaper than the analytical line).
      std::vector<TabulatedPowerModel::Sample> pts;
      constexpr int kPoints = 33;
      for (int i = 0; i < kPoints; ++i) {
        const double v = -1.0 + 2.0 * i / (kPoints - 1);
        const double a = std::abs(v);
        // Dip of up to (1 - measured_scale) at |v| = 0.5, none at ends.
        const double dip = (1.0 - measured_scale) * 4.0 * a * (1.0 - a);
        pts.push_back({v, p_pi_mW * a * (1.0 - dip)});
      }
      return std::make_unique<TabulatedPowerModel>(std::move(pts));
    }
  }
  throw std::invalid_argument("unknown power fidelity");
}

}  // namespace simphony::devlib
