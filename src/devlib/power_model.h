// Data-dependent device power models (paper §III-C5, Fig. 5).
//
// For analog hardware the encoded operand value determines the device
// configuration and thus its power: a thermo-optic phase shifter holding a
// small phase burns far less than its library P_pi reference.  SimPhony
// distinguishes three fidelities, all implemented here:
//   * kDataUnaware  — library reference power regardless of the operand
//                     (e.g. P_pi for every phase shifter);
//   * kAnalytical   — closed-form P(value) model (e.g. P = P_pi * |phi|/pi);
//   * kTabulated    — interpolated simulation/measurement data (Lumerical
//                     HEAT or chip testing in the paper; a calibrated LUT
//                     here), the highest fidelity.
// Operands are normalized to [-1, 1] before lookup.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace simphony::devlib {

enum class PowerFidelity { kDataUnaware, kAnalytical, kTabulated };

[[nodiscard]] std::string to_string(PowerFidelity fidelity);

/// Interface: instantaneous device power as a function of the encoded value.
class PowerModel {
 public:
  virtual ~PowerModel() = default;

  /// Power in mW while the device encodes `value` (normalized to [-1, 1]).
  /// Must be a pure function of `value`: mean_power_mW reuses its results.
  [[nodiscard]] virtual double power_mW(double value) const = 0;

  [[nodiscard]] virtual PowerFidelity fidelity() const = 0;

  /// Mean power over a set of encoded values (pruned/gated values excluded
  /// by the caller): the arithmetic mean of power_mW, summed in element
  /// order.  power_mW is called once per distinct value (bit pattern),
  /// again only when two values evict each other from a slot of the
  /// fixed-size memo; the result is bit-identical to calling it per
  /// element.
  [[nodiscard]] double mean_power_mW(std::span<const float> values) const;
};

/// Data-unaware: constant worst-case/library reference power.
class ConstantPowerModel final : public PowerModel {
 public:
  explicit ConstantPowerModel(double power_mW) : power_mW_(power_mW) {}
  [[nodiscard]] double power_mW(double) const override { return power_mW_; }
  [[nodiscard]] PowerFidelity fidelity() const override {
    return PowerFidelity::kDataUnaware;
  }

 private:
  double power_mW_;
};

/// Analytical: user-supplied closed form P(value).  The closure must be
/// pure (no state, no side effects): mean_power_mW calls it once per
/// distinct value, not once per element.
class AnalyticalPowerModel final : public PowerModel {
 public:
  explicit AnalyticalPowerModel(std::function<double(double)> fn)
      : fn_(std::move(fn)) {}
  [[nodiscard]] double power_mW(double value) const override {
    return fn_(value);
  }
  [[nodiscard]] PowerFidelity fidelity() const override {
    return PowerFidelity::kAnalytical;
  }

 private:
  std::function<double(double)> fn_;
};

/// Tabulated: piecewise-linear interpolation through (value, power) samples
/// from device simulation or chip measurement.  Values outside the table are
/// clamped to the end points.
class TabulatedPowerModel final : public PowerModel {
 public:
  struct Sample {
    double value;     // normalized encoded value
    double power_mW;  // measured/simulated power
  };

  /// `samples` must be non-empty; they are sorted by value on construction.
  explicit TabulatedPowerModel(std::vector<Sample> samples);

  [[nodiscard]] double power_mW(double value) const override;
  [[nodiscard]] PowerFidelity fidelity() const override {
    return PowerFidelity::kTabulated;
  }

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::vector<Sample> samples_;
};

/// Convenience factory for thermo-optic phase shifters.
/// Data-unaware: P_pi.  Analytical: P_pi * |value| (value == phi/pi).
/// Tabulated: a realistic measured heater curve with efficiency factor
/// `measured_scale` (< 1 means the real device is slightly more efficient
/// than the linear analytical model, as observed for SCATTER).
std::unique_ptr<PowerModel> make_phase_shifter_power(
    double p_pi_mW, PowerFidelity fidelity, double measured_scale = 0.97);

}  // namespace simphony::devlib
