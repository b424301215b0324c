#include "devlib/power_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/model.h"
#include "workload/onn_convert.h"
#include "workload/tensor.h"

namespace simphony::devlib {
namespace {

TEST(PowerModel, ConstantIgnoresValue) {
  ConstantPowerModel m(20.0);
  EXPECT_DOUBLE_EQ(m.power_mW(0.0), 20.0);
  EXPECT_DOUBLE_EQ(m.power_mW(1.0), 20.0);
  EXPECT_DOUBLE_EQ(m.power_mW(-0.5), 20.0);
  EXPECT_EQ(m.fidelity(), PowerFidelity::kDataUnaware);
}

TEST(PowerModel, AnalyticalAppliesFunction) {
  AnalyticalPowerModel m([](double v) { return 10.0 * std::abs(v); });
  EXPECT_DOUBLE_EQ(m.power_mW(0.5), 5.0);
  EXPECT_DOUBLE_EQ(m.power_mW(-0.5), 5.0);
  EXPECT_EQ(m.fidelity(), PowerFidelity::kAnalytical);
}

TEST(PowerModel, TabulatedInterpolatesLinearly) {
  TabulatedPowerModel m({{0.0, 0.0}, {1.0, 10.0}});
  EXPECT_DOUBLE_EQ(m.power_mW(0.5), 5.0);
  EXPECT_DOUBLE_EQ(m.power_mW(0.25), 2.5);
}

TEST(PowerModel, TabulatedClampsOutOfRange) {
  TabulatedPowerModel m({{-1.0, 3.0}, {1.0, 9.0}});
  EXPECT_DOUBLE_EQ(m.power_mW(-5.0), 3.0);
  EXPECT_DOUBLE_EQ(m.power_mW(5.0), 9.0);
}

TEST(PowerModel, TabulatedSortsSamples) {
  TabulatedPowerModel m({{1.0, 10.0}, {0.0, 0.0}, {0.5, 5.0}});
  EXPECT_DOUBLE_EQ(m.power_mW(0.75), 7.5);
}

TEST(PowerModel, TabulatedRejectsEmpty) {
  EXPECT_THROW(TabulatedPowerModel({}), std::invalid_argument);
}

TEST(PowerModel, TabulatedNaNDoesNotReadBeforeTable) {
  // NaN compares false against every sample, so a bracket search would
  // start before the table; the model answers NaN, as P_pi * |NaN| does.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TabulatedPowerModel m({{-1.0, 3.0}, {0.0, 1.0}, {1.0, 9.0}});
  EXPECT_TRUE(std::isnan(m.power_mW(nan)));
  EXPECT_TRUE(std::isnan(m.power_mW(-nan)));
  auto lut = make_phase_shifter_power(20.0, PowerFidelity::kTabulated);
  EXPECT_TRUE(std::isnan(lut->power_mW(nan)));
  EXPECT_DOUBLE_EQ(m.power_mW(0.5), 5.0);
}

TEST(PowerModel, MeanPowerOverValues) {
  ConstantPowerModel m(4.0);
  const std::vector<float> vals{0.1f, 0.9f, -0.3f};
  EXPECT_DOUBLE_EQ(m.mean_power_mW(vals), 4.0);
  EXPECT_DOUBLE_EQ(m.mean_power_mW({}), 0.0);

  AnalyticalPowerModel lin([](double v) { return std::abs(v); });
  const std::vector<float> sym{0.5f, -0.5f, 1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(lin.mean_power_mW(sym), 0.5);
}

/// Reference walk: one power_mW call per element, summed in element
/// order.
double per_element_mean(const PowerModel& m, std::span<const float> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (float v : values) sum += m.power_mW(v);
  return sum / static_cast<double>(values.size());
}

/// mean_power_mW must equal per_element_mean bit for bit, for both
/// data-aware fidelities at two P_pi values.
void expect_walk_bit_identical(std::span<const float> values) {
  for (const double p_pi : {20.0, 7.3}) {
    for (const PowerFidelity fidelity :
         {PowerFidelity::kAnalytical, PowerFidelity::kTabulated}) {
      const auto m = make_phase_shifter_power(p_pi, fidelity);
      EXPECT_EQ(std::bit_cast<uint64_t>(m->mean_power_mW(values)),
                std::bit_cast<uint64_t>(per_element_mean(*m, values)))
          << to_string(fidelity) << " at P_pi=" << p_pi << ", "
          << values.size() << " values";
    }
  }
}

TEST(PowerModel, LevelWalkIsBitIdenticalOnQuantizedVgg8) {
  for (const int bits : {4, 8}) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    workload::Model model = workload::vgg8_cifar10();
    for (workload::Layer& layer : model.layers) layer.weight_bits = bits;
    workload::convert_model_in_place(model);
    for (const workload::Layer& layer : model.layers) {
      expect_walk_bit_identical(layer.weights.data());
    }
  }
}

TEST(PowerModel, LevelWalkIsBitIdenticalWhenLevelsOutnumberTheMemo) {
  util::Rng rng(3);
  // 65535 levels over 2^18 values: most slots are shared and rewritten.
  const workload::Tensor q16 =
      workload::quantize(workload::Tensor::uniform({1 << 18}, rng), 16);
  expect_walk_bit_identical(q16.data());
  // 1 M unquantized values: (almost) every element misses and evicts.
  const workload::Tensor raw = workload::Tensor::randn({1 << 20}, rng);
  expect_walk_bit_identical(raw.data());
}

TEST(PowerModel, LevelWalkIsBitIdenticalOnEdgeValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> zeros{0.0f, -0.0f, 0.5f, -0.0f, 0.0f, -0.25f};
  expect_walk_bit_identical(zeros);
  const std::vector<float> with_nan{-0.0f, 0.0f, nan, 0.5f, -0.0f, nan};
  expect_walk_bit_identical(with_nan);
  const auto lut = make_phase_shifter_power(20.0, PowerFidelity::kTabulated);
  EXPECT_TRUE(std::isnan(lut->mean_power_mW(with_nan)));
  const std::vector<float> single{0.3f};
  expect_walk_bit_identical(single);
  expect_walk_bit_identical({});
  EXPECT_EQ(lut->mean_power_mW({}), 0.0);
}

TEST(PowerModel, LevelWalkCallsTheModelOncePerLevel) {
  workload::Model model = workload::vgg8_cifar10();
  workload::convert_model_in_place(model);
  const std::vector<float>& values = model.layers.front().weights.data();
  std::set<uint32_t> levels;  // bit patterns: +0 and -0 are two levels
  for (const float v : values) levels.insert(std::bit_cast<uint32_t>(v));
  size_t calls = 0;
  const AnalyticalPowerModel counted([&calls](double v) {
    ++calls;
    return 20.0 * std::abs(v);
  });
  (void)counted.mean_power_mW(values);
  EXPECT_LE(levels.size(), 16u);  // 2^4 - 1 levels, zero in either sign
  EXPECT_EQ(calls, levels.size());
}

TEST(PhaseShifterPower, UnawareReturnsPPi) {
  auto m = make_phase_shifter_power(20.0, PowerFidelity::kDataUnaware);
  EXPECT_DOUBLE_EQ(m->power_mW(0.1), 20.0);
  EXPECT_DOUBLE_EQ(m->power_mW(0.9), 20.0);
}

TEST(PhaseShifterPower, AnalyticalLinearInPhase) {
  auto m = make_phase_shifter_power(20.0, PowerFidelity::kAnalytical);
  EXPECT_DOUBLE_EQ(m->power_mW(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m->power_mW(1.0), 20.0);
  EXPECT_DOUBLE_EQ(m->power_mW(-0.5), 10.0);
}

TEST(PhaseShifterPower, TabulatedSlightlyBelowAnalytical) {
  // The measured curve dips below the linear model mid-range (paper
  // Fig. 10b: rigorous model gives 0.0209 uJ vs analytical 0.0215 uJ).
  auto lut = make_phase_shifter_power(20.0, PowerFidelity::kTabulated);
  auto lin = make_phase_shifter_power(20.0, PowerFidelity::kAnalytical);
  for (double v : {0.2, 0.4, 0.5, 0.6, 0.8}) {
    EXPECT_LT(lut->power_mW(v), lin->power_mW(v)) << "at v=" << v;
    EXPECT_GT(lut->power_mW(v), 0.9 * lin->power_mW(v)) << "at v=" << v;
  }
  // Ends agree (no dip at 0 and pi).
  EXPECT_NEAR(lut->power_mW(1.0), 20.0, 1e-6);
  EXPECT_NEAR(lut->power_mW(0.0), 0.0, 1e-6);
}

TEST(PhaseShifterPower, ZeroValueDrawsZeroInDataAwareModes) {
  // Pruned (zero) weights must gate the cell entirely.
  for (auto fidelity :
       {PowerFidelity::kAnalytical, PowerFidelity::kTabulated}) {
    auto m = make_phase_shifter_power(20.0, fidelity);
    EXPECT_NEAR(m->power_mW(0.0), 0.0, 1e-9);
  }
}

TEST(PhaseShifterPower, FidelityNames) {
  EXPECT_EQ(to_string(PowerFidelity::kDataUnaware), "data-unaware");
  EXPECT_EQ(to_string(PowerFidelity::kAnalytical), "analytical");
  EXPECT_EQ(to_string(PowerFidelity::kTabulated), "tabulated");
}

class PhaseSweep : public ::testing::TestWithParam<double> {};

TEST_P(PhaseSweep, ModelsAreSymmetricAndBounded) {
  const double v = GetParam();
  for (auto fidelity :
       {PowerFidelity::kDataUnaware, PowerFidelity::kAnalytical,
        PowerFidelity::kTabulated}) {
    auto m = make_phase_shifter_power(20.0, fidelity);
    EXPECT_NEAR(m->power_mW(v), m->power_mW(-v), 1e-9);
    EXPECT_GE(m->power_mW(v), 0.0);
    EXPECT_LE(m->power_mW(v), 20.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Phases, PhaseSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

}  // namespace
}  // namespace simphony::devlib
