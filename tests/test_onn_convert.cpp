#include "workload/onn_convert.h"

#include <gtest/gtest.h>

#include <cmath>

#include <cmath>

namespace simphony::workload {
namespace {

TEST(Quantize, ZeroPreserving) {
  Tensor t({3});
  t.at(0) = 0.0f;
  t.at(1) = 0.7f;
  t.at(2) = -0.7f;
  const Tensor q = quantize(t, 4);
  EXPECT_FLOAT_EQ(q.at(0), 0.0f);  // pruning masks survive
  EXPECT_NE(q.at(1), 0.0f);
}

TEST(Quantize, GridResolution) {
  // 4-bit symmetric grid: levels k/7 for k in [-7, 7].
  Tensor t({1});
  t.at(0) = 0.5f;
  const Tensor q = quantize(t, 4);
  EXPECT_NEAR(q.at(0), std::round(0.5 * 7.0) / 7.0, 1e-6);
}

TEST(Quantize, ClampsOutOfRange) {
  Tensor t({2});
  t.at(0) = 2.0f;
  t.at(1) = -3.0f;
  const Tensor q = quantize(t, 8);
  EXPECT_FLOAT_EQ(q.at(0), 1.0f);
  EXPECT_FLOAT_EQ(q.at(1), -1.0f);
}

TEST(Quantize, ErrorShrinksWithBits) {
  util::Rng rng(5);
  const Tensor t = Tensor::uniform({1000}, rng, -1.0, 1.0);
  double err4 = 0.0;
  double err8 = 0.0;
  const Tensor q4 = quantize(t, 4);
  const Tensor q8 = quantize(t, 8);
  for (int64_t i = 0; i < t.numel(); ++i) {
    err4 += std::abs(q4.at(i) - t.at(i));
    err8 += std::abs(q8.at(i) - t.at(i));
  }
  EXPECT_LT(err8, err4 / 8.0);  // ~16x finer grid
}

TEST(Quantize, RejectsBadBitwidths) {
  Tensor t({1});
  EXPECT_THROW((void)quantize(t, 0), std::invalid_argument);
  EXPECT_THROW((void)quantize(t, 17), std::invalid_argument);
}

TEST(ConvertWeights, TransmissionMapsToUnitInterval) {
  Tensor t({3});
  t.at(0) = -1.0f;
  t.at(1) = 0.0f;
  t.at(2) = 1.0f;
  const Tensor tr = convert_weights(t, WeightMode::kTransmission);
  EXPECT_FLOAT_EQ(tr.at(0), 0.0f);
  EXPECT_FLOAT_EQ(tr.at(1), 0.5f);
  EXPECT_FLOAT_EQ(tr.at(2), 1.0f);
}

TEST(ConvertWeights, VoltageIsSignedSqrt) {
  Tensor t({2});
  t.at(0) = 0.25f;
  t.at(1) = -0.25f;
  const Tensor v = convert_weights(t, WeightMode::kVoltage);
  EXPECT_FLOAT_EQ(v.at(0), 0.5f);
  EXPECT_FLOAT_EQ(v.at(1), -0.5f);
}

TEST(ConvertWeights, MatrixAndPhaseAreIdentity) {
  util::Rng rng(5);
  const Tensor t = Tensor::uniform({16}, rng);
  const Tensor m = convert_weights(t, WeightMode::kMatrix);
  const Tensor p = convert_weights(t, WeightMode::kPhase);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_FLOAT_EQ(m.at(i), t.at(i));
    EXPECT_FLOAT_EQ(p.at(i), t.at(i));
  }
}

TEST(ConvertModel, QuantizesInPlaceAndReportsError) {
  Model model = vgg8_cifar10();
  const double err = max_quantization_error(model);
  convert_model_in_place(model);
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 1.0 / 7.0);  // half a 4-bit step plus slack
  // All weights now on the 4-bit grid, which quantizes to itself.
  const float v = model.layers[0].weights.at(0);
  EXPECT_NEAR(v * 7.0, std::round(v * 7.0), 1e-5);
  EXPECT_EQ(max_quantization_error(model), 0.0);
}

TEST(ConvertModel, ModeNames) {
  EXPECT_EQ(to_string(WeightMode::kMatrix), "matrix");
  EXPECT_EQ(to_string(WeightMode::kTransmission), "transmission");
  EXPECT_EQ(to_string(WeightMode::kPhase), "phase");
  EXPECT_EQ(to_string(WeightMode::kVoltage), "voltage");
}

class QuantBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantBits, MaxErrorBoundedByHalfStep) {
  const int bits = GetParam();
  util::Rng rng(17);
  const Tensor t = Tensor::uniform({500}, rng, -1.0, 1.0);
  const Tensor q = quantize(t, bits);
  const double step =
      1.0 / std::max(1.0, std::pow(2.0, bits - 1) - 1.0);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::abs(q.at(i) - t.at(i)), step / 2.0 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantBits,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16));

}  // namespace
}  // namespace simphony::workload
