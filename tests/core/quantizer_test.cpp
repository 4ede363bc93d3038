#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/quantizer.hpp"
#include "tensor/rng.hpp"

namespace mixq::core {
namespace {

TEST(QuantParams, ScaleMatchesEquation1) {
  // S = (b - a) / (2^Q - 1)
  const QuantParams p = make_quant_params(-1.0f, 1.0f, BitWidth::kQ8);
  EXPECT_NEAR(p.scale, 2.0f / 255.0f, 1e-7f);
  const QuantParams p4 = make_quant_params(0.0f, 6.0f, BitWidth::kQ4);
  EXPECT_NEAR(p4.scale, 6.0f / 15.0f, 1e-6f);
  EXPECT_EQ(p4.zero, 0);
}

TEST(QuantParams, ZeroPointRepresentsZeroExactly) {
  // Zero must quantize to exactly the zero-point so that padding is exact.
  for (float lo : {-3.0f, -0.7f, 0.0f}) {
    for (float hi : {0.5f, 2.0f, 8.0f}) {
      for (BitWidth q : {BitWidth::kQ2, BitWidth::kQ4, BitWidth::kQ8}) {
        const QuantParams p = make_quant_params(lo, hi, q);
        EXPECT_EQ(quantize_value(0.0f, p, RoundMode::kNearest), p.zero);
        EXPECT_NEAR(p.dequant(p.zero), 0.0f, 1e-6f);
      }
    }
  }
}

TEST(QuantParams, SymmetricHasCenteredZero) {
  // round(-(-2)/S) with S = 4/255 is the 127.5 tie; either neighbour is a
  // valid mid-scale zero-point.
  const QuantParams p = make_symmetric_params(2.0f, BitWidth::kQ8);
  EXPECT_TRUE(p.zero == 127 || p.zero == 128) << p.zero;
}

TEST(QuantizeValue, ClampsToCodeRange) {
  const QuantParams p = make_quant_params(0.0f, 1.0f, BitWidth::kQ4);
  EXPECT_EQ(quantize_value(-10.0f, p, RoundMode::kNearest), 0);
  EXPECT_EQ(quantize_value(10.0f, p, RoundMode::kNearest), 15);
}

TEST(QuantizeValue, SaturatesEveryMagnitudeAndCodesNanAsZero) {
  // The scaled value is clamped in float before it is converted, so a
  // value 2^31 or more steps from the zero-point saturates (it used to
  // wrap through lround's long narrowed to int32: +inf and 1e30 coded as
  // 0), in both rounding modes; NaN codes as 0.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  const QuantParams p = make_quant_params(-1.0f, 1.0f, BitWidth::kQ8);
  for (const RoundMode mode : {RoundMode::kNearest, RoundMode::kFloor}) {
    EXPECT_EQ(quantize_value(kInf, p, mode), 255);
    EXPECT_EQ(quantize_value(1e30f, p, mode), 255);
    EXPECT_EQ(quantize_value(std::numeric_limits<float>::max(), p, mode),
              255);
    EXPECT_EQ(quantize_value(-kInf, p, mode), 0);
    EXPECT_EQ(quantize_value(-1e30f, p, mode), 0);
    EXPECT_EQ(quantize_value(kNan, p, mode), 0);
    EXPECT_EQ(quantize_value(-kNan, p, mode), 0);
  }
  // Scale 0.5, zero 1: these scale to about -2^33 and +2^33, which the
  // int32 narrowing wrapped to 255 and 0.
  const QuantParams q{0.5f, 1, BitWidth::kQ8};
  EXPECT_EQ(quantize_value(-4294966784.0f, q, RoundMode::kNearest), 0);
  EXPECT_EQ(quantize_value(4294967808.0f, q, RoundMode::kNearest), 255);
  // In-range codes do not move: the float clamp is [-1, qmax].
  EXPECT_EQ(quantize_value(-0.75f, q, RoundMode::kNearest), 0);
  EXPECT_EQ(quantize_value(126.75f, q, RoundMode::kNearest), 255);
  EXPECT_EQ(quantize_value(126.0f, q, RoundMode::kFloor), 253);
}

TEST(QuantizeValue, FloorVsNearest) {
  const QuantParams p = make_quant_params(0.0f, 15.0f, BitWidth::kQ4);
  // scale = 1: value 3.7 -> floor 3, nearest 4.
  EXPECT_EQ(quantize_value(3.7f, p, RoundMode::kFloor), 3);
  EXPECT_EQ(quantize_value(3.7f, p, RoundMode::kNearest), 4);
}

TEST(FakeQuantize, IdempotentOnGridPoints) {
  const QuantParams p = make_quant_params(-1.0f, 1.0f, BitWidth::kQ4);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.uniform(-1.5, 1.5));
    const float q1 = fake_quantize_value(v, p, RoundMode::kNearest);
    const float q2 = fake_quantize_value(q1, p, RoundMode::kNearest);
    EXPECT_NEAR(q1, q2, 1e-6f);
  }
}

TEST(FakeQuantize, ErrorBoundedByHalfStep) {
  const QuantParams p = make_quant_params(-2.0f, 2.0f, BitWidth::kQ8);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const float v = static_cast<float>(rng.uniform(-2.0, 2.0));
    const float q = fake_quantize_value(v, p, RoundMode::kNearest);
    EXPECT_LE(std::abs(q - v), p.scale * 0.5f + 1e-6f);
  }
}

TEST(Observers, MinMax) {
  const float data[] = {0.5f, -1.5f, 3.0f, 0.0f};
  const MinMax mm = observe_minmax(data, 4);
  EXPECT_FLOAT_EQ(mm.lo, -1.5f);
  EXPECT_FLOAT_EQ(mm.hi, 3.0f);
}

TEST(WeightQuantPerLayer, SingleRangeCoversAll) {
  FloatWeights w(WeightShape(4, 1, 1, 2));
  Rng rng(3);
  rng.fill_normal(w.vec(), 0.0, 1.0);
  const WeightQuant wq = weight_quant_per_layer_minmax(w, BitWidth::kQ4);
  EXPECT_EQ(wq.granularity, Granularity::kPerLayer);
  EXPECT_EQ(wq.params.size(), 1u);
  // Every code must be in range after quantization.
  const auto codes = quantize_weights(w, wq);
  for (auto c : codes) {
    EXPECT_GE(c, 0);
    EXPECT_LE(c, 15);
  }
}

TEST(WeightQuantPerChannel, IndependentRanges) {
  // Channel 0 has small values, channel 1 large: per-channel quantization
  // must give channel 0 a much finer scale.
  FloatWeights w(WeightShape(2, 1, 1, 8));
  for (std::int64_t i = 0; i < 8; ++i) {
    w.channel(0)[i] = 0.01f * static_cast<float>(i - 4);
    w.channel(1)[i] = 10.0f * static_cast<float>(i - 4);
  }
  const WeightQuant wq = weight_quant_per_channel_minmax(w, BitWidth::kQ4);
  EXPECT_EQ(wq.params.size(), 2u);
  EXPECT_LT(wq.params[0].scale, wq.params[1].scale / 100.0f);
}

TEST(WeightQuantPerChannel, BeatsPerLayerOnSkewedTensor) {
  // The motivation for PC quantization (paper Section 3): reconstruction
  // error is smaller when channel ranges differ wildly.
  FloatWeights w(WeightShape(2, 1, 1, 16));
  Rng rng(4);
  for (std::int64_t i = 0; i < 16; ++i) {
    w.channel(0)[i] = static_cast<float>(rng.normal(0.0, 0.01));
    w.channel(1)[i] = static_cast<float>(rng.normal(0.0, 5.0));
  }
  // The wide channel dominates total SSE either way; the benefit of PC is
  // on the *narrow* channel, whose values a per-layer range crushes to a
  // single step. Measure channel 0's reconstruction error in isolation.
  const auto err_ch0 = [&](const WeightQuant& wq) {
    const FloatWeights fq = fake_quantize_weights(w, wq);
    double e = 0.0;
    for (std::int64_t i = 0; i < w.shape().per_channel(); ++i) {
      const double d = fq.channel(0)[i] - w.channel(0)[i];
      e += d * d;
    }
    return e;
  };
  const double e_pl = err_ch0(weight_quant_per_layer_minmax(w, BitWidth::kQ4));
  const double e_pc =
      err_ch0(weight_quant_per_channel_minmax(w, BitWidth::kQ4));
  EXPECT_LT(e_pc, e_pl * 0.1);
}

TEST(WeightQuantPerChannelSymmetric, ZeroPointAtMidScale) {
  FloatWeights w(WeightShape(2, 1, 1, 4));
  w.vec() = {-1.0f, 0.5f, 0.2f, -0.3f, 2.0f, -2.0f, 1.0f, 0.0f};
  const WeightQuant wq =
      weight_quant_per_channel_symmetric(w, BitWidth::kQ8);
  ASSERT_EQ(wq.params.size(), 2u);
  for (const auto& p : wq.params) {
    // Mid-scale zero-point (127 or 128 depending on the rounding tie).
    EXPECT_TRUE(p.zero == 127 || p.zero == 128);
  }
  // Channel ranges: [-1,1] and [-2,2].
  EXPECT_NEAR(wq.params[0].scale, 2.0f / 255.0f, 1e-6f);
  EXPECT_NEAR(wq.params[1].scale, 4.0f / 255.0f, 1e-6f);
}

TEST(WeightQuantPerChannelSymmetric, ReconstructionWithinScale) {
  FloatWeights w(WeightShape(3, 2, 2, 2));
  Rng rng(7);
  rng.fill_normal(w.vec(), 0.0, 0.5);
  const WeightQuant wq =
      weight_quant_per_channel_symmetric(w, BitWidth::kQ4);
  const FloatWeights fq = fake_quantize_weights(w, wq);
  for (std::int64_t oc = 0; oc < 3; ++oc) {
    const float s = wq.channel(oc).scale;
    for (std::int64_t i = 0; i < w.shape().per_channel(); ++i) {
      EXPECT_LE(std::abs(fq.channel(oc)[i] - w.channel(oc)[i]),
                s * 0.5f + 1e-5f);
    }
  }
}

TEST(QuantizeWeights, RoundTripWithinScale) {
  FloatWeights w(WeightShape(3, 2, 2, 2));
  Rng rng(5);
  rng.fill_normal(w.vec(), 0.0, 0.5);
  const WeightQuant wq = weight_quant_per_channel_minmax(w, BitWidth::kQ8);
  const FloatWeights fq = fake_quantize_weights(w, wq);
  for (std::int64_t oc = 0; oc < 3; ++oc) {
    const float s = wq.channel(oc).scale;
    for (std::int64_t i = 0; i < w.shape().per_channel(); ++i) {
      EXPECT_LE(std::abs(fq.channel(oc)[i] - w.channel(oc)[i]),
                s * 0.5f + 1e-6f);
    }
  }
}

TEST(QuantParams, DegenerateRangeIsFinite) {
  const QuantParams p = make_quant_params(0.0f, 0.0f, BitWidth::kQ8);
  EXPECT_GT(p.scale, 0.0f);
  EXPECT_TRUE(std::isfinite(p.dequant(255)));
}

class QuantizerSweep
    : public ::testing::TestWithParam<std::tuple<BitWidth, float>> {};

TEST_P(QuantizerSweep, CodesAlwaysInRange) {
  const auto [q, range] = GetParam();
  const QuantParams p = make_quant_params(-range, range, q);
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, range));
    const auto code = quantize_value(v, p, RoundMode::kNearest);
    EXPECT_GE(code, 0);
    EXPECT_LE(code, qmax(q));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidthsAndRanges, QuantizerSweep,
    ::testing::Combine(::testing::Values(BitWidth::kQ2, BitWidth::kQ4,
                                         BitWidth::kQ8),
                       ::testing::Values(0.1f, 1.0f, 10.0f)));

}  // namespace
}  // namespace mixq::core
