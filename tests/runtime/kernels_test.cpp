#include <gtest/gtest.h>

#include "runtime/kernels.hpp"
#include "tensor/rng.hpp"

namespace mixq::runtime {
namespace {

using core::BitWidth;

/// Hand-build a tiny conv QLayer with identity requantization
/// (M = 1, Bq = 0, Zy = 0) so output codes equal clamped accumulators.
QLayer identity_requant_conv(Shape in, std::int64_t co, std::int64_t k,
                             std::int64_t stride, std::int64_t pad,
                             BitWidth qx, BitWidth qw, BitWidth qy) {
  QLayer l;
  l.kind = QLayerKind::kConv;
  l.scheme = core::Scheme::kPCICN;
  l.spec.kh = l.spec.kw = k;
  l.spec.stride = stride;
  l.spec.pad = pad;
  l.in_shape = in;
  l.out_shape = Shape(in.n, conv_out_dim(in.h, k, stride, pad),
                      conv_out_dim(in.w, k, stride, pad), co);
  l.qx = qx;
  l.qw = qw;
  l.qy = qy;
  l.wshape = WeightShape(co, k, k, in.c);
  l.weights = PackedBuffer(l.wshape.numel(), qw);
  l.zw = {0};
  l.icn.assign(static_cast<std::size_t>(co),
               IcnChannel{0, core::decompose_multiplier(1.0)});
  return l;
}

TEST(ConvKernel, AllOnesSum) {
  // X = 1 everywhere (codes), W = 1, Zx = Zw = 0: accumulator equals the
  // receptive-field size; identity requant passes it to the output code
  // (clamped at qmax).
  QLayer l = identity_requant_conv(Shape(1, 4, 4, 2), 1, 3, 1, 1,
                                   BitWidth::kQ8, BitWidth::kQ8,
                                   BitWidth::kQ8);
  for (std::int64_t i = 0; i < l.weights.numel(); ++i) l.weights.set(i, 1);
  PackedBuffer in(l.in_shape.numel(), BitWidth::kQ8);
  for (std::int64_t i = 0; i < in.numel(); ++i) in.set(i, 1);
  PackedBuffer out(l.out_shape.numel(), BitWidth::kQ8);
  run_layer(l, in, out);
  // Interior: 3*3*2 = 18, corner: 2*2*2 = 8.
  EXPECT_EQ(out.get(l.out_shape.index(0, 1, 1, 0)), 18u);
  EXPECT_EQ(out.get(l.out_shape.index(0, 0, 0, 0)), 8u);
}

TEST(ConvKernel, ZeroPointsSubtracted) {
  QLayer l = identity_requant_conv(Shape(1, 1, 1, 4), 1, 1, 1, 0,
                                   BitWidth::kQ8, BitWidth::kQ8,
                                   BitWidth::kQ8);
  l.zx = 10;
  l.zw = {5};
  for (std::int64_t i = 0; i < 4; ++i) l.weights.set(i, 7);  // W-Zw = 2
  PackedBuffer in(4, BitWidth::kQ8);
  for (std::int64_t i = 0; i < 4; ++i) in.set(i, 13);        // X-Zx = 3
  PackedBuffer out(1, BitWidth::kQ8);
  run_layer(l, in, out);
  EXPECT_EQ(out.get(0), 4u * 3u * 2u);
}

TEST(ConvKernel, PerChannelZwDiffers) {
  QLayer l = identity_requant_conv(Shape(1, 1, 1, 2), 2, 1, 1, 0,
                                   BitWidth::kQ8, BitWidth::kQ4,
                                   BitWidth::kQ8);
  l.zw = {0, 2};
  l.weights.set(0, 3);  // ch0: w = {3, 3}
  l.weights.set(1, 3);
  l.weights.set(2, 3);  // ch1: w - zw = {1, 1}
  l.weights.set(3, 3);
  PackedBuffer in(2, BitWidth::kQ8);
  in.set(0, 2);
  in.set(1, 2);
  PackedBuffer out(2, BitWidth::kQ8);
  run_layer(l, in, out);
  EXPECT_EQ(out.get(0), 12u);  // 2*3 + 2*3
  EXPECT_EQ(out.get(1), 4u);   // 2*1 + 2*1
}

TEST(ConvKernel, NegativeAccumulatorClampsToZero) {
  QLayer l = identity_requant_conv(Shape(1, 1, 1, 1), 1, 1, 1, 0,
                                   BitWidth::kQ8, BitWidth::kQ8,
                                   BitWidth::kQ4);
  l.zw = {10};
  l.weights.set(0, 0);  // W - Zw = -10
  PackedBuffer in(1, BitWidth::kQ8);
  in.set(0, 5);
  PackedBuffer out(1, BitWidth::kQ4);
  run_layer(l, in, out);
  EXPECT_EQ(out.get(0), 0u);
}

TEST(ConvKernel, OutputClampsToQmax) {
  QLayer l = identity_requant_conv(Shape(1, 1, 1, 1), 1, 1, 1, 0,
                                   BitWidth::kQ8, BitWidth::kQ8,
                                   BitWidth::kQ2);
  l.weights.set(0, 100);
  PackedBuffer in(1, BitWidth::kQ8);
  in.set(0, 100);
  PackedBuffer out(1, BitWidth::kQ2);
  run_layer(l, in, out);
  EXPECT_EQ(out.get(0), 3u);
}

TEST(DepthwiseKernel, ChannelsIndependent) {
  QLayer l = identity_requant_conv(Shape(1, 3, 3, 2), 2, 3, 1, 1,
                                   BitWidth::kQ8, BitWidth::kQ8,
                                   BitWidth::kQ8);
  l.kind = QLayerKind::kDepthwise;
  l.wshape = WeightShape(2, 3, 3, 1);
  l.weights = PackedBuffer(l.wshape.numel(), BitWidth::kQ8);
  // Channel 0 filter all ones, channel 1 all zeros.
  for (std::int64_t i = 0; i < 9; ++i) l.weights.set(i, 1);
  PackedBuffer in(l.in_shape.numel(), BitWidth::kQ8);
  for (std::int64_t i = 0; i < in.numel(); ++i) in.set(i, 1);
  PackedBuffer out(l.out_shape.numel(), BitWidth::kQ8);
  run_layer(l, in, out);
  EXPECT_EQ(out.get(l.out_shape.index(0, 1, 1, 0)), 9u);
  EXPECT_EQ(out.get(l.out_shape.index(0, 1, 1, 1)), 0u);
}

TEST(LinearKernel, DotProduct) {
  QLayer l;
  l.kind = QLayerKind::kLinear;
  l.scheme = core::Scheme::kPCICN;
  l.in_shape = Shape(1, 1, 1, 4);
  l.out_shape = Shape(1, 1, 1, 2);
  l.qx = l.qw = l.qy = BitWidth::kQ8;
  l.wshape = WeightShape(2, 1, 1, 4);
  l.weights = PackedBuffer(8, BitWidth::kQ8);
  for (std::int64_t i = 0; i < 8; ++i) {
    l.weights.set(i, static_cast<std::uint32_t>(i));
  }
  l.zw = {0};
  l.icn.assign(2, IcnChannel{0, core::decompose_multiplier(1.0)});
  PackedBuffer in(4, BitWidth::kQ8);
  for (std::int64_t i = 0; i < 4; ++i) in.set(i, 1);
  PackedBuffer out(2, BitWidth::kQ8);
  run_layer(l, in, out);
  EXPECT_EQ(out.get(0), 0u + 1 + 2 + 3);
  EXPECT_EQ(out.get(1), 4u + 5 + 6 + 7);
}

TEST(GapKernel, FloorAverage) {
  QLayer l;
  l.kind = QLayerKind::kGlobalAvgPool;
  l.in_shape = Shape(1, 2, 2, 2);
  l.out_shape = Shape(1, 1, 1, 2);
  l.qx = l.qy = BitWidth::kQ8;
  l.wshape = WeightShape(2, 1, 1, 1);
  PackedBuffer in(8, BitWidth::kQ8);
  // Channel 0: {1,2,3,4} -> floor(10/4) = 2; channel 1: {0,0,0,3} -> 0.
  in.set(0, 1);
  in.set(2, 2);
  in.set(4, 3);
  in.set(6, 4);
  in.set(7, 3);
  PackedBuffer out(2, BitWidth::kQ8);
  run_layer(l, in, out);
  EXPECT_EQ(out.get(0), 2u);
  EXPECT_EQ(out.get(1), 0u);
}

TEST(ThresholdScheme, MatchesIcnInKernel) {
  Rng rng(31);
  QLayer icn_l = identity_requant_conv(Shape(1, 4, 4, 3), 4, 3, 1, 1,
                                       BitWidth::kQ8, BitWidth::kQ4,
                                       BitWidth::kQ4);
  // Random weights and a realistic multiplier per channel.
  for (std::int64_t i = 0; i < icn_l.weights.numel(); ++i) {
    icn_l.weights.set(i, static_cast<std::uint32_t>(rng.uniform_int(16)));
  }
  icn_l.zw = {7, 8, 6, 9};
  icn_l.zx = 3;
  for (auto& ch : icn_l.icn) {
    ch.m = core::decompose_multiplier(rng.uniform(0.001, 0.05));
    ch.bq = static_cast<std::int32_t>(rng.uniform(-50, 50));
  }
  QLayer thr_l = icn_l;
  thr_l.scheme = core::Scheme::kPCThresholds;
  const std::int64_t bound =
      core::phi_bound(icn_l.wshape.per_channel(), icn_l.qx, icn_l.qw);
  thr_l.thresholds = core::derive_threshold_layer(icn_l.icn, icn_l.zy,
                                                  icn_l.qy, -bound, bound);

  PackedBuffer in(icn_l.in_shape.numel(), BitWidth::kQ8);
  for (std::int64_t i = 0; i < in.numel(); ++i) {
    in.set(i, static_cast<std::uint32_t>(rng.uniform_int(256)));
  }
  PackedBuffer out_icn(icn_l.out_shape.numel(), BitWidth::kQ4);
  PackedBuffer out_thr(icn_l.out_shape.numel(), BitWidth::kQ4);
  run_layer(icn_l, in, out_icn);
  run_layer(thr_l, in, out_thr);
  for (std::int64_t i = 0; i < out_icn.numel(); ++i) {
    ASSERT_EQ(out_icn.get(i), out_thr.get(i)) << "element " << i;
  }
}

TEST(RunLayer, HeadLayerRejected) {
  QLayer l;
  l.raw_logits = true;
  PackedBuffer in(1, BitWidth::kQ8), out(1, BitWidth::kQ8);
  EXPECT_THROW(run_layer(l, in, out), std::invalid_argument);
}

TEST(RunHead, DequantizedLogits) {
  QLayer l;
  l.kind = QLayerKind::kLinear;
  l.raw_logits = true;
  l.in_shape = Shape(1, 1, 1, 2);
  l.out_shape = Shape(1, 1, 1, 2);
  l.qx = l.qw = BitWidth::kQ8;
  l.wshape = WeightShape(2, 1, 1, 2);
  l.weights = PackedBuffer(4, BitWidth::kQ8);
  l.weights.set(0, 2);
  l.weights.set(1, 2);
  l.weights.set(2, 4);
  l.weights.set(3, 4);
  l.zw = {0};
  l.icn = {IcnChannel{10, {}}, IcnChannel{-10, {}}};
  l.out_mult = {0.5, 0.25};
  PackedBuffer in(2, BitWidth::kQ8);
  in.set(0, 3);
  in.set(1, 3);
  const auto logits = run_head(l, in);
  ASSERT_EQ(logits.size(), 2u);
  EXPECT_FLOAT_EQ(logits[0], 0.5f * (12 + 10));
  EXPECT_FLOAT_EQ(logits[1], 0.25f * (24 - 10));
}

}  // namespace
}  // namespace mixq::runtime
