// tests/support/random_qlayer.hpp
//
// Shared randomization helpers for constructing QLayer instances in the
// runtime tests and the workload benches. Geometry is chosen by each
// caller; the quantization parameters (codes, zero-points, ICN channels,
// thresholds) are filled here so the suites cannot drift apart as QLayer
// grows fields.
#pragma once

#include "core/thresholds.hpp"
#include "runtime/qgraph.hpp"
#include "tensor/rng.hpp"

namespace mixq::runtime::test_support {

inline core::BitWidth random_width(Rng& rng) {
  const core::BitWidth widths[] = {core::BitWidth::kQ2, core::BitWidth::kQ4,
                                   core::BitWidth::kQ8};
  return widths[rng.uniform_int(3)];
}

inline void fill_random_codes(PackedBuffer& buf, core::BitWidth q, Rng& rng) {
  for (std::int64_t i = 0; i < buf.numel(); ++i) {
    buf.set(i, static_cast<std::uint32_t>(rng.uniform_int(core::levels(q))));
  }
}

/// Fills every quantization parameter of a layer whose kind/geometry
/// (kind, spec, in_shape, out_shape, wshape, qx/qw/qy) is already set:
/// packed random weights, zero-points, ICN channels with multipliers drawn
/// from [m_lo, m_hi] (negated with probability neg_prob), and -- for the
/// kPCThresholds scheme -- the derived integer threshold table.
inline void fill_random_quant_params(QLayer& l, Scheme scheme, Rng& rng,
                                     double m_lo = 1e-4, double m_hi = 0.05,
                                     double neg_prob = 0.0) {
  l.scheme = scheme;
  l.weights = PackedBuffer(l.wshape.numel(), l.qw);
  fill_random_codes(l.weights, l.qw, rng);
  l.zx = static_cast<std::int32_t>(rng.uniform_int(core::levels(l.qx)));
  const bool pc =
      core::granularity_of(scheme) == core::Granularity::kPerChannel;
  l.zw.clear();
  for (std::int64_t c = 0; c < (pc ? l.wshape.co : 1); ++c) {
    l.zw.push_back(
        static_cast<std::int32_t>(rng.uniform_int(core::levels(l.qw))));
  }
  l.icn.resize(static_cast<std::size_t>(l.wshape.co));
  for (auto& ch : l.icn) {
    double m = rng.uniform(m_lo, m_hi);
    if (neg_prob > 0.0 && rng.uniform() < neg_prob) m = -m;
    ch.m = core::decompose_multiplier(m);
    ch.bq = static_cast<std::int32_t>(rng.uniform(-200, 200));
  }
  if (scheme == Scheme::kPCThresholds) {
    const std::int64_t bound =
        core::phi_bound(l.wshape.per_channel(), l.qx, l.qw);
    l.thresholds =
        core::derive_threshold_layer(l.icn, l.zy, l.qy, -bound, bound);
  }
}

/// Pins an ICN layer's zero-points to mid-scale (128, for 8-bit codes). On
/// uniform random codes phi then averages 0 with a spread of about
/// sqrt(fan-in) * 74 * 74, so a multiplier near 1 / that spread keeps the
/// outputs off the clamp even at fan-ins past 16,000, and an error of one
/// tap's product still moves codes.
inline void centre_zero_points(QLayer& l) {
  l.zx = 128;
  l.zy = 128;
  l.zw.assign(l.zw.size(), 128);
}

/// A conv-family layer (conv / depthwise / linear / global-avg-pool) with
/// explicit geometry and randomized quantization parameters drawn via
/// fill_random_quant_params. For kLinear the input tensor is flattened
/// (fan-in = h*w*c); for kGlobalAvgPool no parameters are drawn. Shared by
/// the runtime test suites and bench/bench_runtime.cpp so the randomized
/// layer construction cannot drift between them.
inline QLayer make_conv_family_layer(QLayerKind kind, Shape in_shape,
                                     std::int64_t co, std::int64_t k,
                                     std::int64_t stride, std::int64_t pad,
                                     core::BitWidth qx, core::BitWidth qw,
                                     core::BitWidth qy, Scheme scheme,
                                     Rng& rng, double m_lo = 1e-4,
                                     double m_hi = 0.05) {
  QLayer l;
  l.kind = kind;
  l.qx = qx;
  l.qw = qw;
  l.qy = qy;
  l.in_shape = in_shape;
  l.spec.kh = l.spec.kw = static_cast<int>(k);
  l.spec.stride = static_cast<int>(stride);
  l.spec.pad = static_cast<int>(pad);
  if (kind == QLayerKind::kGlobalAvgPool) {
    l.out_shape = Shape(in_shape.n, 1, 1, in_shape.c);
    return l;
  }
  if (kind == QLayerKind::kLinear) {
    l.spec.kh = l.spec.kw = 1;
    l.spec.stride = 1;
    l.spec.pad = 0;
    l.out_shape = Shape(in_shape.n, 1, 1, co);
    l.wshape = WeightShape(co, 1, 1, in_shape.h * in_shape.w * in_shape.c);
  } else {
    const std::int64_t oh = conv_out_dim(in_shape.h, k, stride, pad);
    const std::int64_t ow = conv_out_dim(in_shape.w, k, stride, pad);
    l.out_shape = Shape(in_shape.n, oh, ow, co);
    l.wshape = kind == QLayerKind::kDepthwise
                   ? WeightShape(co, k, k, 1)
                   : WeightShape(co, k, k, in_shape.c);
  }
  l.zy = static_cast<std::int32_t>(rng.uniform_int(core::levels(qy)));
  fill_random_quant_params(l, scheme, rng, m_lo, m_hi);
  return l;
}

}  // namespace mixq::runtime::test_support
