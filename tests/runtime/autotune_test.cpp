// Tests for the plan-time kernel auto-tuner (runtime/autotune.hpp) and the
// plan's kernel-tier selection (PlanOptions::Vnni as the capability mock:
// kForce stands in for "host has VNNI", kOff for "host lacks it", so the
// selection logic is testable on any machine).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/parallel.hpp"
#include "runtime/plan.hpp"
#include "runtime/simd.hpp"
#include "runtime/simd_vnni.hpp"
#include "support/random_qlayer.hpp"

namespace mixq::runtime {
namespace {

using core::BitWidth;
using core::Scheme;
using test_support::make_conv_family_layer;

/// Small all-narrow-eligible stack: 3x3 stem, dw + pw block, pool, head.
QuantizedNet small_net() {
  Rng rng(0xA11CE);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  Shape s(1, 12, 12, 3);
  BitWidth qx = BitWidth::kQ8;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 8, 3, 2, 1, qx, BitWidth::kQ4, BitWidth::kQ4,
      Scheme::kPCICN, rng, 1e-4, 0.02));
  s = net.layers.back().out_shape;
  qx = net.layers.back().qy;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kDepthwise, s, s.c, 3, 1, 1, qx, BitWidth::kQ8, qx,
      Scheme::kPCICN, rng, 1e-4, 0.02));
  s = net.layers.back().out_shape;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 16, 1, 1, 0, qx, BitWidth::kQ4, BitWidth::kQ8,
      Scheme::kPCICN, rng, 1e-4, 0.02));
  s = net.layers.back().out_shape;
  qx = net.layers.back().qy;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kGlobalAvgPool, s, 0, 1, 1, 0, qx, qx, qx, Scheme::kPCICN,
      rng));
  s = net.layers.back().out_shape;
  QLayer head = make_conv_family_layer(QLayerKind::kLinear, s, 4, 1, 1, 0,
                                       qx, BitWidth::kQ8, BitWidth::kQ8,
                                       Scheme::kPCICN, rng);
  head.raw_logits = true;
  for (int c = 0; c < 4; ++c) head.out_mult.push_back(0.01f);
  net.layers.push_back(std::move(head));
  net.validate();
  return net;
}

/// Pins weight zero-points to 0, 255 and a random value on alternate
/// channels and plants the code that maximises |w - Zw| on the first two,
/// so the offset weights span [-255, 255]: outside s8, the zero-point
/// split's domain.
void pin_q8_extremes(QLayer& l) {
  const std::int64_t per = l.wshape.per_channel();
  for (std::int64_t oc = 0; oc < l.wshape.co; ++oc) {
    std::int32_t& zw = l.zw[static_cast<std::size_t>(oc)];
    if (oc % 3 == 0) {
      zw = 0;
      l.weights.set(oc * per, 255);
    } else if (oc % 3 == 1) {
      zw = 255;
      l.weights.set(oc * per, 0);
    }
  }
}

/// Q8-weight GEMM stack: a 3x3 stem with Cin=3, a direct 1x1 conv, a
/// strided 1x1 conv, a non-head linear layer and the head. Odd channel
/// counts leave co_pad > co; each conv is large enough (>= 16384 MACs) for
/// intra-layer row partitioning.
QuantizedNet q8_net() {
  Rng rng(0x5EED8);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  Shape s(1, 16, 16, 3);
  const BitWidth q8 = BitWidth::kQ8;
  const auto push = [&](QLayerKind kind, std::int64_t co, std::int64_t k,
                        std::int64_t stride, std::int64_t pad) {
    // |phi| reaches ~K * 128^2: multipliers near 1 / (128 K) keep output
    // codes spread instead of clamped, so an error upstream stays visible.
    const double fan_in = kind == QLayerKind::kLinear
                              ? static_cast<double>(s.h * s.w * s.c)
                              : static_cast<double>(k * k * s.c);
    const double m_hi = 1.0 / (128.0 * fan_in);
    QLayer l = make_conv_family_layer(kind, s, co, k, stride, pad, q8, q8,
                                      q8, Scheme::kPCICN, rng, m_hi / 4, m_hi);
    pin_q8_extremes(l);
    s = l.out_shape;
    net.layers.push_back(std::move(l));
  };
  push(QLayerKind::kConv, 17, 3, 2, 1);  // stem, 8x8x17
  push(QLayerKind::kConv, 31, 1, 1, 0);  // direct 1x1
  push(QLayerKind::kConv, 35, 1, 2, 0);  // strided 1x1, 4x4x35
  push(QLayerKind::kLinear, 19, 1, 1, 0);
  QLayer head = make_conv_family_layer(QLayerKind::kLinear, s, 4, 1, 1, 0,
                                       q8, q8, q8, Scheme::kPCICN, rng);
  head.raw_logits = true;
  for (int c = 0; c < 4; ++c) head.out_mult.push_back(0.01f);
  net.layers.push_back(std::move(head));
  net.validate();
  return net;
}

// ---------------------------------------------------------------------------
// Analytic model: pure function of (shape, caches).
// ---------------------------------------------------------------------------

TEST(Autotune, DetectedCachesAreSane) {
  const CacheInfo c = detect_caches();
  EXPECT_GT(c.l1d, 0);
  EXPECT_GE(c.l2, c.l1d);
}

TEST(Autotune, AnalyticIsDeterministic) {
  CacheInfo c;  // fixed defaults: 32 KiB / 1 MiB
  GemmShape g;
  g.out_pixels = 576;
  g.co_pad = 64;
  g.kp = 288;
  g.ocb = 16;
  g.wbytes = 1;
  g.kq = 4;
  const TileConfig a = autotune_analytic(g, c);
  for (int i = 0; i < 5; ++i) {
    const TileConfig b = autotune_analytic(g, c);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.kb, b.kb);
    EXPECT_EQ(a.nb, b.nb);
  }
}

TEST(Autotune, RowsArePow2L1BoundedAndPixelClamped) {
  CacheInfo c;
  c.l1d = 32 * 1024;
  c.l2 = 1024 * 1024;
  GemmShape g;
  g.co_pad = 16;
  g.ocb = 16;
  g.wbytes = 1;
  g.kq = 4;

  g.out_pixels = 1 << 20;
  g.kp = 28;  // tiny depth: the 128-row ceiling binds
  EXPECT_EQ(autotune_analytic(g, c).rows, 128);

  g.kp = 4096;  // huge depth: even 8 rows overflow L1/4 -> floor of 4
  EXPECT_EQ(autotune_analytic(g, c).rows, 4);

  g.kp = 28;
  g.out_pixels = 10;  // fewer pixels than the tile: clamp to pow2 floor
  EXPECT_EQ(autotune_analytic(g, c).rows, 8);
}

TEST(Autotune, KbEngagesOnlyWhenPanelSliceOverflowsL1) {
  CacheInfo c;
  c.l1d = 32 * 1024;
  c.l2 = 1024 * 1024;
  GemmShape g;
  g.out_pixels = 64;
  g.co_pad = 16;
  g.ocb = 16;
  g.wbytes = 1;
  g.kq = 4;

  g.kp = 256;  // slice 4 KiB << L1/2: single pass
  EXPECT_EQ(autotune_analytic(g, c).kb, 0);

  g.kp = 4096;  // slice 64 KiB > 16 KiB: blocked
  const TileConfig t = autotune_analytic(g, c);
  EXPECT_GT(t.kb, 0);
  EXPECT_LT(t.kb, g.kp);
  EXPECT_EQ(t.kb % g.kq, 0);
  EXPECT_LE(g.ocb * t.kb * g.wbytes, c.l1d / 2);
}

TEST(Autotune, NbEngagesOnlyWhenPanelOverflowsL2) {
  CacheInfo c;
  c.l1d = 32 * 1024;
  c.l2 = 256 * 1024;
  GemmShape g;
  g.out_pixels = 64;
  g.ocb = 16;
  g.wbytes = 1;
  g.kq = 4;
  g.kp = 1024;

  g.co_pad = 64;  // panel 64 KiB < L2/2
  EXPECT_EQ(autotune_analytic(g, c).nb, 0);

  g.co_pad = 512;  // panel 512 KiB > 128 KiB
  const TileConfig t = autotune_analytic(g, c);
  EXPECT_GT(t.nb, 0);
  EXPECT_LT(t.nb, g.co_pad);
  EXPECT_EQ(t.nb % g.ocb, 0);
}

TEST(Autotune, DegenerateShapesReturnNoTile) {
  CacheInfo c;
  GemmShape g;  // all zeros
  const TileConfig t = autotune_analytic(g, c);
  EXPECT_EQ(t.rows, 0);
  EXPECT_EQ(t.kb, 0);
  EXPECT_EQ(t.nb, 0);
}

TEST(Autotune, ProbeReturnsBaseForUnrunnableOrS16Shapes) {
  GemmShape g;
  g.out_pixels = 64;
  g.co_pad = 16;
  g.kp = 64;
  g.ocb = 4;  // s16 geometry
  g.wbytes = 2;
  g.kq = 16;
  TileConfig base;
  base.rows = 16;
  const TileConfig t = autotune_probe(g, base);
  EXPECT_EQ(t.rows, 16);
  EXPECT_EQ(t.kb, 0);
  EXPECT_EQ(t.nb, 0);
}

// ---------------------------------------------------------------------------
// Plan-level tier selection via the PlanOptions capability mock.
// ---------------------------------------------------------------------------

TEST(Autotune, TierSelectionHonoursVnniOff) {
  const QuantizedNet net = small_net();
  PlanOptions opts;
  opts.vnni = PlanOptions::Vnni::kOff;
  const ExecutionPlan plan(net, opts);
  for (const PlannedLayer& pl : plan.layers()) {
    EXPECT_NE(pl.tier, KernelTier::kVnni);
  }
}

TEST(Autotune, TierSelectionHonoursVnniForce) {
  for (const bool q8 : {false, true}) {
    const QuantizedNet net = q8 ? q8_net() : small_net();
    PlanOptions opts;
    opts.vnni = PlanOptions::Vnni::kForce;
    const ExecutionPlan plan(net, opts);
    // Every narrow MAC layer, the raw-logits head included, must ride the
    // VNNI tier; only the pool has no tiered kernel. The Q8 net's offsets
    // leave s8, so each of its GEMM layers must take the zero-point split.
    for (std::size_t i = 0; i < plan.layers().size(); ++i) {
      const PlannedLayer& pl = plan.layers()[i];
      const QLayer& l = net.layers[i];
      if (l.kind == QLayerKind::kGlobalAvgPool) {
        EXPECT_EQ(pl.tier, KernelTier::kNone) << "layer " << i;
        continue;
      }
      ASSERT_NE(pl.tier, KernelTier::kNone) << "q8=" << q8 << " layer " << i;
      EXPECT_EQ(pl.tier, KernelTier::kVnni) << "q8=" << q8 << " layer " << i;
      if (q8) {
        EXPECT_EQ(pl.zp_split.size(), static_cast<std::size_t>(pl.co_pad))
            << "layer " << i;
        EXPECT_GT(pl.co_pad, l.wshape.co) << "layer " << i;
      }
    }
  }
}

TEST(Autotune, TierSelectionAutoFollowsHostCapability) {
  const QuantizedNet net = small_net();
  const ExecutionPlan plan(net, PlanOptions{});
  bool any_vnni = false;
  for (const PlannedLayer& pl : plan.layers()) {
    any_vnni = any_vnni || pl.tier == KernelTier::kVnni;
  }
  EXPECT_EQ(any_vnni, simd::vnni_enabled());
}

TEST(Autotune, PlanTilesAreDeterministicAcrossCompiles) {
  const QuantizedNet net = small_net();
  const ExecutionPlan a(net, PlanOptions{});
  const ExecutionPlan b(net, PlanOptions{});
  ASSERT_EQ(a.layers().size(), b.layers().size());
  for (std::size_t i = 0; i < a.layers().size(); ++i) {
    EXPECT_EQ(a.layers()[i].tier, b.layers()[i].tier) << "layer " << i;
    EXPECT_EQ(a.layers()[i].tile.rows, b.layers()[i].tile.rows)
        << "layer " << i;
    EXPECT_EQ(a.layers()[i].tile.kb, b.layers()[i].tile.kb) << "layer " << i;
    EXPECT_EQ(a.layers()[i].tile.nb, b.layers()[i].tile.nb) << "layer " << i;
  }
}

TEST(Autotune, FixedModeUsesCallerTileAndLegacyDefault) {
  const QuantizedNet net = small_net();
  PlanOptions opts;
  opts.autotune = PlanOptions::Autotune::kFixed;
  const ExecutionPlan legacy(net, opts);
  for (const PlannedLayer& pl : legacy.layers()) {
    if (pl.tile.rows > 0) {
      EXPECT_EQ(pl.tile.rows, kIm2colTileRows);
    }
  }
  opts.fixed_tile.rows = 8;
  const ExecutionPlan pinned(net, opts);
  for (const PlannedLayer& pl : pinned.layers()) {
    if (pl.tile.rows > 0) {
      EXPECT_EQ(pl.tile.rows, 8);
    }
  }
}

/// Forced-VNNI plans must stay bit-exact with the reference executor
/// wherever the kernels can run (portable fallback build, or a real VNNI
/// host). Only a native-VNNI binary on a non-VNNI CPU cannot execute them.
/// The Q8 net also runs a small fixed tile (odd im2col rows, K- and
/// N-blocked, so the split correction lands per channel chunk after a
/// blocked K loop) and the row-partitioned pool path at 2 and 4 lanes.
TEST(Autotune, ForcedVnniPlanIsBitExactWithReference) {
  if (simd::vnni_compiled() && !simd::vnni_cpu()) {
    GTEST_SKIP() << "native AVX-512 VNNI build on a host without the "
                    "instructions";
  }
  for (const bool q8 : {false, true}) {
    const QuantizedNet net = q8 ? q8_net() : small_net();
    Executor exec(net);
    Rng rng(99);
    FloatTensor img(net.layers.front().in_shape);
    rng.fill_uniform(img.vec(), -0.2, 1.2);
    const QInferenceResult ref = exec.run(img);
    const auto expect_ref = [&](const std::vector<float>& logits,
                                const char* what) {
      ASSERT_EQ(logits.size(), ref.logits.size()) << what;
      for (std::size_t i = 0; i < logits.size(); ++i) {
        ASSERT_EQ(logits[i], ref.logits[i])
            << "q8=" << q8 << " " << what << " logit " << i;
      }
    };

    PlanOptions opts;
    opts.vnni = PlanOptions::Vnni::kForce;
    for (const auto autotune :
         {PlanOptions::Autotune::kAnalytic, PlanOptions::Autotune::kProbe,
          PlanOptions::Autotune::kFixed}) {
      opts.autotune = autotune;
      const ExecutionPlan plan(net, opts);
      expect_ref(plan.run_into(img.data()),
                 autotune == PlanOptions::Autotune::kAnalytic ? "analytic"
                 : autotune == PlanOptions::Autotune::kProbe  ? "probe"
                                                              : "fixed");
    }
    if (!q8) continue;

    opts.autotune = PlanOptions::Autotune::kFixed;
    opts.fixed_tile = TileConfig{5, 8, 16};
    const ExecutionPlan blocked(net, opts);
    bool k_blocked = false, n_blocked = false;
    for (const PlannedLayer& pl : blocked.layers()) {
      k_blocked = k_blocked || (pl.tile.kb > 0 && pl.tile.kb < pl.kp);
      n_blocked = n_blocked || (pl.tile.nb > 0 && pl.tile.nb < pl.co_pad);
    }
    EXPECT_TRUE(k_blocked);
    EXPECT_TRUE(n_blocked);
    expect_ref(blocked.run_into(img.data()), "fixed kb/nb-blocked tile");

    opts.autotune = PlanOptions::Autotune::kAnalytic;
    const ExecutionPlan plan(net, opts);
    for (const int lanes : {2, 4}) {
      ThreadPool pool(lanes);
      PlanArenas arenas(plan, lanes);
      expect_ref(plan.run_into(img.data(), arenas, pool),
                 lanes == 2 ? "pool 2 lanes" : "pool 4 lanes");
    }
  }
}

}  // namespace
}  // namespace mixq::runtime
