// Tests for the planned execution engine (runtime/plan.hpp).
//
// The contract is *integer equality* with the reference kernels -- no
// tolerance anywhere -- across every geometry the kernels special-case:
// stride 1 and 2, pad 0/1/"same", all 2/4/8-bit weight/activation
// combinations, odd spatial sizes that exercise the border slow path, and
// GEMM vs direct conv dispatch. Plus the systems properties the plan
// exists for: arena reuse across inferences and zero steady-state heap
// allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "mcu/device.hpp"
#include "mcu/memory_map.hpp"
#include "runtime/executor.hpp"
#include "runtime/parallel.hpp"
#include "runtime/plan.hpp"
#include "runtime/simd_vnni.hpp"
#include "support/random_qlayer.hpp"

// ---------------------------------------------------------------------------
// Allocation instrumentation: count every global operator new in this test
// binary so the zero-allocation claim is enforced, not asserted on faith.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::int64_t> g_alloc_count{0};
}  // namespace

// Out of line: inlined into a caller, the malloc/free inside would meet
// that caller's new/delete expressions, and GCC's allocator pairing check
// (-Wmismatched-new-delete) would report every such site.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mixq::runtime {
namespace {

using core::BitWidth;
using core::Scheme;
using test_support::make_conv_family_layer;
using test_support::random_width;

 

/// A randomized validate-clean network: stem conv with the requested
/// geometry, a dw/pw block, global pool, and a linear head.
QuantizedNet random_net(std::int64_t hw_h, std::int64_t hw_w, std::int64_t k,
                        std::int64_t stride, std::int64_t pad,
                        std::uint64_t seed) {
  Rng rng(seed);
  const Scheme schemes[] = {Scheme::kPLICN, Scheme::kPCICN,
                            Scheme::kPCThresholds};
  QuantizedNet net;
  net.input_qp =
      core::make_quant_params(0.0f, 1.0f, random_width(rng));

  Shape s(1, hw_h, hw_w, 2 + static_cast<std::int64_t>(rng.uniform_int(5)));
  BitWidth qx = net.input_qp.q;

  const auto next_scheme = [&] { return schemes[rng.uniform_int(3)]; };
  // Stem conv with the geometry under test.
  {
    const BitWidth qw = random_width(rng);
    const BitWidth qy = random_width(rng);
    const std::int64_t co = 3 + static_cast<std::int64_t>(rng.uniform_int(6));
    net.layers.push_back(make_conv_family_layer(QLayerKind::kConv, s, co, k, stride, pad,
                                    qx, qw, qy, next_scheme(), rng));
    s = net.layers.back().out_shape;
    qx = net.layers.back().qy;
  }
  // Depthwise (same k/stride/pad family) + pointwise.
  {
    const BitWidth qy = random_width(rng);
    net.layers.push_back(make_conv_family_layer(QLayerKind::kDepthwise, s, s.c, 3, stride,
                                    1, qx, random_width(rng), qy,
                                    next_scheme(), rng));
    s = net.layers.back().out_shape;
    qx = qy;
    const BitWidth qy2 = random_width(rng);
    const std::int64_t co = 4 + static_cast<std::int64_t>(rng.uniform_int(5));
    net.layers.push_back(make_conv_family_layer(QLayerKind::kConv, s, co, 1, 1, 0, qx,
                                    random_width(rng), qy2, next_scheme(),
                                    rng));
    s = net.layers.back().out_shape;
    qx = qy2;
  }
  net.layers.push_back(make_conv_family_layer(QLayerKind::kGlobalAvgPool, s, 0, 1, 1, 0,
                                  qx, qx, qx, Scheme::kPCICN, rng));
  s = net.layers.back().out_shape;
  QLayer head =
      make_conv_family_layer(QLayerKind::kLinear, s, 3 + rng.uniform_int(4), 1, 1, 0, qx,
                 random_width(rng), BitWidth::kQ8, Scheme::kPCICN, rng);
  head.raw_logits = true;
  for (std::int64_t c = 0; c < head.wshape.co; ++c) {
    head.out_mult.push_back(rng.uniform(1e-5, 0.02));
  }
  net.layers.push_back(std::move(head));
  net.validate();
  return net;
}

void expect_bit_exact(const QuantizedNet& net, std::uint64_t img_seed,
                      const std::string& label) {
  Rng rng(img_seed);
  FloatTensor img(net.layers.front().in_shape);
  rng.fill_uniform(img.vec(), -0.2, 1.2);
  const QInferenceResult ref = Executor(net).run(img);  // reference kernels
  const QInferenceResult planned = ExecutionPlan(net).run(img);
  ASSERT_EQ(ref.logits.size(), planned.logits.size()) << label;
  for (std::size_t i = 0; i < ref.logits.size(); ++i) {
    ASSERT_EQ(ref.logits[i], planned.logits[i])
        << label << " logit " << i;
  }
  EXPECT_EQ(ref.predicted, planned.predicted) << label;
}

// ---------------------------------------------------------------------------
// Randomized exactness across the kernel dispatch space.
// ---------------------------------------------------------------------------

class PlanExactness : public ::testing::TestWithParam<int> {};

TEST_P(PlanExactness, StridePadWidthCombinations) {
  const int trial = GetParam();
  // Odd spatial sizes exercise the border slow path and ragged interiors.
  const std::int64_t sizes[][2] = {{8, 8}, {7, 5}, {9, 7}, {6, 9}};
  const auto& hw = sizes[trial % 4];
  for (const std::int64_t stride : {std::int64_t{1}, std::int64_t{2}}) {
    for (const std::int64_t k : {std::int64_t{1}, std::int64_t{3}}) {
      // pad 0, pad 1, and "same"-style pad (k-1)/2.
      for (const std::int64_t pad :
           {std::int64_t{0}, std::int64_t{1}, (k - 1) / 2}) {
        const QuantizedNet net = random_net(
            hw[0], hw[1], k, stride, pad,
            1000 + static_cast<std::uint64_t>(trial) * 131 +
                static_cast<std::uint64_t>(stride * 31 + k * 7 + pad));
        expect_bit_exact(net,
                         40 + static_cast<std::uint64_t>(trial),
                         "trial " + std::to_string(trial) + " k=" +
                             std::to_string(k) + " s=" +
                             std::to_string(stride) + " p=" +
                             std::to_string(pad));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrials, PlanExactness, ::testing::Range(0, 8));

TEST(PlanExactness, AllWidthCombosOnPointwiseChain) {
  // Every (qw, qa) pair from {2,4,8}^2 through the GEMM path.
  const BitWidth widths[] = {BitWidth::kQ2, BitWidth::kQ4, BitWidth::kQ8};
  int n = 0;
  for (const BitWidth qw : widths) {
    for (const BitWidth qa : widths) {
      Rng rng(7000 + static_cast<std::uint64_t>(n));
      QuantizedNet net;
      net.input_qp = core::make_quant_params(0.0f, 1.0f, qa);
      Shape s(1, 5, 5, 4);
      net.layers.push_back(make_conv_family_layer(QLayerKind::kConv, s, 6, 1, 1, 0, qa,
                                      qw, qa, Scheme::kPCICN, rng));
      net.layers.push_back(make_conv_family_layer(QLayerKind::kConv,
                                      net.layers.back().out_shape, 5, 1, 2, 0,
                                      qa, qw, qa, Scheme::kPLICN, rng));
      net.validate();
      expect_bit_exact(net, 90 + static_cast<std::uint64_t>(n),
                       "qw=" + std::to_string(core::bits(qw)) +
                           " qa=" + std::to_string(core::bits(qa)));
      ++n;
    }
  }
  EXPECT_EQ(n, 9);
}

TEST(PlanExactness, HeadlessNetworkReturnsFinalCodes) {
  // Networks without a raw-logits head: the planned path must reproduce
  // the reference fallback (final codes as logits).
  Rng rng(31337);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ4);
  Shape s(1, 6, 6, 3);
  net.layers.push_back(make_conv_family_layer(QLayerKind::kConv, s, 5, 3, 1, 1,
                                  BitWidth::kQ4, BitWidth::kQ4, BitWidth::kQ4,
                                  Scheme::kPCICN, rng));
  net.layers.push_back(make_conv_family_layer(QLayerKind::kGlobalAvgPool,
                                  net.layers.back().out_shape, 0, 1, 1, 0,
                                  BitWidth::kQ4, BitWidth::kQ4, BitWidth::kQ4,
                                  Scheme::kPCICN, rng));
  net.validate();
  expect_bit_exact(net, 55, "headless");
}

// ---------------------------------------------------------------------------
// Arena reuse and allocation freedom.
// ---------------------------------------------------------------------------

TEST(PlanArena, ConsecutiveRunsAreIndependent) {
  const QuantizedNet net = random_net(8, 8, 3, 1, 1, 2024);
  const Executor exec(net);
  const ExecutionPlan plan(net);
  Rng rng(99);
  FloatTensor a(net.layers.front().in_shape);
  FloatTensor b(net.layers.front().in_shape);
  rng.fill_uniform(a.vec(), 0.0, 1.0);
  rng.fill_uniform(b.vec(), 0.0, 1.0);

  const QInferenceResult ref_a = exec.run(a);
  const QInferenceResult ref_b = exec.run(b);
  // Interleave planned runs on the same plan: results must not bleed.
  const QInferenceResult p_a1 = plan.run(a);
  const QInferenceResult p_b = plan.run(b);
  const QInferenceResult p_a2 = plan.run(a);
  for (std::size_t i = 0; i < ref_a.logits.size(); ++i) {
    ASSERT_EQ(ref_a.logits[i], p_a1.logits[i]) << "first run, logit " << i;
    ASSERT_EQ(ref_b.logits[i], p_b.logits[i]) << "second image, logit " << i;
    ASSERT_EQ(ref_a.logits[i], p_a2.logits[i]) << "arena reuse, logit " << i;
  }
}

TEST(PlanArena, SteadyStateRunsDoNotAllocate) {
  const QuantizedNet net = random_net(9, 7, 3, 2, 1, 4242);
  const ExecutionPlan plan(net);
  Rng rng(5);
  FloatTensor img(net.layers.front().in_shape);
  rng.fill_uniform(img.vec(), 0.0, 1.0);

  plan.run_into(img.data());  // warm-up (already allocation-free, but fair)
  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) plan.run_into(img.data());
  const std::int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "planned inference allocated on the steady-state path";
}

TEST(PlanArena, SizedLikeTheMemoryMapPingPong) {
  // The u8 arenas follow the MCU memory map's ping-pong RAM regions (Eq. 7
  // realized): tensor 0 and every even-indexed output in ping, odd ones in
  // pong, a raw-logits head's output in neither. Each arena holds exactly
  // the largest tensor of its region, one byte per code.
  for (const std::uint64_t seed : {777u, 778u, 779u}) {
    const QuantizedNet net = random_net(8, 6, 3, 1, 1, seed);
    const ExecutionPlan plan(net);

    // Tensor t (0 = the input, i + 1 = layer i's output) -> region t % 2.
    std::int64_t elems[2] = {0, 0};
    std::int64_t bytes[2] = {0, 0};
    const auto place = [&](std::size_t t, std::int64_t numel, BitWidth q) {
      elems[t % 2] = std::max(elems[t % 2], numel);
      bytes[t % 2] = std::max(bytes[t % 2], packed_bytes(numel, q));
    };
    place(0, net.layers.front().in_shape.numel(), net.layers.front().qx);
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
      const QLayer& l = net.layers[i];
      if (!l.raw_logits) place(i + 1, l.out_shape.numel(), l.qy);
    }

    // The memory map places the same tensors: its regions are their packed
    // sizes, word-aligned.
    mcu::DeviceSpec dev;
    dev.flash_bytes = std::int64_t{1} << 30;
    dev.ram_bytes = std::int64_t{1} << 30;
    const mcu::MemoryMap map = mcu::build_memory_map(net, dev);
    ASSERT_EQ(map.ram.size(), 2u);
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(map.ram[r].size, simd::round_up(bytes[r], mcu::kRegionAlign))
          << "seed " << seed << " region " << r;
    }
    EXPECT_EQ(plan.ping8_elems(), elems[0]) << "seed " << seed;
    EXPECT_EQ(plan.pong8_elems(), elems[1]) << "seed " << seed;
    EXPECT_EQ(plan.arena_bytes(), arena_u8_padded(elems[0]) +
                                      arena_u8_padded(elems[1]) +
                                      arena_u8_padded(plan.col8_elems()))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Kernel tiers, requant epilogues and the int64 loops.
// ---------------------------------------------------------------------------

/// A forced-VNNI plan executes the VNNI kernel bodies: runnable unless a
/// native-VNNI binary sits on a host without the instructions.
bool vnni_runnable() { return !simd::vnni_compiled() || simd::vnni_cpu(); }

/// Bit-exactness of a specific plan (with options) vs the reference
/// executor, over a few images including an all-maximum one (codes 255)
/// that drives the widening MACs to their proven extremes.
void expect_plan_bit_exact(const QuantizedNet& net, const ExecutionPlan& plan,
                           const std::string& label) {
  Executor exec(net);  // reference kernels
  Rng rng(4711);
  FloatTensor img(net.layers.front().in_shape);
  for (int trial = 0; trial < 3; ++trial) {
    if (trial == 0) {
      std::fill(img.vec().begin(), img.vec().end(), 2.0f);  // clamps to 255
    } else {
      rng.fill_uniform(img.vec(), -0.2, 1.2);
    }
    const QInferenceResult ref = exec.run(img);
    const QInferenceResult planned = plan.run(img);
    ASSERT_EQ(ref.logits.size(), planned.logits.size()) << label;
    for (std::size_t i = 0; i < ref.logits.size(); ++i) {
      ASSERT_EQ(ref.logits[i], planned.logits[i])
          << label << " trial " << trial << " logit " << i;
    }
  }
}

/// An ICN chain whose conv weights are 4-bit: offset weights are always
/// within [-15, 15], so the s8 panel's pair bound holds for any activation
/// width and the prover must select the panel tier.
TEST(PlanDomain, IcnChainCompilesNarrowWithPanelTier) {
  Rng rng(31);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  Shape s(1, 9, 9, 5);
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 8, 3, 2, 1, BitWidth::kQ8, BitWidth::kQ4,
      BitWidth::kQ4, Scheme::kPCICN, rng));
  s = net.layers.back().out_shape;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kDepthwise, s, s.c, 3, 1, 1, BitWidth::kQ4, BitWidth::kQ8,
      BitWidth::kQ4, Scheme::kPCICN, rng));
  s = net.layers.back().out_shape;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 6, 1, 1, 0, BitWidth::kQ4, BitWidth::kQ2,
      BitWidth::kQ8, Scheme::kPCICN, rng));
  net.validate();

  // Pin the AVX2-era tiers: on a VNNI host the auto policy would promote
  // the panel layers to the VNNI tier (covered by autotune_test.cpp).
  PlanOptions opts;
  opts.vnni = PlanOptions::Vnni::kOff;
  const ExecutionPlan plan(net, opts);
  ASSERT_EQ(plan.layers().size(), 3u);
  for (const PlannedLayer& pl : plan.layers()) {
    EXPECT_NE(pl.tier, KernelTier::kNone);
    EXPECT_TRUE(pl.rq.usable);
  }
  // 4/2-bit conv weights must take the s8 panel; the q8-weight depthwise
  // always has an s16 bank.
  EXPECT_EQ(plan.layers()[0].tier, KernelTier::kS8Panel);
  EXPECT_FALSE(plan.layers()[0].w8.empty());
  EXPECT_FALSE(plan.layers()[1].wt16p.empty());
  EXPECT_EQ(plan.layers()[2].tier, KernelTier::kS8Panel);
  expect_plan_bit_exact(net, plan, "icn chain");
}

/// Adversarial i16-overflow-bound layers: a linear layer with q8 weights
/// whose zero-point centres them (fits s8). With every adjacent pair's
/// |w| sum exactly 128, 255 * 128 = 32640 <= 32767 and the panel tier is
/// provable; bump one pair (in the last K-block) to 129 and the prover
/// must reject the panel and fall back to the s16 widening tier -- still
/// tiered, still bit-exact, on max-magnitude activations.
/// The same construction as a raw-logits head takes the same tiers: its
/// GEMM runs on the panel with the float epilogue and holds no INT32 bank.
TEST(PlanDomain, PanelTierStraddlesI16PairBound) {
  const std::int64_t K = 40;  // 10 panel K-blocks
  for (const bool head : {false, true}) {
    for (const bool over : {false, true}) {
      Rng rng(32);
      QuantizedNet net;
      net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
      Shape s(1, 1, 1, K);
      QLayer l = make_conv_family_layer(QLayerKind::kLinear, s, 4, 1, 1, 0,
                                        BitWidth::kQ8, BitWidth::kQ8,
                                        BitWidth::kQ8, Scheme::kPCICN, rng);
      l.zw.assign(l.zw.size(), 128);
      // Codes 255/129 give offset weights +-127/+1: every pair sums to 128.
      for (std::int64_t i = 0; i < l.weights.numel(); ++i) {
        l.weights.set(i, i % 2 == 0 ? (i % 4 == 0 ? 1 : 255) : 129);
      }
      if (over) {
        // Last K-block, last pair: (127, 2) -> 129 * 255 > 32767.
        l.weights.set(K - 1, 130);
      }
      if (head) {
        l.raw_logits = true;
        for (int c = 0; c < 4; ++c) l.out_mult.push_back(0.003 * (c + 1));
      }
      net.layers.push_back(std::move(l));
      net.validate();

      // vnni=kOff: the VNNI tier accepts BOTH variants (no pair bound), so
      // the straddle only shows on the pinned AVX2 tiers.
      PlanOptions opts;
      opts.vnni = PlanOptions::Vnni::kOff;
      const ExecutionPlan plan(net, opts);
      const PlannedLayer& pl = plan.layers().front();
      const std::string label = std::string(head ? "head " : "linear ") +
                                (over ? "pair bound exceeded"
                                      : "pair bound exact");
      ASSERT_NE(pl.tier, KernelTier::kNone) << label;
      EXPECT_EQ(pl.tier, over ? KernelTier::kU8S16 : KernelTier::kS8Panel)
          << label;
      EXPECT_EQ(pl.w8.empty(), over) << label;
      EXPECT_EQ(pl.w16.empty(), !over) << label;
      EXPECT_TRUE(pl.w.empty()) << label;
      expect_plan_bit_exact(net, plan, label);
    }
  }
}

/// The PC-Thresholds scheme has no vector requant form: its conv, depthwise
/// and pointwise layers take the kernel tiers like any acc32 layer and
/// requantize through the scalar threshold search (depthwise border pixels
/// through the scalar border pixel), on every tier this host can run.
TEST(PlanDomain, ThresholdSchemeTakesTierWithScalarEpilogue) {
  Rng rng(33);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ4);
  Shape s(1, 6, 6, 4);
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 5, 3, 1, 1, BitWidth::kQ4, BitWidth::kQ4,
      BitWidth::kQ4, Scheme::kPCThresholds, rng));
  s = net.layers.back().out_shape;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kDepthwise, s, s.c, 3, 1, 1, BitWidth::kQ4, BitWidth::kQ8,
      BitWidth::kQ8, Scheme::kPCThresholds, rng));
  s = net.layers.back().out_shape;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 6, 1, 1, 0, BitWidth::kQ8, BitWidth::kQ4,
      BitWidth::kQ4, Scheme::kPCThresholds, rng));
  net.validate();
  for (const auto vnni : {PlanOptions::Vnni::kOff, PlanOptions::Vnni::kForce}) {
    if (vnni == PlanOptions::Vnni::kForce && !vnni_runnable()) continue;
    PlanOptions opts;
    opts.vnni = vnni;
    const ExecutionPlan plan(net, opts);
    const std::string label = vnni == PlanOptions::Vnni::kForce
                                  ? "thresholds vnni"
                                  : "thresholds off";
    for (const PlannedLayer& pl : plan.layers()) {
      EXPECT_NE(pl.tier, KernelTier::kNone) << label;
      EXPECT_FALSE(pl.rq.usable) << label;
      EXPECT_EQ(std::string(requant_name(pl)), "scalar") << label;
      EXPECT_TRUE(pl.border_key.empty()) << label;
    }
    expect_plan_bit_exact(net, plan, label);
  }
}

TEST(PlanDomain, HugeFanInRunsInt64Loop) {
  // phi_bound = 20000 * 255 * 255 > 2^30: int32 accumulators are not
  // provably safe, so the layer takes no tier and runs the int64 loop over
  // its u8 input codes.
  Rng rng(34);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  Shape s(1, 50, 50, 8);
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kLinear, s, 3, 1, 1, 0, BitWidth::kQ8, BitWidth::kQ8,
      BitWidth::kQ8, Scheme::kPCICN, rng));
  net.validate();
  const ExecutionPlan plan(net);
  const PlannedLayer& pl = plan.layers().front();
  EXPECT_FALSE(pl.acc32);
  EXPECT_EQ(pl.tier, KernelTier::kNone);
  EXPECT_EQ(std::string(tier_name(pl.tier)), "-");
  EXPECT_EQ(pl.w.size(), static_cast<std::size_t>(20000 * 3));
  expect_plan_bit_exact(net, plan, "huge fan-in int64 loop");
}

TEST(PlanDomain, MixedEpilogueChainIsBitExact) {
  // Vector-epilogue conv -> scalar-epilogue (thresholds) pointwise ->
  // int64 linear (fan-in 8 * 8 * 260 = 16,640 at 8/8 bits fails acc32) ->
  // tiered raw-logits head: each layer reads the u8 codes its producer
  // wrote, whichever kernel and epilogue either side runs.
  Rng rng(35);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  Shape s(1, 8, 8, 3);
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 6, 3, 1, 1, BitWidth::kQ8, BitWidth::kQ4,
      BitWidth::kQ8, Scheme::kPCICN, rng));
  s = net.layers.back().out_shape;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 260, 1, 1, 0, BitWidth::kQ8, BitWidth::kQ4,
      BitWidth::kQ8, Scheme::kPCThresholds, rng));
  s = net.layers.back().out_shape;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kLinear, s, 5, 1, 1, 0, BitWidth::kQ8, BitWidth::kQ8,
      BitWidth::kQ8, Scheme::kPCICN, rng, 3e-5, 1e-4));
  test_support::centre_zero_points(net.layers.back());
  s = net.layers.back().out_shape;
  QLayer head = make_conv_family_layer(QLayerKind::kLinear, s, 4, 1, 1, 0,
                                       BitWidth::kQ8, BitWidth::kQ8,
                                       BitWidth::kQ8, Scheme::kPCICN, rng);
  head.raw_logits = true;
  for (int c = 0; c < 4; ++c) head.out_mult.push_back(rng.uniform(1e-5, 0.02));
  net.layers.push_back(std::move(head));
  net.validate();

  const ExecutionPlan plan(net);
  const auto& pls = plan.layers();
  EXPECT_NE(pls[0].tier, KernelTier::kNone);
  EXPECT_EQ(std::string(requant_name(pls[0])), "vector");
  EXPECT_NE(pls[1].tier, KernelTier::kNone);
  EXPECT_EQ(std::string(requant_name(pls[1])), "scalar");
  EXPECT_FALSE(pls[2].acc32);
  EXPECT_EQ(pls[2].tier, KernelTier::kNone);
  EXPECT_NE(pls[3].tier, KernelTier::kNone);
  expect_plan_bit_exact(net, plan, "mixed-epilogue chain");
  expect_bit_exact(net, 77, "mixed-epilogue chain, second image");
}

TEST(PlanArena, Q8ChainArenasAreTheMemoryMapRegions) {
  // MobileNet-class stack (the tracked workload's shape) with every
  // activation at 8 bits and every tensor a multiple of 4 codes: the
  // packed Eq. 7 ping-pong regions of the MCU memory map are then exactly
  // the plan's u8 ping and pong arenas, and the plan's activation memory
  // is that RW footprint plus the slack and one im2col tile.
  Rng rng(36);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  Shape s(1, 32, 32, 3);
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 16, 3, 2, 1, BitWidth::kQ8, BitWidth::kQ8,
      BitWidth::kQ8, Scheme::kPCICN, rng));
  s = net.layers.back().out_shape;
  for (const std::int64_t co : {32, 64}) {
    net.layers.push_back(make_conv_family_layer(
        QLayerKind::kDepthwise, s, s.c, 3, 1, 1, BitWidth::kQ8, BitWidth::kQ8,
        BitWidth::kQ8, Scheme::kPCICN, rng));
    s = net.layers.back().out_shape;
    net.layers.push_back(make_conv_family_layer(
        QLayerKind::kConv, s, co, 1, 1, 0, BitWidth::kQ8, BitWidth::kQ4,
        BitWidth::kQ8, Scheme::kPCICN, rng));
    s = net.layers.back().out_shape;
  }
  net.validate();

  const ExecutionPlan plan(net);
  mcu::DeviceSpec dev;
  dev.flash_bytes = std::int64_t{1} << 30;
  dev.ram_bytes = std::int64_t{1} << 30;
  const mcu::MemoryMap map = mcu::build_memory_map(net, dev);
  ASSERT_EQ(map.ram.size(), 2u);
  EXPECT_EQ(plan.ping8_elems(), map.ram[0].size);
  EXPECT_EQ(plan.pong8_elems(), map.ram[1].size);
  EXPECT_EQ(plan.ping8_elems(), 16 * 16 * 32);  // second depthwise output
  EXPECT_EQ(plan.pong8_elems(), 16 * 16 * 64);  // last pointwise output
  EXPECT_GT(plan.col8_elems(), 0);               // the stem's im2col tile
  EXPECT_EQ(plan.arena_bytes(), map.ram_used + 2 * kArenaU8Slack +
                                    arena_u8_padded(plan.col8_elems()));
  expect_plan_bit_exact(net, plan, "Q8 footprint workload");
}

// ---------------------------------------------------------------------------
// Plan weight memory and the raw-logits head on the GEMM panel.
// ---------------------------------------------------------------------------

/// Stem conv (row-partitioned at 2+ lanes) -> pool -> raw-logits head of
/// `classes` outputs with `qw` weights over K = 40 features. `pin_split`
/// pins the head's weight zero-points to 0 and 255 on alternate channels
/// and plants the code farthest from each, so the offsets span
/// [-255, 255]: the VNNI tier's zero-point split.
QuantizedNet head_net(BitWidth qw, std::int64_t classes, bool pin_split,
                      std::uint64_t seed) {
  Rng rng(seed);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  Shape s(1, 12, 12, 3);
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kConv, s, 40, 3, 1, 1, BitWidth::kQ8, BitWidth::kQ4,
      BitWidth::kQ8, Scheme::kPCICN, rng, 1e-4, 0.02));
  s = net.layers.back().out_shape;
  net.layers.push_back(make_conv_family_layer(
      QLayerKind::kGlobalAvgPool, s, 0, 1, 1, 0, BitWidth::kQ8,
      BitWidth::kQ8, BitWidth::kQ8, Scheme::kPCICN, rng));
  s = net.layers.back().out_shape;
  QLayer head = make_conv_family_layer(QLayerKind::kLinear, s, classes, 1, 1,
                                       0, BitWidth::kQ8, qw, BitWidth::kQ8,
                                       Scheme::kPCICN, rng);
  head.raw_logits = true;
  for (std::int64_t c = 0; c < classes; ++c) {
    head.out_mult.push_back(rng.uniform(1e-5, 0.02));
  }
  if (pin_split) {
    const std::int64_t per = head.wshape.per_channel();
    for (std::int64_t oc = 0; oc < classes; ++oc) {
      const bool low = oc % 2 == 0;
      head.zw[static_cast<std::size_t>(oc)] = low ? 0 : 255;
      head.weights.set(oc * per, low ? 255 : 0);
    }
  }
  net.layers.push_back(std::move(head));
  net.validate();
  return net;
}

/// A raw-logits head over 20000 features: 20000 * 255 * 255 > 2^30, so its
/// fan-in fails the acc32 proof.
QuantizedNet wide_head_net() {
  Rng rng(34);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  QLayer head = make_conv_family_layer(QLayerKind::kLinear, Shape(1, 50, 50, 8),
                                       3, 1, 1, 0, BitWidth::kQ8, BitWidth::kQ8,
                                       BitWidth::kQ8, Scheme::kPCICN, rng);
  head.raw_logits = true;
  for (int c = 0; c < 3; ++c) head.out_mult.push_back(1e-6 * (c + 1));
  net.layers.push_back(std::move(head));
  net.validate();
  return net;
}

/// Tiered MAC layers read only their panels, so the compiled plan keeps
/// no INT32 bank for them -- the head included when its fan-in passes
/// acc32 -- and the 37-class head net's panels stay below one INT32 bank.
TEST(PlanWeights, TieredLayersHoldOnlyTheirPanels) {
  for (const std::uint64_t seed : {9090u, 9191u, 9292u}) {
    const QuantizedNet nets[] = {random_net(8, 8, 3, 1, 1, seed),
                                 head_net(BitWidth::kQ8, 37, true, seed)};
    for (std::size_t n = 0; n < 2; ++n) {
      const QuantizedNet& net = nets[n];
      const ExecutionPlan plan(net);
      std::int64_t weight_count = 0;
      for (std::size_t i = 0; i < net.layers.size(); ++i) {
        const QLayer& l = net.layers[i];
        if (l.kind == QLayerKind::kGlobalAvgPool) continue;
        weight_count += l.weights_numel();
        const PlannedLayer& pl = plan.layers()[i];
        ASSERT_TRUE(pl.acc32) << "layer " << i;
        EXPECT_NE(pl.tier, KernelTier::kNone) << "layer " << i;
        EXPECT_TRUE(pl.w.empty()) << "layer " << i;
        EXPECT_TRUE(pl.wt.empty()) << "layer " << i;
      }
      if (n == 1) {
        // Wide enough that panel padding (co_pad, kp) stays below the
        // 4-byte bank an INT32 plan would hold; the tiny random net's
        // layers are not.
        EXPECT_LT(plan.weight_bytes(), 4 * weight_count);
      }
      expect_plan_bit_exact(net, plan, "seed " + std::to_string(seed));
    }
  }
}

TEST(PlanWeights, WeightBytesCountsEveryBank) {
  // A tiered net (panels and s16 banks) and an int64 head (INT32 bank).
  const QuantizedNet nets[] = {random_net(9, 7, 3, 2, 1, 4242),
                               wide_head_net()};
  for (const QuantizedNet& net : nets) {
    const ExecutionPlan plan(net);
    std::int64_t expect = 0;
    for (const PlannedLayer& pl : plan.layers()) {
      expect += static_cast<std::int64_t>(
          4 * (pl.w.size() + pl.wt.size()) + pl.w8.size() +
          2 * (pl.w16.size() + pl.wt16.size() + pl.wt16p.size()));
    }
    EXPECT_EQ(plan.weight_bytes(), expect);
    EXPECT_GT(plan.weight_bytes(), 0);
  }
}

/// A head whose fan-in fails the acc32 proof keeps its INT32 bank and the
/// int64 dots over its u8 input.
TEST(PlanWeights, WideFanInHeadKeepsInt32Bank) {
  const QuantizedNet net = wide_head_net();
  const ExecutionPlan plan(net);
  const PlannedLayer& pl = plan.layers().front();
  EXPECT_FALSE(pl.acc32);
  EXPECT_EQ(pl.tier, KernelTier::kNone);
  EXPECT_EQ(pl.w.size(), static_cast<std::size_t>(20000 * 3));
  EXPECT_TRUE(pl.w8.empty());
  expect_plan_bit_exact(net, plan, "wide head");
}

/// The head rides the VNNI panel under kForce: a Q4 head (offsets fit s8)
/// and a Q8 head whose zero-points 0 and 255 force the zero-point split.
TEST(PlanHead, ForcedVnniHeadIsBitExact) {
  if (!vnni_runnable()) {
    GTEST_SKIP() << "native AVX-512 VNNI build on a host without the "
                    "instructions";
  }
  for (const bool q8 : {false, true}) {
    const QuantizedNet net =
        head_net(q8 ? BitWidth::kQ8 : BitWidth::kQ4, 37, q8, 4100);
    PlanOptions opts;
    opts.vnni = PlanOptions::Vnni::kForce;
    const ExecutionPlan plan(net, opts);
    const PlannedLayer& head = plan.layers().back();
    EXPECT_EQ(head.tier, KernelTier::kVnni);
    EXPECT_EQ(head.zp_split.empty(), !q8);
    EXPECT_TRUE(head.w.empty());
    expect_plan_bit_exact(net, plan, q8 ? "vnni q8 head (split)"
                                        : "vnni q4 head");
  }
}

/// A fixed tile blocked in K and N splits the head's GEMM into K-partial
/// sums and channel chunks; each chunk's logits must still be exact, on
/// every tier this host can run.
TEST(PlanHead, KAndNBlockedHeadIsBitExact) {
  const QuantizedNet net = head_net(BitWidth::kQ8, 37, true, 4200);
  for (const auto vnni : {PlanOptions::Vnni::kOff, PlanOptions::Vnni::kForce}) {
    if (vnni == PlanOptions::Vnni::kForce && !vnni_runnable()) continue;
    for (const bool over_s8 : {false, true}) {
      QuantizedNet variant = net;
      if (!over_s8) {
        // Q8 codes around Zw = 128 with |w - Zw| <= 60: fits s8 and the
        // s8 panel's pair bound (120 * 255 <= 32767).
        QLayer& h = variant.layers.back();
        h.zw.assign(h.zw.size(), 128);
        Rng rng(4201);
        for (std::int64_t i = 0; i < h.weights.numel(); ++i) {
          h.weights.set(i, static_cast<std::uint32_t>(
                               68 + rng.uniform_int(121)));
        }
      }
      PlanOptions opts;
      opts.vnni = vnni;
      opts.autotune = PlanOptions::Autotune::kFixed;
      opts.fixed_tile = TileConfig{5, 8, 16};
      const ExecutionPlan plan(variant, opts);
      const PlannedLayer& head = plan.layers().back();
      const std::string label =
          std::string(vnni == PlanOptions::Vnni::kForce ? "vnni " : "off ") +
          tier_name(head.tier);
      ASSERT_NE(head.tier, KernelTier::kNone) << label;
      if (vnni == PlanOptions::Vnni::kOff) {
        EXPECT_EQ(head.tier,
                  over_s8 ? KernelTier::kU8S16 : KernelTier::kS8Panel);
      }
      EXPECT_GT(head.tile.kb, 0) << label;
      EXPECT_LT(head.tile.kb, head.kp) << label;
      EXPECT_GT(head.tile.nb, 0) << label;
      EXPECT_LT(head.tile.nb, head.co_pad) << label;
      expect_plan_bit_exact(variant, plan, label + " K/N-blocked head");
    }
  }
}

/// run_into over a pool partitions the stem's rows; the head's logits
/// must not depend on the lane count.
TEST(PlanHead, PooledRunIsBitExactAtEveryLaneCount) {
  const QuantizedNet net = head_net(BitWidth::kQ8, 37, true, 4300);
  Executor exec(net);
  Rng rng(4301);
  FloatTensor img(net.layers.front().in_shape);
  rng.fill_uniform(img.vec(), -0.2, 1.2);
  const QInferenceResult ref = exec.run(img);
  const ExecutionPlan plan(net);
  ASSERT_NE(plan.layers().back().tier, KernelTier::kNone);
  for (const int lanes : {1, 2, 4}) {
    ThreadPool pool(lanes);
    PlanArenas arenas(plan, lanes);
    const std::vector<float>& got = plan.run_into(img.data(), arenas, pool);
    ASSERT_EQ(got.size(), ref.logits.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], ref.logits[i]) << lanes << " lanes, logit " << i;
    }
  }
}

/// Depthwise border windows are looked up by all four bounds. With a
/// kernel side above 255 the windows (1, 257) and (0, 257) of the first
/// two output rows used to share one 8-bit-field key, so row 0 took row
/// 1's pre-add. An input held at Zx makes every correct sum exactly bq,
/// so a pre-add from the wrong window shows as a shift of Zx * (a row of
/// offset weights) instead of drowning in clamped codes.
TEST(PlanDomain, BorderWindowsStayDistinctBeyond255Taps) {
  Rng rng(101);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  QLayer dw = make_conv_family_layer(
      QLayerKind::kDepthwise, Shape(1, 257, 257, 4), 4, 257, 1, 1,
      BitWidth::kQ8, BitWidth::kQ2, BitWidth::kQ8, Scheme::kPCICN, rng,
      1e-3, 1e-2);
  dw.zx = 128;
  net.layers.push_back(std::move(dw));
  net.validate();
  Executor exec(net);
  FloatTensor at_zx(net.layers.front().in_shape);
  std::fill(at_zx.vec().begin(), at_zx.vec().end(), 128.0f / 255.0f);
  FloatTensor noisy(net.layers.front().in_shape);
  rng.fill_uniform(noisy.vec(), 0.4, 0.6);
  const QInferenceResult ref_zx = exec.run(at_zx);
  const QInferenceResult ref_noisy = exec.run(noisy);
  for (const auto vnni : {PlanOptions::Vnni::kOff, PlanOptions::Vnni::kForce}) {
    if (vnni == PlanOptions::Vnni::kForce && !vnni_runnable()) continue;
    PlanOptions opts;
    opts.vnni = vnni;
    const ExecutionPlan plan(net, opts);
    const PlannedLayer& pl = plan.layers().front();
    const std::string label =
        vnni == PlanOptions::Vnni::kForce ? "vnni" : "off";
    ASSERT_NE(pl.tier, KernelTier::kNone) << label;
    ASSERT_TRUE(pl.rq.usable) << label;
    const QInferenceResult got_zx = plan.run(at_zx);
    const QInferenceResult got_noisy = plan.run(noisy);
    ASSERT_EQ(got_zx.logits.size(), 36u);
    for (std::size_t i = 0; i < 36; ++i) {
      EXPECT_EQ(got_zx.logits[i], ref_zx.logits[i])
          << label << " input at Zx, output " << i;
      EXPECT_EQ(got_noisy.logits[i], ref_noisy.logits[i])
          << label << " noisy input, output " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch and shape checks of both runners.
// ---------------------------------------------------------------------------

TEST(PlanExecutor, ReferenceBatchMatchesPlanPerSample) {
  const QuantizedNet net = random_net(7, 7, 3, 1, 1, 888);
  const ExecutionPlan plan(net);
  const Shape& in = net.layers.front().in_shape;
  Rng rng(17);
  FloatTensor batch(Shape(4, in.h, in.w, in.c));
  rng.fill_uniform(batch.vec(), 0.0, 1.0);

  const auto ref_results = Executor(net).run_batch(batch);
  ASSERT_EQ(ref_results.size(), 4u);
  for (std::size_t n = 0; n < 4; ++n) {
    const QInferenceResult planned =
        plan.run_sample(batch.data() + static_cast<std::int64_t>(n) *
                                           in.numel());
    ASSERT_EQ(ref_results[n].logits.size(), planned.logits.size());
    for (std::size_t i = 0; i < planned.logits.size(); ++i) {
      ASSERT_EQ(ref_results[n].logits[i], planned.logits[i])
          << "sample " << n << " logit " << i;
    }
    EXPECT_EQ(ref_results[n].predicted, planned.predicted);
  }
}

TEST(PlanExecutor, RunBatchRejectsMismatchedSampleShape) {
  const QuantizedNet net = random_net(8, 8, 3, 1, 1, 321);
  Executor exec(net);
  FloatTensor bad(Shape(2, 3, 3, 1));
  EXPECT_THROW(exec.run_batch(bad), std::invalid_argument);
}

TEST(PlanExecutor, PlanRunRejectsBatchGreaterThanOne) {
  const QuantizedNet net = random_net(8, 8, 3, 1, 1, 654);
  const ExecutionPlan plan(net);
  const Shape& in = net.layers.front().in_shape;
  FloatTensor two(Shape(2, in.h, in.w, in.c));
  EXPECT_THROW(plan.run(two), std::invalid_argument);
}

}  // namespace
}  // namespace mixq::runtime
