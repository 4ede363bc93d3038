// The central conversion claim of the paper (Section 6, Table 2): inserting
// ICN layers converts the fake-quantized graph g(x) into an integer-only
// graph g'(x) with "almost negligible" loss. Here we quantify it directly:
// integer-only logits must track the fake-quantized float graph closely,
// and the predictions must agree on almost every input.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "eval/trainer.hpp"
#include "models/small_cnn.hpp"
#include "nn/loss.hpp"
#include "runtime/convert.hpp"
#include "runtime/executor.hpp"
#include "runtime/parallel.hpp"
#include "runtime/plan.hpp"
#include "runtime/simd_vnni.hpp"
#include "support/random_qlayer.hpp"

namespace mixq::runtime {
namespace {

using core::BitWidth;
using core::Granularity;
using core::Scheme;

struct TrainedSetup {
  core::QatModel model;
  data::Dataset train, test;
};

TrainedSetup trained_setup(Granularity g, BitWidth qw, BitWidth qa,
                    std::uint64_t seed) {
  data::SyntheticSpec dspec;
  dspec.hw = 8;
  dspec.num_classes = 4;
  dspec.train_size = 192;
  dspec.test_size = 96;
  dspec.seed = seed;
  auto [train, test] = data::make_synthetic(dspec);

  Rng rng(seed + 1);
  models::SmallCnnConfig mcfg;
  mcfg.input_hw = 8;
  mcfg.base_channels = 8;
  mcfg.num_blocks = 2;
  mcfg.num_classes = 4;
  mcfg.wgran = g;
  mcfg.qw = qw;
  mcfg.qa = qa;
  TrainedSetup s{models::build_small_cnn(mcfg, &rng), std::move(train),
          std::move(test)};

  eval::TrainConfig tcfg;
  tcfg.epochs = 6;
  tcfg.batch_size = 32;
  tcfg.lr = 3e-3f;
  eval::train_qat(s.model, s.train, s.test, tcfg);
  return s;
}

class IcnExactness
    : public ::testing::TestWithParam<std::tuple<Granularity, BitWidth>> {};

TEST_P(IcnExactness, IntegerGraphTracksFakeQuantGraph) {
  const auto [gran, qw] = GetParam();
  TrainedSetup s = trained_setup(gran, qw, BitWidth::kQ4, 100 + bits(qw));
  const Scheme scheme = gran == Granularity::kPerLayer ? Scheme::kPLICN
                                                       : Scheme::kPCICN;
  const QuantizedNet qnet =
      convert_qat_model(s.model, Shape(1, 8, 8, 3), {scheme});
  Executor exec(qnet);

  const FloatTensor fake_logits = s.model.forward(s.test.images, false);
  const auto fake_pred = nn::argmax_classes(fake_logits);
  const auto int_results = exec.run_batch(s.test.images);

  int agree = 0;
  for (std::size_t i = 0; i < int_results.size(); ++i) {
    if (int_results[i].predicted == fake_pred[i]) ++agree;
  }
  // Paper reports a 0.05-0.3% accuracy delta between g and g'; on 96
  // samples we allow a handful of disagreements (integer GAP flooring is
  // the main residual difference).
  EXPECT_GE(agree, static_cast<int>(int_results.size()) - 5)
      << "integer-only and fake-quantized graphs diverge";
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndWidths, IcnExactness,
    ::testing::Combine(::testing::Values(Granularity::kPerLayer,
                                         Granularity::kPerChannel),
                       ::testing::Values(BitWidth::kQ8, BitWidth::kQ4)));

TEST(IcnExactness, ThresholdDeploymentBitExactWithIcn) {
  // PC+Thresholds and PC+ICN must be *identical* deployments (Table 1
  // compares their memory only; the function is the same).
  TrainedSetup s = trained_setup(Granularity::kPerChannel, BitWidth::kQ4,
                          BitWidth::kQ4, 777);
  const QuantizedNet icn_net =
      convert_qat_model(s.model, Shape(1, 8, 8, 3), {Scheme::kPCICN});
  const QuantizedNet thr_net =
      convert_qat_model(s.model, Shape(1, 8, 8, 3), {Scheme::kPCThresholds});
  Executor icn_exec(icn_net), thr_exec(thr_net);
  const auto icn_res = icn_exec.run_batch(s.test.images);
  const auto thr_res = thr_exec.run_batch(s.test.images);
  for (std::size_t i = 0; i < icn_res.size(); ++i) {
    ASSERT_EQ(icn_res[i].predicted, thr_res[i].predicted) << "sample " << i;
    for (std::size_t k = 0; k < icn_res[i].logits.size(); ++k) {
      ASSERT_FLOAT_EQ(icn_res[i].logits[k], thr_res[i].logits[k]);
    }
  }
}

TEST(IcnExactness, IntegerAccuracyCloseToFakeQuantAccuracy) {
  TrainedSetup s = trained_setup(Granularity::kPerChannel, BitWidth::kQ4,
                          BitWidth::kQ4, 555);
  const double fake_acc = eval::evaluate_fake_quant(s.model, s.test);
  const QuantizedNet qnet =
      convert_qat_model(s.model, Shape(1, 8, 8, 3), {Scheme::kPCICN});
  const double int_acc = eval::evaluate_integer(qnet, s.test);
  EXPECT_NEAR(int_acc, fake_acc, 0.08);
}

// ---------------------------------------------------------------------------
// Randomized cross product: the compiled ExecutionPlan must be bit-exact
// with the reference executor on random depthwise-separable chains with
// *mixed* 2/4/8-bit widths per layer (the deployment configuration the
// paper's memory-driven allocator emits) and on random raw-logit heads,
// under every plan option and lane count it can run with.
// ---------------------------------------------------------------------------

using test_support::random_width;

/// A random depthwise (3x3, pad 1) or pointwise layer with the given
/// geometry and precisions; quantization parameters come from the shared
/// helper.
QLayer random_chain_layer(QLayerKind kind, Shape in_shape, std::int64_t co,
                          BitWidth qx, BitWidth qw, BitWidth qy,
                          Scheme scheme, Rng& rng) {
  QLayer l;
  l.kind = kind;
  l.qx = qx;
  l.qw = qw;
  l.qy = qy;
  l.in_shape = in_shape;
  const bool depthwise = kind == QLayerKind::kDepthwise;
  // Depthwise 3x3 stride 1 pad 1 keeps HxW; pointwise is 1x1.
  const std::int64_t k = depthwise ? 3 : 1;
  l.spec.kh = l.spec.kw = k;
  l.spec.stride = 1;
  l.spec.pad = depthwise ? 1 : 0;
  l.out_shape = Shape(in_shape.n, in_shape.h, in_shape.w, co);
  l.wshape = depthwise ? WeightShape(co, k, k, 1)
                       : WeightShape(co, k, k, in_shape.c);
  l.zy = static_cast<std::int32_t>(rng.uniform_int(core::levels(qy)));
  // One ICN multiplier in five is negative (a BN fold with gamma < 0).
  test_support::fill_random_quant_params(l, scheme, rng, 1e-4, 0.05,
                                         /*neg_prob=*/0.2);
  return l;
}

/// Appends a raw-logits linear head of `classes` outputs to `net`.
void add_random_head(QuantizedNet& net, Shape in_shape, BitWidth qx,
                     BitWidth qw, std::int64_t classes, Rng& rng) {
  QLayer head = test_support::make_conv_family_layer(
      QLayerKind::kLinear, in_shape, classes, 1, 1, 0, qx, qw, BitWidth::kQ8,
      Scheme::kPCICN, rng);
  head.raw_logits = true;
  for (std::int64_t c = 0; c < classes; ++c) {
    head.out_mult.push_back(rng.uniform(1e-5, 0.02));
  }
  net.layers.push_back(std::move(head));
}

/// The VNNI kernels run here unless this is a native VNNI build on a host
/// without the instructions.
bool vnni_runnable() {
  return !(simd::vnni_compiled() && !simd::vnni_cpu());
}

/// Worker pools shared by every case of this binary.
ThreadPool& lanes_pool(int lanes) {
  static ThreadPool two(2);
  static ThreadPool four(4);
  return lanes == 2 ? two : four;
}

/// Compiles `net` under vnni (off, and force where it can run) x autotune
/// (analytic, probe, and two fixed tiles) and runs each plan serially and
/// pooled at 2 and 4 lanes, on an all-maximum input (MACs at their proven
/// extremes) and a random one. Every run must equal the reference
/// executor's logits by integer equality.
void expect_plan_cross_product_exact(const QuantizedNet& net, Rng& rng,
                                     const std::string& label) {
  const Executor ref(net);
  std::vector<FloatTensor> images(2, FloatTensor(net.layers.front().in_shape));
  std::fill(images[0].vec().begin(), images[0].vec().end(), 2.0f);
  rng.fill_uniform(images[1].vec(), -0.1, 1.1);
  std::vector<QInferenceResult> expect;
  for (const FloatTensor& img : images) expect.push_back(ref.run(img));

  for (const auto vnni : {PlanOptions::Vnni::kOff, PlanOptions::Vnni::kForce}) {
    if (vnni == PlanOptions::Vnni::kForce && !vnni_runnable()) continue;
    for (int config = 0; config < 4; ++config) {
      PlanOptions opts;
      opts.vnni = vnni;
      opts.autotune = config == 0   ? PlanOptions::Autotune::kAnalytic
                      : config == 1 ? PlanOptions::Autotune::kProbe
                                    : PlanOptions::Autotune::kFixed;
      // Blocked in K and N; then odd tile rows, with nb = 48 leaving
      // three-block channel chunks.
      opts.fixed_tile =
          config == 2 ? TileConfig{5, 8, 16} : TileConfig{7, 12, 48};
      const ExecutionPlan plan(net, opts);
      for (const int lanes : {1, 2, 4}) {
        PlanArenas arenas(plan, lanes);
        const std::string where =
            label + (vnni == PlanOptions::Vnni::kForce ? " vnni" : " off") +
            " config " + std::to_string(config) + ", " +
            std::to_string(lanes) + " lane(s)";
        for (std::size_t i = 0; i < images.size(); ++i) {
          const std::vector<float>& got =
              lanes == 1 ? plan.run_into(images[i].data(), arenas)
                         : plan.run_into(images[i].data(), arenas,
                                         lanes_pool(lanes));
          ASSERT_EQ(got.size(), expect[i].logits.size()) << where;
          for (std::size_t k = 0; k < got.size(); ++k) {
            ASSERT_EQ(got[k], expect[i].logits[k])
                << where << ", image " << i << ", output " << k;
          }
        }
      }
    }
  }
}

class PlanCrossProductExactness : public ::testing::TestWithParam<int> {};

/// dw -> pw -> dw -> pw on a 16x16 map of `channels` input channels, with
/// independently random 2/4/8-bit weight and activation widths at every
/// boundary; odd trials end in a raw-logits head, even trials return the
/// final codes and give the first layer Q8 weights. 16x16 maps put every
/// layer over the row-partitioning MAC threshold, so the pooled runs
/// split each of them.
QuantizedNet random_chain_net(int trial, std::int64_t channels, Rng& rng) {
  const Scheme schemes[] = {Scheme::kPLICN, Scheme::kPCICN,
                            Scheme::kPCThresholds};
  QuantizedNet net;
  BitWidth qx = random_width(rng);
  net.input_qp = core::make_quant_params(0.0f, 1.0f, qx);
  Shape shape(1, 16, 16, channels);

  const QLayerKind kinds[] = {QLayerKind::kDepthwise, QLayerKind::kConv,
                              QLayerKind::kDepthwise, QLayerKind::kConv};
  for (int li = 0; li < 4; ++li) {
    const QLayerKind kind = kinds[li];
    const std::int64_t co =
        kind == QLayerKind::kDepthwise ? shape.c
                                       : 8 + static_cast<std::int64_t>(
                                                 rng.uniform_int(8));
    const BitWidth qw =
        li == 0 && trial % 2 == 0 ? BitWidth::kQ8 : random_width(rng);
    const BitWidth qy = random_width(rng);
    const Scheme scheme = schemes[rng.uniform_int(3)];
    net.layers.push_back(
        random_chain_layer(kind, shape, co, qx, qw, qy, scheme, rng));
    shape = net.layers.back().out_shape;
    qx = qy;
  }
  if (trial % 2 == 1) {
    add_random_head(net, shape, qx, random_width(rng), 4, rng);
  }
  net.validate();
  return net;
}

TEST_P(PlanCrossProductExactness, MixedPrecisionChainBitExact) {
  const int trial = GetParam();
  Rng rng(static_cast<std::uint64_t>(4200 + trial));
  const QuantizedNet net = random_chain_net(trial, 16, rng);
  expect_plan_cross_product_exact(net, rng,
                                  "chain trial " + std::to_string(trial));
}

TEST_P(PlanCrossProductExactness, ChannelTailChainBitExact) {
  // 8 and 24 input channels (the first layers of MobileNetV1 at widths
  // 0.25 and 0.75): the first depthwise layer runs its C % 16 channels
  // through the VNNI kernel's masked tail step.
  const int trial = GetParam();
  for (const std::int64_t channels : {std::int64_t{8}, std::int64_t{24}}) {
    Rng rng(static_cast<std::uint64_t>(5300 + 100 * channels + trial));
    const QuantizedNet net = random_chain_net(trial, channels, rng);
    expect_plan_cross_product_exact(
        net, rng,
        "chain trial " + std::to_string(trial) + " C=" +
            std::to_string(channels));
  }
}

TEST_P(PlanCrossProductExactness, OddMapChainBitExact) {
  // A 3x3 stride-2 stem of 24 channels over a 13x13 or 17x17 input (7x7
  // and 9x9 maps: no layer's row count is a multiple of 4), then
  // dw -> pw -> dw -> pw with pointwise widths drawn from 17-80 (2-5
  // sixteen-channel blocks, most with a channel tail). Even trials give the
  // stem Q8 weights, odd ones the first pointwise layer, and odd trials
  // end in a raw-logits head.
  const int trial = GetParam();
  const Scheme schemes[] = {Scheme::kPLICN, Scheme::kPCICN,
                            Scheme::kPCThresholds};
  for (const std::int64_t in_hw : {std::int64_t{13}, std::int64_t{17}}) {
    Rng rng(static_cast<std::uint64_t>(8100 + 100 * in_hw + trial));
    QuantizedNet net;
    BitWidth qx = random_width(rng);
    net.input_qp = core::make_quant_params(0.0f, 1.0f, qx);
    BitWidth qy = random_width(rng);
    net.layers.push_back(test_support::make_conv_family_layer(
        QLayerKind::kConv, Shape(1, in_hw, in_hw, 3), 24, 3, 2, 1, qx,
        trial % 2 == 0 ? BitWidth::kQ8 : random_width(rng), qy,
        schemes[rng.uniform_int(3)], rng));
    Shape shape = net.layers.back().out_shape;
    qx = qy;
    for (int li = 0; li < 4; ++li) {
      const bool dw = li % 2 == 0;
      const std::int64_t co =
          dw ? shape.c : 17 + static_cast<std::int64_t>(rng.uniform_int(64));
      const BitWidth qw =
          li == 1 && trial % 2 == 1 ? BitWidth::kQ8 : random_width(rng);
      qy = random_width(rng);
      net.layers.push_back(random_chain_layer(
          dw ? QLayerKind::kDepthwise : QLayerKind::kConv, shape, co, qx, qw,
          qy, schemes[rng.uniform_int(3)], rng));
      shape = net.layers.back().out_shape;
      qx = qy;
    }
    if (trial % 2 == 1) {
      add_random_head(net, shape, qx, random_width(rng), 4, rng);
    }
    net.validate();
    expect_plan_cross_product_exact(
        net, rng,
        "odd-map trial " + std::to_string(trial) + " in " +
            std::to_string(in_hw) + "x" + std::to_string(in_hw));
  }
}

TEST_P(PlanCrossProductExactness, RandomHeadBitExact) {
  // Batch-1 nets of one random mixed-width raw-logits head; the first of
  // each trial has Q8 weights.
  Rng rng(static_cast<std::uint64_t>(9100 + GetParam()));
  for (int h = 0; h < 6; ++h) {
    const BitWidth qx = random_width(rng);
    const BitWidth qw = h == 0 ? BitWidth::kQ8 : random_width(rng);
    const std::int64_t features =
        4 + static_cast<std::int64_t>(rng.uniform_int(12));
    const std::int64_t classes =
        2 + static_cast<std::int64_t>(rng.uniform_int(6));
    QuantizedNet net;
    net.input_qp = core::make_quant_params(0.0f, 1.0f, qx);
    add_random_head(net, Shape(1, 1, 1, features), qx, qw, classes, rng);
    net.validate();
    expect_plan_cross_product_exact(
        net, rng,
        "head trial " + std::to_string(GetParam()) + "." + std::to_string(h) +
            " qx=" + std::to_string(core::bits(qx)) +
            " qw=" + std::to_string(core::bits(qw)));
  }
}

/// An 8/8-bit ICN layer at stride 1 with mid-scale zero-points and
/// multipliers in [3e-5, 1e-4]: at fan-ins near 16,500 its codes spread
/// over tens of levels around 128 (see centre_zero_points).
QLayer q8_layer(QLayerKind kind, Shape in_shape, std::int64_t co,
                std::int64_t k, std::int64_t pad, Rng& rng) {
  QLayer l = test_support::make_conv_family_layer(
      kind, in_shape, co, k, 1, pad, BitWidth::kQ8, BitWidth::kQ8,
      BitWidth::kQ8, Scheme::kPCICN, rng, 3e-5, 1e-4);
  test_support::centre_zero_points(l);
  return l;
}

TEST_P(PlanCrossProductExactness, WideFanInChainBitExact) {
  // 8/8-bit layers whose fan-in * 255 * 255 exceeds 2^30 fail acc32 and
  // run the int64 loops on u8 codes. trial % 4 picks a 3x3 conv over
  // 1,835 channels, a 129x129-tap depthwise (its centre pixel interior,
  // the rest border), a linear layer of fan-in 16,513, or a raw-logits
  // head of that fan-in behind a tiered layer that widens 4 channels to
  // it; the others feed a tiered layer.
  const int trial = GetParam();
  Rng rng(static_cast<std::uint64_t>(6100 + trial));
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  std::size_t wide = 0;  // the layer that must fail acc32
  switch (trial % 4) {
    case 0:
      net.layers.push_back(
          q8_layer(QLayerKind::kConv, Shape(1, 3, 3, 1835), 4, 3, 1, rng));
      break;
    case 1:
      net.layers.push_back(q8_layer(QLayerKind::kDepthwise,
                                    Shape(1, 129, 129, 2), 2, 129, 1, rng));
      break;
    case 2:
      net.layers.push_back(
          q8_layer(QLayerKind::kLinear, Shape(1, 1, 1, 16513), 8, 1, 0, rng));
      break;
    default:
      net.layers.push_back(random_chain_layer(
          QLayerKind::kConv, Shape(1, 1, 1, 4), 16513, BitWidth::kQ8,
          BitWidth::kQ8, BitWidth::kQ8, Scheme::kPCICN, rng));
      wide = 1;
      break;
  }
  const Shape s = net.layers.back().out_shape;
  if (trial % 4 >= 2) {
    add_random_head(net, s, BitWidth::kQ8,
                    trial % 4 == 3 ? BitWidth::kQ8 : random_width(rng), 4,
                    rng);
  } else {
    net.layers.push_back(random_chain_layer(
        QLayerKind::kConv, s, 5, BitWidth::kQ8, random_width(rng),
        random_width(rng), Scheme::kPCICN, rng));
  }
  net.validate();
  const ExecutionPlan plan(net);
  ASSERT_FALSE(plan.layers()[wide].acc32);
  ASSERT_EQ(plan.layers()[wide].tier, KernelTier::kNone);
  ASSERT_NE(plan.layers()[1 - wide].tier, KernelTier::kNone);
  expect_plan_cross_product_exact(
      net, rng, "wide fan-in trial " + std::to_string(trial));
}

/// Sets every channel of an 8/8-bit ICN layer so the plan must refuse its
/// vector requant table: |bq| + phi_bound > INT32_MAX. With phi_bound
/// just under 2^30, a multiplier near 255 / 2^31 and Zy = 0, phi + bq
/// still spans the code range; odd channels negate bq and the multiplier.
/// One code is then about 2^23 of phi, so these chains check the routing
/// coarsely; the threshold-scheme chains check the same scalar epilogue
/// to the unit.
void refuse_requant_table(QLayer& l, Rng& rng) {
  const std::int64_t bound =
      core::phi_bound(l.wshape.per_channel(), l.qx, l.qw);
  l.zy = 0;
  for (std::size_t c = 0; c < l.icn.size(); ++c) {
    const std::int64_t sign = c % 2 == 0 ? 1 : -1;
    const std::int64_t bq = std::int64_t{2147483647} - bound + 1 +
                            static_cast<std::int64_t>(rng.uniform_int(1000));
    l.icn[c].bq = static_cast<std::int32_t>(sign * bq);
    l.icn[c].m = core::decompose_multiplier(
        static_cast<double>(sign) * rng.uniform(0.9, 1.1) * 255.0 /
        2147483648.0);
  }
}

TEST_P(PlanCrossProductExactness, RefusedRequantTableChainBitExact) {
  // ICN layers whose vector table is refused keep their kernel tier and
  // requantize through the scalar epilogue: even trials a 3x3 conv over
  // 1,834 channels, odd trials a 128x128-tap depthwise (interior and
  // border pixels), both at 8/8 bits and still acc32; a vector-epilogue
  // pointwise layer reads their codes.
  const int trial = GetParam();
  Rng rng(static_cast<std::uint64_t>(7100 + trial));
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  // Random zero-points: phi's systematic part then spreads the codes.
  QLayer l = test_support::make_conv_family_layer(
      trial % 2 == 0 ? QLayerKind::kConv : QLayerKind::kDepthwise,
      trial % 2 == 0 ? Shape(1, 3, 3, 1834) : Shape(1, 129, 129, 2),
      trial % 2 == 0 ? 4 : 2, trial % 2 == 0 ? 3 : 128, 1, 1, BitWidth::kQ8,
      BitWidth::kQ8, BitWidth::kQ8, Scheme::kPCICN, rng);
  refuse_requant_table(l, rng);
  const Shape s = l.out_shape;
  net.layers.push_back(std::move(l));
  net.layers.push_back(random_chain_layer(
      QLayerKind::kConv, s, 5, BitWidth::kQ8, random_width(rng),
      random_width(rng), Scheme::kPCICN, rng));
  net.validate();
  const ExecutionPlan plan(net);
  const PlannedLayer& refused = plan.layers().front();
  ASSERT_TRUE(refused.acc32);
  ASSERT_NE(refused.tier, KernelTier::kNone);
  ASSERT_FALSE(refused.rq.usable);
  ASSERT_TRUE(plan.layers().back().rq.usable);
  expect_plan_cross_product_exact(
      net, rng, "refused table trial " + std::to_string(trial));
}

INSTANTIATE_TEST_SUITE_P(RandomTrials, PlanCrossProductExactness,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace mixq::runtime
