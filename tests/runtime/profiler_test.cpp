#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/executor.hpp"
#include "runtime/profiler.hpp"

namespace mixq::runtime {
namespace {

using core::Granularity;
using core::Scheme;

TEST(Profiler, MacsMatchArchitectureMetadata) {
  // The deployed image's statically profiled MACs must equal the NetDesc
  // metadata the planner and cycle model use -- the two accounting paths
  // may not drift.
  Rng rng(1);
  models::SmallCnnConfig cfg;
  cfg.input_hw = 16;
  cfg.base_channels = 8;
  cfg.num_blocks = 3;
  cfg.num_classes = 5;
  cfg.wgran = Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  const auto desc = models::small_cnn_desc(cfg);
  const QuantizedNet net =
      convert_qat_model(model, Shape(1, 16, 16, 3), {Scheme::kPCICN});
  const NetProfile prof = profile(net);
  EXPECT_EQ(prof.total_macs, desc.total_macs());
}

TEST(Profiler, RoAndRwMatchQuantizedNetAccessors) {
  Rng rng(2);
  models::SmallCnnConfig cfg;
  cfg.input_hw = 8;
  cfg.base_channels = 4;
  cfg.num_blocks = 1;
  cfg.num_classes = 3;
  cfg.wgran = Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  const QuantizedNet net =
      convert_qat_model(model, Shape(1, 8, 8, 3), {Scheme::kPCICN});
  const NetProfile prof = profile(net);
  EXPECT_EQ(prof.total_ro_bytes, net.ro_bytes());
  // Executor's peak excludes the head's output; profiler counts all pairs.
  EXPECT_GE(prof.peak_rw_bytes, net.rw_peak_bytes());
}

TEST(Profiler, PoolLayerHasNoWeightsOrMacs) {
  Rng rng(3);
  models::SmallCnnConfig cfg;
  cfg.input_hw = 8;
  cfg.base_channels = 4;
  cfg.num_blocks = 1;
  cfg.num_classes = 3;
  cfg.wgran = Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  const QuantizedNet net =
      convert_qat_model(model, Shape(1, 8, 8, 3), {Scheme::kPCICN});
  const NetProfile prof = profile(net);
  ASSERT_EQ(prof.layers.size(), 5u);
  const LayerProfile& pool = prof.layers[3];
  EXPECT_EQ(pool.kind, QLayerKind::kGlobalAvgPool);
  EXPECT_EQ(pool.macs, 0);
  EXPECT_EQ(pool.ro_bytes(), 0);
  EXPECT_GT(pool.rw_bytes(), 0);
}

TEST(Profiler, SubByteWeightsShrinkRoBytes) {
  Rng rng(4);
  models::SmallCnnConfig cfg;
  cfg.input_hw = 8;
  cfg.base_channels = 8;
  cfg.num_blocks = 2;
  cfg.wgran = Granularity::kPerChannel;
  cfg.qw = core::BitWidth::kQ8;
  auto m8 = models::build_small_cnn(cfg, &rng);
  cfg.qw = core::BitWidth::kQ2;
  Rng rng2(4);
  auto m2 = models::build_small_cnn(cfg, &rng2);
  const auto p8 = profile(
      convert_qat_model(m8, Shape(1, 8, 8, 3), {Scheme::kPCICN}));
  const auto p2 = profile(
      convert_qat_model(m2, Shape(1, 8, 8, 3), {Scheme::kPCICN}));
  EXPECT_LT(p2.total_ro_bytes, p8.total_ro_bytes);
  EXPECT_EQ(p2.total_macs, p8.total_macs);
}

// ---------------------------------------------------------------------------
// Measured attribution: profile_planned (runtime/profiler.hpp).
// ---------------------------------------------------------------------------

QuantizedNet planned_profile_net(Rng& rng) {
  models::SmallCnnConfig cfg;
  cfg.input_hw = 16;
  cfg.base_channels = 8;
  cfg.num_blocks = 2;
  cfg.num_classes = 5;
  cfg.wgran = Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  return convert_qat_model(model, Shape(1, 16, 16, 3), {Scheme::kPCICN});
}

TEST(ProfilePlanned, MacsAttributionMatchesStaticProfile) {
  // The measured profile's per-layer MAC attribution must be the static
  // qgraph accounting, layer for layer -- only the nanoseconds are
  // measured.
  Rng rng(6);
  const QuantizedNet net = planned_profile_net(rng);
  const ExecutionPlan plan(net);
  Rng img_rng(7);
  FloatTensor img(net.layers.front().in_shape);
  img_rng.fill_uniform(img.vec(), 0.0, 1.0);

  const PlannedProfile pp = profile_planned(plan, img, 3);
  const NetProfile stat = profile(net);
  ASSERT_EQ(pp.layers.size(), net.layers.size());
  ASSERT_EQ(pp.layers.size(), stat.layers.size());
  for (std::size_t i = 0; i < pp.layers.size(); ++i) {
    EXPECT_EQ(static_cast<int>(pp.layers[i].kind),
              static_cast<int>(stat.layers[i].kind))
        << "layer " << i;
    EXPECT_EQ(pp.layers[i].macs, stat.layers[i].macs) << "layer " << i;
    EXPECT_GE(pp.layers[i].ns, 0.0) << "layer " << i;
    // Tier and tile attribution mirror the plan's per-layer decisions.
    EXPECT_EQ(static_cast<int>(pp.layers[i].tier),
              static_cast<int>(plan.layers()[i].tier))
        << "layer " << i;
    EXPECT_EQ(pp.layers[i].tile.rows, plan.layers()[i].tile.rows)
        << "layer " << i;
    EXPECT_EQ(pp.layers[i].tile.kb, plan.layers()[i].tile.kb)
        << "layer " << i;
    EXPECT_EQ(pp.layers[i].tile.nb, plan.layers()[i].tile.nb)
        << "layer " << i;
  }
  EXPECT_EQ(pp.total_macs, stat.total_macs);
}

TEST(ProfilePlanned, PerLayerNsSumsToEndToEnd) {
  // total_ns is exactly quantize + the per-layer attribution: nothing the
  // engine executes falls outside the accounted stages.
  Rng rng(8);
  const QuantizedNet net = planned_profile_net(rng);
  const ExecutionPlan plan(net);
  Rng img_rng(9);
  FloatTensor img(net.layers.front().in_shape);
  img_rng.fill_uniform(img.vec(), 0.0, 1.0);

  const PlannedProfile pp = profile_planned(plan, img, 5);
  double sum = pp.quantize_ns;
  for (const auto& l : pp.layers) sum += l.ns;
  EXPECT_NEAR(pp.total_ns, sum, 1e-6 * std::max(1.0, pp.total_ns));
  EXPECT_GT(pp.total_ns, 0.0);
  EXPECT_GT(pp.total_macs_per_ns(), 0.0);
  EXPECT_GE(pp.quantize_ns, 0.0);
}

TEST(ProfilePlanned, RejectsNonPositiveIters) {
  Rng rng(10);
  const QuantizedNet net = planned_profile_net(rng);
  const ExecutionPlan plan(net);
  FloatTensor img(net.layers.front().in_shape);
  EXPECT_THROW(profile_planned(plan, img, 0), std::invalid_argument);
  EXPECT_THROW(profile_planned(plan, img, -3), std::invalid_argument);
}

TEST(ProfilePlanned, StrRendersAttribution) {
  Rng rng(11);
  const QuantizedNet net = planned_profile_net(rng);
  const ExecutionPlan plan(net);
  Rng img_rng(12);
  FloatTensor img(net.layers.front().in_shape);
  img_rng.fill_uniform(img.vec(), 0.0, 1.0);
  const PlannedProfile pp = profile_planned(plan, img, 2);
  const std::string s = pp.str();
  EXPECT_NE(s.find("MACs/ns"), std::string::npos);
  EXPECT_NE(s.find("quantize"), std::string::npos);
}

TEST(Profiler, StrRendersAllLayers) {
  Rng rng(5);
  models::SmallCnnConfig cfg;
  cfg.input_hw = 8;
  cfg.base_channels = 4;
  cfg.num_blocks = 1;
  cfg.wgran = Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  const auto prof = profile(
      convert_qat_model(model, Shape(1, 8, 8, 3), {Scheme::kPCICN}));
  const std::string s = prof.str();
  EXPECT_NE(s.find("total MACs"), std::string::npos);
  EXPECT_NE(s.find("conv"), std::string::npos);
  EXPECT_NE(s.find("pool"), std::string::npos);
}

}  // namespace
}  // namespace mixq::runtime
