// Property-based tests of the memory-driven planner on randomly generated
// stacked architectures: for any network and any budget,
//   (P1) a reported-feasible plan satisfies Eq. 6 and Eq. 7 exactly;
//   (P2) the input tensor precision is never cut;
//   (P3) enlarging a budget never increases the number of cuts;
//   (P4) precisions only move downward from 8 bit and never below Q_min;
//   (P5) planning is deterministic.
#include <gtest/gtest.h>

#include "core/bit_allocation.hpp"
#include "tensor/rng.hpp"

namespace mixq::core {
namespace {

NetDesc random_net(Rng& rng) {
  NetDesc net;
  const int layers = 3 + static_cast<int>(rng.uniform_int(8));
  std::int64_t hw = 16 + static_cast<std::int64_t>(rng.uniform_int(17));
  std::int64_t ch = 4 + static_cast<std::int64_t>(rng.uniform_int(13));
  std::int64_t prev_out = hw * hw * ch;
  for (int i = 0; i < layers; ++i) {
    LayerDesc l;
    l.name = "L";
    l.name += std::to_string(i);
    const bool dw = rng.uniform() < 0.3;
    const std::int64_t co =
        dw ? ch : 4 + static_cast<std::int64_t>(rng.uniform_int(29));
    const std::int64_t k = rng.uniform() < 0.5 ? 1 : 3;
    l.kind = dw ? LayerKind::kDepthwise
                : (k == 1 ? LayerKind::kPointwise : LayerKind::kConv);
    l.wshape = dw ? WeightShape(co, k, k, 1) : WeightShape(co, k, k, ch);
    if (rng.uniform() < 0.3 && hw > 2) hw /= 2;
    l.in_numel = prev_out;
    l.out_numel = hw * hw * co;
    l.macs = l.out_numel * k * k * (dw ? 1 : ch);
    prev_out = l.out_numel;
    ch = co;
    net.layers.push_back(l);
  }
  return net;
}

class AllocProperties : public ::testing::TestWithParam<int> {};

TEST_P(AllocProperties, FeasiblePlansSatisfyConstraints) {
  Rng rng(1000 + GetParam());
  const NetDesc net = random_net(rng);
  const std::vector<BitWidth> q8(net.size(), BitWidth::kQ8);
  const std::vector<BitWidth> q2(net.size(), BitWidth::kQ2);
  std::vector<BitWidth> act8(net.size() + 1, BitWidth::kQ8);

  for (double ro_frac : {0.3, 0.6, 1.1}) {
    for (double rw_frac : {0.3, 0.6, 1.1}) {
      AllocConfig cfg;
      cfg.scheme = rng.uniform() < 0.5 ? Scheme::kPCICN : Scheme::kPLICN;
      cfg.ro_budget = static_cast<std::int64_t>(
          ro_frac * static_cast<double>(net_ro_bytes(net, cfg.scheme, q8)));
      cfg.rw_budget = static_cast<std::int64_t>(
          rw_frac * static_cast<double>(net_rw_peak_bytes(net, act8)));
      const AllocResult res = plan_mixed_precision(net, cfg);

      // (P1)
      if (res.rw_satisfied) {
        EXPECT_LE(net_rw_peak_bytes(net, res.assignment.qact),
                  cfg.rw_budget);
      }
      if (res.ro_satisfied) {
        EXPECT_LE(net_ro_bytes(net, cfg.scheme, res.assignment.qw),
                  cfg.ro_budget);
      }
      // (P2)
      EXPECT_EQ(res.assignment.qact.front(), BitWidth::kQ8);
      // (P4)
      for (auto q : res.assignment.qw) {
        EXPECT_GE(bits(q), bits(cfg.q_w_min));
        EXPECT_LE(bits(q), 8);
      }
      for (auto q : res.assignment.qact) {
        EXPECT_GE(bits(q), bits(cfg.q_act_min));
      }
      // (P5)
      const AllocResult res2 = plan_mixed_precision(net, cfg);
      EXPECT_EQ(res.assignment.qw, res2.assignment.qw);
      EXPECT_EQ(res.assignment.qact, res2.assignment.qact);
      // Infeasibility is honestly reported: if the minimum possible
      // footprint exceeds the budget, feasible() must be false.
      if (net_ro_bytes(net, cfg.scheme, q2) > cfg.ro_budget) {
        EXPECT_FALSE(res.ro_satisfied);
      }
    }
  }
}

TEST_P(AllocProperties, LargerBudgetNeverMoreCuts) {
  Rng rng(5000 + GetParam());
  const NetDesc net = random_net(rng);
  const std::vector<BitWidth> q8(net.size(), BitWidth::kQ8);
  std::vector<BitWidth> act8(net.size() + 1, BitWidth::kQ8);
  const auto ro_full = net_ro_bytes(net, Scheme::kPCICN, q8);
  const auto rw_full = net_rw_peak_bytes(net, act8);

  int prev_cuts = 1 << 30;
  for (double frac : {0.4, 0.6, 0.8, 1.0}) {
    AllocConfig cfg;
    cfg.scheme = Scheme::kPCICN;
    cfg.ro_budget = static_cast<std::int64_t>(frac * double(ro_full));
    cfg.rw_budget = static_cast<std::int64_t>(frac * double(rw_full));
    const AllocResult res = plan_mixed_precision(net, cfg);
    const int cuts = res.act_cuts + res.weight_cuts;
    EXPECT_LE(cuts, prev_cuts) << "frac=" << frac;
    prev_cuts = cuts;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNets, AllocProperties, ::testing::Range(0, 12));

}  // namespace
}  // namespace mixq::core
