#include <gtest/gtest.h>

#include "core/qat_model.hpp"
#include "models/small_cnn.hpp"

namespace mixq::core {
namespace {

TEST(QatModel, FreezeAllBnPropagates) {
  Rng rng(1);
  models::SmallCnnConfig cfg;
  cfg.num_blocks = 2;
  auto m = models::build_small_cnn(cfg, &rng);
  // Frozen BN drops its parameters from the trainable list.
  const std::size_t before = m.params().size();
  m.freeze_all_bn();
  const std::size_t after = m.params().size();
  EXPECT_LT(after, before);
  for (auto& item : m.chain) {
    if (auto* bn = item.block->bn()) {
      EXPECT_TRUE(bn->frozen());
    }
  }
}

TEST(QatModel, EnableFoldingOnlyTouchesConfiguredBlocks) {
  Rng rng(2);
  models::SmallCnnConfig cfg;
  cfg.num_blocks = 1;
  cfg.fold_bn = true;
  cfg.wgran = Granularity::kPerLayer;
  auto m = models::build_small_cnn(cfg, &rng);
  m.enable_folding();
  for (auto& item : m.chain) {
    EXPECT_EQ(item.block->folding_active(), item.block->config().fold_bn);
  }
  // The linear head never folds (no BN).
  EXPECT_FALSE(m.chain.back().block->folding_active());
}

TEST(QatModel, ZeroGradClearsEverything) {
  Rng rng(3);
  models::SmallCnnConfig cfg;
  cfg.num_blocks = 1;
  auto m = models::build_small_cnn(cfg, &rng);
  FloatTensor x(Shape(2, cfg.input_hw, cfg.input_hw, 3), 0.5f);
  const FloatTensor y = m.forward(x, true);
  FloatTensor g(y.shape(), 1.0f);
  m.backward(g);
  m.zero_grad();
  for (auto& p : m.params()) {
    for (float v : *p.grad) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(QatModel, SchemeHelpers) {
  EXPECT_EQ(granularity_of(Scheme::kPLFoldBN), Granularity::kPerLayer);
  EXPECT_EQ(granularity_of(Scheme::kPLICN), Granularity::kPerLayer);
  EXPECT_EQ(granularity_of(Scheme::kPCICN), Granularity::kPerChannel);
  EXPECT_EQ(granularity_of(Scheme::kPCThresholds), Granularity::kPerChannel);
  EXPECT_TRUE(uses_icn(Scheme::kPLICN));
  EXPECT_TRUE(uses_icn(Scheme::kPCICN));
  EXPECT_FALSE(uses_icn(Scheme::kPLFoldBN));
  EXPECT_FALSE(uses_icn(Scheme::kPCThresholds));
  EXPECT_EQ(to_string(Scheme::kPCICN), "PC+ICN");
  EXPECT_EQ(to_string(Scheme::kPLFoldBN), "PL+FB");
}

}  // namespace
}  // namespace mixq::core
