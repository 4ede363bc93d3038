#include <gtest/gtest.h>

#include "data/synthetic.hpp"

namespace mixq::data {
namespace {

TEST(Synthetic, ShapesAndRanges) {
  SyntheticSpec spec;
  spec.train_size = 64;
  spec.test_size = 32;
  auto [train, test] = make_synthetic(spec);
  EXPECT_EQ(train.size(), 64);
  EXPECT_EQ(test.size(), 32);
  EXPECT_EQ(train.images.shape(), Shape(64, 16, 16, 3));
  for (std::int64_t i = 0; i < train.images.numel(); ++i) {
    EXPECT_GE(train.images[i], 0.0f);
    EXPECT_LE(train.images[i], 1.0f);
  }
  for (auto l : train.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 10);
  }
}

TEST(Synthetic, DeterministicInSeed) {
  SyntheticSpec spec;
  spec.train_size = 16;
  spec.test_size = 8;
  auto [a_train, a_test] = make_synthetic(spec);
  auto [b_train, b_test] = make_synthetic(spec);
  for (std::int64_t i = 0; i < a_train.images.numel(); ++i) {
    ASSERT_FLOAT_EQ(a_train.images[i], b_train.images[i]);
  }
  EXPECT_EQ(a_train.labels, b_train.labels);
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticSpec a, b;
  a.train_size = b.train_size = 16;
  b.seed = a.seed + 1;
  auto [ta, _a] = make_synthetic(a);
  auto [tb, _b] = make_synthetic(b);
  int diffs = 0;
  for (std::int64_t i = 0; i < ta.images.numel(); ++i) {
    if (ta.images[i] != tb.images[i]) ++diffs;
  }
  EXPECT_GT(diffs, 100);
}

TEST(Synthetic, ClassesAreSeparable) {
  // Same-class samples must be much closer (L2) to their prototype than to
  // other classes' samples on average -- a nearest-mean classifier should
  // beat chance by a wide margin.
  SyntheticSpec spec;
  spec.num_classes = 4;
  spec.train_size = 256;
  spec.test_size = 128;
  auto [train, test] = make_synthetic(spec);
  const std::int64_t per = 16 * 16 * 3;

  // Class means from train.
  std::vector<std::vector<double>> mean(
      4, std::vector<double>(static_cast<std::size_t>(per), 0.0));
  std::vector<int> count(4, 0);
  for (std::int64_t i = 0; i < train.size(); ++i) {
    const int c = train.labels[static_cast<std::size_t>(i)];
    ++count[static_cast<std::size_t>(c)];
    for (std::int64_t j = 0; j < per; ++j) {
      mean[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)] +=
          train.images[i * per + j];
    }
  }
  for (int c = 0; c < 4; ++c) {
    for (auto& v : mean[static_cast<std::size_t>(c)]) {
      v /= std::max(1, count[static_cast<std::size_t>(c)]);
    }
  }
  // Nearest-mean classification on test.
  int correct = 0;
  for (std::int64_t i = 0; i < test.size(); ++i) {
    double best = 1e300;
    int best_c = -1;
    for (int c = 0; c < 4; ++c) {
      double d = 0.0;
      for (std::int64_t j = 0; j < per; ++j) {
        const double e = test.images[i * per + j] -
                         mean[static_cast<std::size_t>(c)]
                             [static_cast<std::size_t>(j)];
        d += e * e;
      }
      if (d < best) {
        best = d;
        best_c = c;
      }
    }
    if (best_c == test.labels[static_cast<std::size_t>(i)]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / test.size(), 0.9);
}

TEST(Synthetic, SliceAndGather) {
  SyntheticSpec spec;
  spec.train_size = 16;
  auto [train, _] = make_synthetic(spec);
  const Dataset s = train.slice(4, 4);
  EXPECT_EQ(s.size(), 4);
  EXPECT_EQ(s.labels[0], train.labels[4]);
  EXPECT_FLOAT_EQ(s.images[0], train.images[4 * 16 * 16 * 3]);
  EXPECT_THROW(static_cast<void>(train.slice(14, 4)), std::out_of_range);

  Rng rng(1);
  const auto order = epoch_order(16, rng);
  EXPECT_EQ(order.size(), 16u);
  // Permutation property.
  std::vector<bool> seen(16, false);
  for (auto i : order) seen[static_cast<std::size_t>(i)] = true;
  for (bool b : seen) EXPECT_TRUE(b);

  const Dataset g = gather(train, order, 0, 8);
  EXPECT_EQ(g.size(), 8);
  EXPECT_EQ(g.labels[0], train.labels[static_cast<std::size_t>(order[0])]);
}

TEST(Synthetic, RejectsSingleClass) {
  SyntheticSpec spec;
  spec.num_classes = 1;
  EXPECT_THROW(make_synthetic(spec), std::invalid_argument);
}

}  // namespace
}  // namespace mixq::data
