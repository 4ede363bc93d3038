// Tests for the multi-lane runners: the ThreadPool primitive
// (runtime/parallel.hpp), the registry's batch hand-out
// (serve::ModelRegistry::infer_batch) and the intra-layer row-partitioned
// ExecutionPlan::run_into. The serving contracts under test:
//   * bit-exactness: every lane count reproduces the reference kernels'
//     logits exactly (integer equality), lane partitioning included;
//   * zero steady-state allocations per worker arena (instrumented global
//     allocator, as in plan_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/parallel.hpp"
#include "runtime/plan.hpp"
#include "serve/registry.hpp"
#include "support/random_qlayer.hpp"

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

/// A serving-sized network: 16x16x8 input, pointwise-heavy so the big
/// layers clear the intra-layer partitioning threshold (>= 16k MACs).
QuantizedNet serving_net(std::uint64_t seed) {
  Rng rng(seed);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);
  Shape s(1, 16, 16, 8);
  BitWidth qx = BitWidth::kQ8;
  net.layers.push_back(make_conv_family_layer(QLayerKind::kConv, s, 16, 3, 1,
                                              1, qx, BitWidth::kQ8,
                                              BitWidth::kQ4, Scheme::kPCICN,
                                              rng));
  s = net.layers.back().out_shape;
  qx = net.layers.back().qy;
  net.layers.push_back(make_conv_family_layer(QLayerKind::kDepthwise, s, s.c,
                                              3, 2, 1, qx, BitWidth::kQ8, qx,
                                              Scheme::kPCICN, rng));
  s = net.layers.back().out_shape;
  net.layers.push_back(make_conv_family_layer(QLayerKind::kConv, s, 32, 1, 1,
                                              0, qx, BitWidth::kQ4,
                                              BitWidth::kQ4, Scheme::kPCICN,
                                              rng));
  s = net.layers.back().out_shape;
  qx = net.layers.back().qy;
  net.layers.push_back(make_conv_family_layer(QLayerKind::kGlobalAvgPool, s,
                                              0, 1, 1, 0, qx, qx, qx,
                                              Scheme::kPCICN, rng));
  s = net.layers.back().out_shape;
  QLayer head = make_conv_family_layer(QLayerKind::kLinear, s, 7, 1, 1, 0,
                                       qx, BitWidth::kQ8, BitWidth::kQ8,
                                       Scheme::kPCICN, rng);
  head.raw_logits = true;
  for (std::int64_t c = 0; c < head.wshape.co; ++c) {
    head.out_mult.push_back(rng.uniform(1e-5, 0.02));
  }
  net.layers.push_back(std::move(head));
  net.validate();
  return net;
}

void expect_same_results(const std::vector<QInferenceResult>& a,
                         const std::vector<QInferenceResult>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t n = 0; n < a.size(); ++n) {
    ASSERT_EQ(a[n].logits.size(), b[n].logits.size()) << label;
    for (std::size_t i = 0; i < a[n].logits.size(); ++i) {
      ASSERT_EQ(a[n].logits[i], b[n].logits[i])
          << label << " sample " << n << " logit " << i;
    }
    EXPECT_EQ(a[n].predicted, b[n].predicted) << label << " sample " << n;
  }
}

// ---------------------------------------------------------------------------
// ThreadPool primitive.
// ---------------------------------------------------------------------------

TEST(ThreadPool, ChunksPartitionExactly) {
  for (const int lanes : {1, 2, 3, 4, 7}) {
    for (const std::int64_t n : {0, 1, 3, 7, 8, 100}) {
      std::int64_t covered = 0;
      std::int64_t prev_end = 0;
      for (int lane = 0; lane < lanes; ++lane) {
        std::int64_t b = 0, e = 0;
        ThreadPool::chunk(n, lanes, lane, b, e);
        EXPECT_EQ(b, prev_end) << "lanes=" << lanes << " n=" << n;
        EXPECT_LE(b, e);
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(prev_end, n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.lanes(), 4);
  const std::int64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(n, [&](int lane, std::int64_t b, std::int64_t e) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, 4);
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossCallsAndSmallN) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    const std::int64_t n = 1 + round % 5;  // exercises n < lanes
    pool.parallel_for(n, [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) sum.fetch_add(i + 1);
    });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, SubsetLaneDispatchCoversEverythingOnFewerLanes) {
  // parallel_for_lanes lets a wide pool serve a narrower job without
  // respawning threads: all work lands on the first use_lanes lanes.
  ThreadPool pool(4);
  std::atomic<std::int64_t> count{0};
  std::atomic<int> max_lane{-1};
  pool.parallel_for_lanes(2, 100, [&](int lane, std::int64_t b,
                                      std::int64_t e) {
    count.fetch_add(e - b);
    int cur = max_lane.load();
    while (lane > cur && !max_lane.compare_exchange_weak(cur, lane)) {
    }
  });
  EXPECT_EQ(count.load(), 100);
  EXPECT_LE(max_lane.load(), 1);
  // Out-of-range lane counts clamp instead of failing.
  count.store(0);
  pool.parallel_for_lanes(99, 10, [&](int, std::int64_t b, std::int64_t e) {
    count.fetch_add(e - b);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](int, std::int64_t b, std::int64_t) {
                          if (b >= 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must survive a throwing job.
  std::atomic<std::int64_t> count{0};
  pool.parallel_for(8, [&](int, std::int64_t b, std::int64_t e) {
    count.fetch_add(e - b);
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, DynamicHandOutVisitsEveryIndexOnce) {
  for (const int lanes : {1, 2, 3, 4}) {
    ThreadPool pool(lanes);
    for (const std::int64_t n : {0, 1, 2, 3, 7, 100}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      for (auto& h : hits) h.store(0);
      std::atomic<int> max_lane{-1};
      pool.parallel_for_dynamic(n, [&](int lane, std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
        int cur = max_lane.load();
        while (lane > cur && !max_lane.compare_exchange_weak(cur, lane)) {
        }
      });
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "lanes=" << lanes << " n=" << n << " index " << i;
      }
      // Only the first min(n, lanes) lanes take part.
      EXPECT_LT(max_lane.load(), static_cast<int>(std::min<std::int64_t>(
                                     n, static_cast<std::int64_t>(lanes))))
          << "lanes=" << lanes << " n=" << n;
    }
  }
}

TEST(ThreadPool, DynamicHandOutSingleItemRunsOnCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran;
  int lane_seen = -1;
  pool.parallel_for_dynamic(1, [&](int lane, std::int64_t) {
    ran = std::this_thread::get_id();
    lane_seen = lane;
  });
  EXPECT_TRUE(ran == caller);
  EXPECT_EQ(lane_seen, 0);
}

TEST(ThreadPool, DynamicHandOutRoutesAroundAStalledLane) {
  // Whichever lane takes item 0 holds it until every other item is done.
  // A static split would leave half the items queued behind the stall (and
  // time out here); the hand-out lets the other lane run all of them.
  ThreadPool pool(2);
  const std::int64_t n = 8;
  std::atomic<std::int64_t> done{0};
  std::atomic<int> stalled_lane{-1};
  std::vector<int> lane_of(static_cast<std::size_t>(n), -1);
  pool.parallel_for_dynamic(n, [&](int lane, std::int64_t i) {
    lane_of[static_cast<std::size_t>(i)] = lane;
    if (i == 0) {
      stalled_lane.store(lane);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (done.load() < n - 1 && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      return;
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), n - 1);
  for (std::int64_t i = 1; i < n; ++i) {
    EXPECT_NE(lane_of[static_cast<std::size_t>(i)], stalled_lane.load())
        << "item " << i;
  }
}

TEST(ThreadPool, DynamicHandOutExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_dynamic(
                   8,
                   [&](int, std::int64_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  std::atomic<std::int64_t> count{0};
  pool.parallel_for_dynamic(8, [&](int, std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

// ---------------------------------------------------------------------------
// Multi-lane batch serving: the registry at every lane count equals the
// reference oracle.
// ---------------------------------------------------------------------------

TEST(RegistryThreading, BatchIsBitExactAcrossThreadCounts) {
  const QuantizedNet net = serving_net(21);
  const Shape& in = net.layers.front().in_shape;
  const Executor ref(net);
  Rng rng(77);
  // Nine requests, and two: fewer requests than lanes.
  std::vector<std::vector<serve::Request>> batches(2);
  std::vector<std::vector<QInferenceResult>> expect(2);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < (b == 0 ? 9 : 2); ++i) {
      serve::Request r;
      r.id = i;
      r.input.resize(static_cast<std::size_t>(in.numel()));
      rng.fill_uniform(r.input, -0.2, 1.2);
      FloatTensor img(in);
      img.vec() = r.input;
      expect[b].push_back(ref.run(img));
      batches[b].push_back(std::move(r));
    }
  }
  for (const int t : {1, 2, 3, 4, ThreadPool::hardware_lanes()}) {
    serve::ModelRegistry reg(t);
    reg.add_model("m", net);
    const auto m = reg.resolve("m");
    for (std::size_t b = 0; b < 2; ++b) {
      std::vector<QInferenceResult> got;
      reg.infer_batch(*m, batches[b], got);
      expect_same_results(got, expect[b],
                          "threads=" + std::to_string(t) +
                              " batch=" + std::to_string(expect[b].size()));
    }
  }
}

// ---------------------------------------------------------------------------
// Intra-layer row partitioning.
// ---------------------------------------------------------------------------

TEST(PlanThreading, IntraLayerRowsAreBitExact) {
  const QuantizedNet net = serving_net(41);
  const ExecutionPlan plan(net);
  Rng rng(5);
  FloatTensor img(net.layers.front().in_shape);
  rng.fill_uniform(img.vec(), 0.0, 1.0);

  const std::vector<float> serial = plan.run_into(img.data());
  for (const int lanes : {2, 3, 4}) {
    ThreadPool pool(lanes);
    PlanArenas arenas(plan, lanes);
    const std::vector<float>& par = plan.run_into(img.data(), arenas, pool);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(par[i], serial[i]) << "lanes=" << lanes << " logit " << i;
    }
  }
}

TEST(PlanThreading, IntraLayerRejectsUndersizedArenas) {
  const QuantizedNet net = serving_net(51);
  const ExecutionPlan plan(net);
  Rng rng(6);
  FloatTensor img(net.layers.front().in_shape);
  rng.fill_uniform(img.vec(), 0.0, 1.0);
  ThreadPool pool(4);
  PlanArenas arenas(plan, 2);
  EXPECT_THROW(plan.run_into(img.data(), arenas, pool),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations per worker arena.
// ---------------------------------------------------------------------------

TEST(PlanThreading, WorkerArenaSteadyStateDoesNotAllocate) {
  const QuantizedNet net = serving_net(61);
  const ExecutionPlan plan(net);
  Rng rng(7);
  FloatTensor img(net.layers.front().in_shape);
  rng.fill_uniform(img.vec(), 0.0, 1.0);

  PlanArenas arenas(plan);  // the one-time arena allocation
  plan.run_into(img.data(), arenas);  // warm-up
  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) plan.run_into(img.data(), arenas);
  const std::int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "per-worker planned inference allocated on the steady-state path";
}

TEST(PlanThreading, IntraLayerSteadyStateDoesNotAllocate) {
  const QuantizedNet net = serving_net(71);
  const ExecutionPlan plan(net);
  Rng rng(8);
  FloatTensor img(net.layers.front().in_shape);
  rng.fill_uniform(img.vec(), 0.0, 1.0);

  ThreadPool pool(2);
  PlanArenas arenas(plan, 2);
  plan.run_into(img.data(), arenas, pool);  // warm-up
  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) plan.run_into(img.data(), arenas, pool);
  const std::int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "row-partitioned planned inference allocated on the steady-state "
         "path";
}

}  // namespace
}  // namespace mixq::runtime
