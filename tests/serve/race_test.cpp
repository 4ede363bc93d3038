// Race-condition coverage for the serving fabric's synchronization
// primitives, written to run under ThreadSanitizer (the `tsan` preset /
// the test-tsan CI job) as well as plain builds:
//
//   * RequestQueue::close() racing blocked pop()/pop_until() waiters --
//     every waiter must wake exactly once and the queue must still drain
//     what was admitted before the close;
//   * concurrent bounded producers racing close() -- the depth bound and
//     the closed flag must stay one atomic decision (no overshoot, no
//     post-close admission);
//   * MicroBatcher::next_batch() racing close() mid-flush -- the batcher
//     must hand every admitted request to exactly one batch and then
//     report exhaustion, never deadlock or duplicate;
//   * ModelRegistry's RCU publication racing reload: inference on a
//     pinned generation while the swap retires it, resolve()/health/stats
//     readers during continuous reloads, two reloads of one slot
//     colliding, and reload racing a graceful drain.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/flash_image.hpp"
#include "runtime/plan.hpp"
#include "serve/batcher.hpp"
#include "serve/net/epoll_server.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace mixq::serve {
namespace {

Request make_request(std::int64_t id) {
  Request r;
  r.id = id;
  r.input = {static_cast<float>(id)};
  return r;
}

TEST(RequestQueueRace, CloseWakesEveryBlockedPopper) {
  for (int iter = 0; iter < 50; ++iter) {
    RequestQueue q;
    constexpr int kWaiters = 4;
    std::atomic<int> woke{0};
    std::atomic<std::int64_t> popped_ids{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < kWaiters; ++i) {
      waiters.emplace_back([&] {
        Request r;
        while (q.pop(r)) popped_ids += r.id;
        ++woke;  // pop returned false: closed and drained
      });
    }
    // A few pushes racing the close; the close may land between any two.
    std::thread closer([&] { q.close(); });
    std::int64_t pushed_sum = 0;
    for (std::int64_t id = 1; id <= 8; ++id) {
      if (q.push(make_request(id))) pushed_sum += id;
    }
    closer.join();
    for (auto& t : waiters) t.join();
    EXPECT_EQ(woke.load(), kWaiters) << "a waiter never woke";
    EXPECT_EQ(popped_ids.load(), pushed_sum)
        << "an admitted request was lost or duplicated";
    EXPECT_FALSE(q.push(make_request(99))) << "push admitted after close";
  }
}

TEST(RequestQueueRace, PopUntilRacingClose) {
  for (int iter = 0; iter < 50; ++iter) {
    RequestQueue q;
    std::atomic<int> exits{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 3; ++i) {
      waiters.emplace_back([&] {
        Request r;
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        while (q.pop_until(r, deadline)) {
        }
        ++exits;
      });
    }
    q.push(make_request(1));
    q.close();
    for (auto& t : waiters) t.join();
    EXPECT_EQ(exits.load(), 3);
  }
}

TEST(RequestQueueRace, BoundedProducersRacingCloseNeverOvershoot) {
  for (int iter = 0; iter < 20; ++iter) {
    RequestQueue q;
    constexpr std::size_t kDepth = 4;
    constexpr int kProducers = 4;
    std::atomic<int> admitted{0};
    std::atomic<int> overflowed{0};
    std::atomic<std::size_t> max_seen{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        // Produce flat-out until the close is observed; every producer
        // must terminate through kClosed (anything else is a hang).
        for (std::int64_t i = 0;; ++i) {
          const PushResult res = q.push_bounded(make_request(i), kDepth);
          if (res == PushResult::kClosed) break;
          if (res == PushResult::kOk) {
            ++admitted;
            std::size_t depth = q.size();
            std::size_t prev = max_seen.load();
            while (depth > prev &&
                   !max_seen.compare_exchange_weak(prev, depth)) {
            }
          } else {
            ++overflowed;
          }
        }
      });
    }
    std::thread consumer([&] {
      Request r;
      while (q.pop(r)) {
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    q.close();
    for (auto& t : producers) t.join();
    consumer.join();
    // The consumer drains concurrently, so q.size() observed at push time
    // can only ever be <= kDepth; above it means check+insert raced.
    EXPECT_LE(max_seen.load(), kDepth) << "depth bound overshot";
    EXPECT_EQ(q.push_bounded(make_request(1), kDepth), PushResult::kClosed);
    EXPECT_GE(admitted.load() + overflowed.load(), 0);
  }
}

TEST(MicroBatcherRace, CloseWhileFlushingLosesNothing) {
  for (int iter = 0; iter < 50; ++iter) {
    RequestQueue q;
    MicroBatcher batcher(q, BatcherConfig{/*max_batch=*/3,
                                          /*max_wait_us=*/500});
    constexpr std::int64_t kN = 32;

    std::set<std::int64_t> seen;
    std::atomic<bool> exhausted{false};
    std::thread worker([&] {
      std::vector<Request> batch;
      while (batcher.next_batch(batch)) {
        for (const Request& r : batch) {
          EXPECT_TRUE(seen.insert(r.id).second) << "request " << r.id
                                                << " batched twice";
        }
      }
      exhausted = true;
    });

    std::int64_t admitted = 0;
    std::thread closer;
    for (std::int64_t id = 0; id < kN; ++id) {
      if (id == kN / 2) {
        // Close from another thread while the worker is mid-batch.
        closer = std::thread([&] { q.close(); });
      }
      if (q.push(make_request(id))) ++admitted;
    }
    closer.join();
    worker.join();
    EXPECT_TRUE(exhausted.load());
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), admitted)
        << "an admitted request never reached a batch";
  }
}

TEST(MicroBatcherRace, TwoWorkersOneQueueDisjointBatches) {
  for (int iter = 0; iter < 20; ++iter) {
    RequestQueue q;
    constexpr std::int64_t kN = 64;
    std::mutex seen_mu;
    std::set<std::int64_t> seen;
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
      workers.emplace_back([&] {
        MicroBatcher batcher(q, BatcherConfig{4, 200});
        std::vector<Request> batch;
        while (batcher.next_batch(batch)) {
          std::lock_guard<std::mutex> lock(seen_mu);
          for (const Request& r : batch) {
            EXPECT_TRUE(seen.insert(r.id).second)
                << "request " << r.id << " claimed by both workers";
          }
        }
      });
    }
    for (std::int64_t id = 0; id < kN; ++id) {
      ASSERT_TRUE(q.push(make_request(id)));
    }
    q.close();
    for (auto& t : workers) t.join();
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), kN);
  }
}

// ---------------------------------------------------------------------------
// ModelRegistry: RCU swap vs. inference vs. readers.
// ---------------------------------------------------------------------------

runtime::QuantizedNet make_registry_net(std::uint64_t seed) {
  Rng rng(seed);
  models::SmallCnnConfig cfg;
  cfg.input_hw = 8;
  cfg.base_channels = 4;
  cfg.num_blocks = 1;
  cfg.num_classes = 3;
  cfg.qw = core::BitWidth::kQ4;
  cfg.wgran = core::Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  return runtime::convert_qat_model(model, Shape(1, 8, 8, 3),
                                    {core::Scheme::kPCICN});
}

/// Image file for `net`, removed on destruction.
struct RaceImage {
  explicit RaceImage(const runtime::QuantizedNet& net, const std::string& tag)
      : path("race_test_" + std::to_string(static_cast<long>(::getpid())) +
             "_" + tag + ".img") {
    runtime::write_flash_image_file(net, path);
  }
  ~RaceImage() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<float> registry_sample(const runtime::QuantizedNet& net,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> s(
      static_cast<std::size_t>(net.layers.front().in_shape.numel()));
  rng.fill_uniform(s, 0.0, 1.0);
  return s;
}

TEST(ModelRegistryRace, SwapWhileBatchInFlightStaysBitExact) {
  const runtime::QuantizedNet v1 = make_registry_net(1);
  const runtime::QuantizedNet v2 = make_registry_net(2);
  const RaceImage img1(v1, "swap_v1");
  const RaceImage img2(v2, "swap_v2");
  const auto sample = registry_sample(v1, 42);

  // Per-image expected logits for the fixed sample, computed serially.
  FloatTensor in(v1.layers.front().in_shape);
  in.vec() = sample;
  const std::vector<float> logits_v1 =
      runtime::ExecutionPlan(v1).run(in).logits;
  const std::vector<float> logits_v2 =
      runtime::ExecutionPlan(v2).run(in).logits;

  ModelRegistry reg(1);
  reg.add_model("m", img1.path);

  std::atomic<bool> stop{false};
  std::atomic<int> batches{0};
  std::atomic<int> wrong{0};
  // The single batch worker: pin a generation, infer, check the result
  // against the image THAT generation was loaded from. The reloader
  // alternates img2/img1/img2/..., so generation parity selects the
  // image: odd = v1, even = v2.
  std::thread worker([&] {
    std::vector<Request> batch(1);
    batch[0].id = 0;
    batch[0].input = sample;
    std::vector<runtime::QInferenceResult> out;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto pinned = reg.resolve("m");
      ASSERT_NE(pinned, nullptr);
      reg.infer_batch(*pinned, batch, out);
      const auto& expect =
          (pinned->generation % 2 == 1) ? logits_v1 : logits_v2;
      if (out[0].logits != expect) ++wrong;
      ++batches;
    }
  });

  // Pace the reloads against worker progress: each swap waits until the
  // worker has completed at least one more batch since the previous swap,
  // so every generation is guaranteed to overlap live inference even when
  // the scheduler starves one of the threads.
  for (int i = 0; i < 25; ++i) {
    const int seen = batches.load();
    while (batches.load() == seen) std::this_thread::yield();
    const ReloadResult rr =
        reg.reload("m", (i % 2 == 0) ? img2.path : img1.path);
    ASSERT_TRUE(rr.ok) << rr.error;
  }
  stop = true;
  worker.join();
  EXPECT_GE(batches.load(), 25);
  EXPECT_EQ(wrong.load(), 0)
      << "a batch saw logits from a generation it was not pinned to";
  EXPECT_EQ(reg.resolve("m")->generation, 26u);
}

TEST(ModelRegistryRace, ReadersAndAccountingDuringContinuousReloads) {
  const runtime::QuantizedNet net = make_registry_net(3);
  const RaceImage img(net, "readers");
  ModelRegistry reg(1);
  reg.add_model("m", img.path);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto m = reg.resolve("m");
        ASSERT_NE(m, nullptr);
        reg.record_admitted(*m);
        reg.record_response(*m, 1.0);
        const std::string h = reg.health_json();
        EXPECT_NE(h.find("\"m\""), std::string::npos);
        const std::string s = reg.stats_json();
        EXPECT_NE(s.find("\"queued\""), std::string::npos);
        (void)reg.models_info_json();
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(reg.reload("m").ok);  // re-read the current backing path
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(reg.resolve("m")->generation, 21u);
}

TEST(ModelRegistryRace, ConcurrentReloadsOfOneSlotSerialize) {
  const runtime::QuantizedNet net = make_registry_net(4);
  const RaceImage img(net, "double");
  ModelRegistry reg(1);
  reg.add_model("m", img.path);

  constexpr int kPerThread = 5;
  std::atomic<int> ok{0};
  std::vector<std::thread> reloaders;
  for (int t = 0; t < 2; ++t) {
    reloaders.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (reg.reload("m", img.path).ok) ++ok;
      }
    });
  }
  for (auto& t : reloaders) t.join();
  // Both colliding reloads validate and swap in turn: every attempt
  // succeeds and every swap gets its own generation number.
  EXPECT_EQ(ok.load(), 2 * kPerThread);
  EXPECT_EQ(reg.resolve("m")->generation,
            1u + static_cast<std::uint64_t>(2 * kPerThread));
  const std::string h = reg.health_json();
  EXPECT_NE(h.find("\"reloads_ok\":10"), std::string::npos) << h;
}

#ifndef _WIN32

TEST(ModelRegistryRace, ReloadRacingGracefulDrain) {
  // The epoll front-end's control thread performs reloads while a drain
  // shuts the loop down; whatever the interleaving, run() must return
  // and queued reload jobs must not wedge the teardown.
  for (int iter = 0; iter < 5; ++iter) {
    const runtime::QuantizedNet net = make_registry_net(5);
    const RaceImage img(net, "drain");
    ModelRegistry reg(1);
    reg.add_model("m", img.path);

    NetConfig cfg;
    cfg.tcp_port = 0;
    cfg.engine.max_wait_us = 100;
    cfg.drain_timeout_ms = 2'000;
    EpollServer server(reg, cfg);
    std::thread runner([&] { (void)server.run(); });

    std::thread reloader([&] {
      for (int i = 0; i < 10; ++i) (void)reg.reload("m", img.path);
    });
    std::thread drainer([&] { server.request_drain(); });
    reloader.join();
    drainer.join();
    runner.join();  // a hang here IS the failure
  }
}

#endif  // !_WIN32

}  // namespace
}  // namespace mixq::serve
