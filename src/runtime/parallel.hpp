// mixq/runtime/parallel.hpp
//
// Fixed-size thread pool for the batch serving engine. The pool spawns
// lanes-1 persistent worker threads once; parallel_for(n, fn) statically
// partitions [0, n) into one contiguous chunk per lane (the caller runs
// lane 0) and blocks until every chunk is done. Static partitioning keeps
// work assignment deterministic, and because every mixq kernel writes only
// its own output range, results are bit-identical for every lane count.
// parallel_for_dynamic(n, fn) instead hands out single items to whichever
// lane is free, for coarse independent items (whole samples of a batch).
//
// Dispatch allocates nothing: the callable is passed by pointer, workers
// are woken through one condition variable, and completion is a counted
// rendezvous. A worker exception is captured and rethrown on the caller
// after the rendezvous (first one wins). parallel_for is not reentrant and
// a pool must not be driven from two threads at once.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mixq::runtime {

class ThreadPool {
 public:
  /// `lanes` <= 0 selects hardware_lanes(). A 1-lane pool spawns no
  /// threads and runs everything on the caller.
  explicit ThreadPool(int lanes = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int lanes() const { return lanes_; }

  /// max(1, std::thread::hardware_concurrency()).
  static int hardware_lanes();

  /// The contiguous chunk of [0, n) owned by `lane` out of `lanes`:
  /// sizes differ by at most one, earlier lanes take the remainder.
  static void chunk(std::int64_t n, int lanes, int lane, std::int64_t& begin,
                    std::int64_t& end);

  /// Run fn(lane, begin, end) once per lane over the static partition of
  /// [0, n) and wait for completion. fn must be callable concurrently for
  /// distinct lanes; chunks may be empty when n < lanes.
  template <typename F>
  void parallel_for(std::int64_t n, F&& fn) {
    parallel_for_lanes(lanes_, n, std::forward<F>(fn));
  }

  /// Same, but partitions across only the first `use_lanes` lanes
  /// (clamped to [1, lanes()]). Lets a caller reuse one wide pool for
  /// narrower jobs instead of tearing threads down and respawning them.
  template <typename F>
  void parallel_for_lanes(int use_lanes, std::int64_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    dispatch(
        n,
        [](void* ctx, int lane, std::int64_t b, std::int64_t e) {
          (*static_cast<Fn*>(ctx))(lane, b, e);
        },
        const_cast<void*>(static_cast<const void*>(&fn)), use_lanes);
  }

  /// Run fn(lane, i) once for every i in [0, n), handing indices out one
  /// at a time to whichever of the first min(n, lanes()) lanes is free.
  /// For coarse independent items such as the samples of a batch: a lane
  /// whose CPU is slowed (a busy host) then delays the call by at most the
  /// item it holds, where a static split stretches the call to that lane's
  /// whole share. Which lane runs an item varies between calls, so fn must
  /// write only item i's output (per-lane scratch is fine); n == 1 runs on
  /// the caller without waking a worker.
  template <typename F>
  void parallel_for_dynamic(std::int64_t n, F&& fn) {
    if (n <= 0) return;
    const int use = static_cast<int>(std::min<std::int64_t>(n, lanes_));
    std::atomic<std::int64_t> next{0};
    parallel_for_lanes(use, use, [&](int lane, std::int64_t, std::int64_t) {
      for (std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(lane, i);
      }
    });
  }

 private:
  using Thunk = void (*)(void*, int, std::int64_t, std::int64_t);

  void dispatch(std::int64_t n, Thunk thunk, void* ctx, int use_lanes);
  void worker(int lane);

  int lanes_{1};
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Thunk thunk_{nullptr};
  void* ctx_{nullptr};
  std::int64_t n_{0};
  int use_lanes_{1};
  std::uint64_t generation_{0};
  int pending_{0};
  bool stop_{false};
  std::exception_ptr first_error_;
};

}  // namespace mixq::runtime
