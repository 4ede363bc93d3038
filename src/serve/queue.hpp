// mixq/serve/queue.hpp
//
// Thread-safe FIFO of inference requests, the hand-off point between the
// daemon's protocol readers (one per client connection, or the single
// stdio reader) and the batching worker, which blocks in pop() for a
// batch's first request and takes the rest with try_pop(). Closeable:
// close() wakes every waiter, producers are rejected afterwards, and
// consumers continue to drain whatever was already queued -- which is how
// a graceful shutdown finishes in-flight work before exiting.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mixq::serve {

using Clock = std::chrono::steady_clock;

struct ServableModel;  // registry.hpp: one published model generation

/// One inference request. `client` routes the response back to the
/// connection that sent it (kClientLocal for stdio / in-process callers).
/// `deadline` is absolute: a request still unexecuted past it is answered
/// with a structured `timeout` error instead of occupying a batch slot
/// (Clock::time_point::max() = no deadline).
///
/// `route` pins the model GENERATION that admitted the request: the batch
/// worker executes against exactly this plan even if a reload publishes a
/// newer generation while the request is queued, and the shared_ptr keeps
/// the old plan (and its mmap borrow) alive until the last in-flight
/// request referencing it is answered.
struct Request {
  std::int64_t id{0};
  std::vector<float> input;
  std::string model;  ///< requested model name ("" = the default model)
  std::shared_ptr<const ServableModel> route;  ///< resolved at admission
  Clock::time_point enqueued{};
  Clock::time_point deadline{Clock::time_point::max()};
  int client{-1};

  [[nodiscard]] bool expired(Clock::time_point now) const {
    return deadline != Clock::time_point::max() && now > deadline;
  }
};

inline constexpr int kClientLocal = -1;

/// Outcome of a bounded push (admission control lives in front of the
/// queue: kOverflow is the signal to shed with an `overloaded` response
/// instead of queueing unboundedly).
enum class PushResult { kOk, kClosed, kOverflow };

class RequestQueue {
 public:
  /// Enqueue one request (stamping its arrival time). Returns false --
  /// leaving the queue untouched -- once the queue is closed.
  bool push(Request r) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      r.enqueued = Clock::now();
      q_.push_back(std::move(r));
    }
    cv_.notify_one();
    return true;
  }

  /// Like push(), but refuses (leaving the queue untouched) when the
  /// queue already holds `max_depth` requests. The check and the insert
  /// are one critical section, so concurrent producers cannot overshoot
  /// the bound.
  PushResult push_bounded(Request r, std::size_t max_depth) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return PushResult::kClosed;
      if (q_.size() >= max_depth) return PushResult::kOverflow;
      r.enqueued = Clock::now();
      q_.push_back(std::move(r));
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Blocking pop: waits until a request is available or the queue is
  /// closed *and* drained (then returns false).
  bool pop(Request& out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop_front();
    return true;
  }

  /// Non-blocking pop: false at once when nothing is queued.
  bool try_pop(Request& out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop_front();
    return true;
  }

  /// Reject future producers and wake every waiter. Already queued
  /// requests remain poppable.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> q_;
  bool closed_{false};
};

}  // namespace mixq::serve
