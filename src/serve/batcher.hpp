// mixq/serve/batcher.hpp
//
// Micro-batching policy of the daemon, work-conserving: the worker blocks
// (indefinitely) for the first request, then takes only the requests
// already queued behind it, up to `max_batch`, and never waits for more.
// A lone request runs at once; a burst that queued while the worker was
// busy fills whole batches and amortizes the batch dispatch across the
// worker lanes. The added delay is therefore bounded by the batch ahead,
// never by a timer (Clipper's adaptive batching, Crankshaw et al., NSDI
// 2017).
#pragma once

#include <cstdint>
#include <vector>

#include "serve/queue.hpp"

namespace mixq::serve {

struct BatcherConfig {
  int max_batch{8};  ///< coalesce at most this many requests
  /// Unread: no request waits for batch-mates. Kept only so the
  /// benchmark package's two-value initializer still compiles; it goes
  /// with the next change to that package.
  std::int64_t max_wait_us{0};
};

class MicroBatcher {
 public:
  MicroBatcher(RequestQueue& queue, BatcherConfig cfg)
      : queue_(&queue), max_batch_(cfg.max_batch < 1 ? 1 : cfg.max_batch) {}

  /// Collect the next micro-batch into `out` (cleared first). Returns
  /// false -- with `out` empty -- only when the queue is closed and fully
  /// drained, i.e. the serving loop should exit.
  bool next_batch(std::vector<Request>& out) {
    out.clear();
    Request r;
    if (!queue_->pop(r)) return false;
    out.push_back(std::move(r));
    while (static_cast<int>(out.size()) < max_batch_ && queue_->try_pop(r)) {
      out.push_back(std::move(r));
    }
    return true;
  }

 private:
  RequestQueue* queue_;
  int max_batch_;
};

}  // namespace mixq::serve
