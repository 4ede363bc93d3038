// mixq/serve/server.hpp
//
// The batch inference daemon behind `mixq serve`, and the stdio transport.
// Every transport feeds complete request lines to one serve::Dispatcher
// (serve/dispatcher.hpp), which owns parsing, admission, the micro-batching
// worker and the stats; a transport only frames lines and writes replies:
//   * StreamServer (here): an istream/ostream pair -- `mixq serve` on
//     stdin/stdout, and in-process callers;
//   * EpollServer (serve/net/epoll_server.hpp): TCP and unix sockets on one
//     event loop -- `mixq serve --tcp` and/or `--socket`.
// Each batch runs across the ModelRegistry's worker lanes, every lane
// running the shared read-only ExecutionPlan through its own PlanArenas, so
// served results are bit-identical to the reference Executor::run() for
// every lane count and every batch composition.
//
// Protocol (newline-delimited JSON, one request/response per line; the
// parser and error taxonomy live in serve/protocol.hpp):
//   {"id": 7, "input": [f0, f1, ...]}   -> {"id":7,"predicted":3,"logits":[...]}
//   {"id": 7, "input": [...], "deadline_ms": 50}
//       -> the response, or {"error":...,"code":"timeout",...} if still
//          unexecuted 50 ms after arrival (the slot is never wasted)
//   {"cmd": "info"}                     -> {"info":{...model metadata...}}
//   {"cmd": "stats"}                    -> {"stats":{...latency/batch stats...}}
//   {"cmd": "shutdown"}                 -> {"ok":"shutdown"}   (after drain)
// Malformed or invalid lines get {"error":...,"code":"malformed",...}
// and never kill the daemon. `input` length must equal the model's H*W*C.
// Responses to one client's valid requests are emitted in request order.
//
// StreamServer threading: serve() runs the reader on the calling thread
// and the Dispatcher's batch worker on its own thread (it takes whatever
// is queued when it frees up; no request waits for batch-mates); writes
// to the one
// output stream are serialized through one mutex. Admission is unbounded,
// and a {"cmd":"reload"} runs inline on the reader, so every later line
// sees the new generation. On EOF or {"cmd":"shutdown"} admission closes,
// already-accepted requests are drained and answered, then serve()
// returns the final stats.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "runtime/qgraph.hpp"

namespace mixq::serve {

class ModelRegistry;  // serve/registry.hpp: multi-model hot-swap registry

/// The shared response formatting: `{"id":N,"predicted":K,"logits":[...]}`.
/// Both `mixq run --ndjson` and the daemon emit exactly this line, which is
/// what the CLI smoke test diffs byte-for-byte.
std::string format_result_line(std::int64_t id,
                               const runtime::QInferenceResult& r);

/// The matching request line: `{"id":N,"input":[...]}` (shortest
/// round-trip floats, so a served input parses back bit-exactly).
std::string format_request_line(std::int64_t id, const float* input,
                                std::int64_t numel);

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

struct ServeStats {
  std::int64_t requests{0};   ///< well-formed inference requests accepted
  std::int64_t responses{0};  ///< inference responses emitted
  std::int64_t errors{0};     ///< protocol errors answered
  std::int64_t timeouts{0};   ///< accepted requests answered `timeout`
  std::int64_t shed{0};       ///< requests/connections refused `overloaded`
  std::int64_t batches{0};    ///< micro-batches executed
  std::int64_t max_batch_fill{0};
  std::vector<double> latency_us;  ///< enqueue -> response, a ring
  std::size_t latency_next{0};     ///< the ring's oldest sample once full

  [[nodiscard]] double mean_batch_fill() const {
    return batches > 0 ? static_cast<double>(responses) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  /// p in [0, 100]; 0 when no requests completed.
  [[nodiscard]] double latency_percentile_us(double p) const;
  [[nodiscard]] double latency_mean_us() const;

  /// Record one request's enqueue -> response latency in a ring of the
  /// most recent `cap` samples, so percentiles track the current window
  /// and a snapshot copies a bounded vector.
  void record_latency(double us, std::size_t cap = std::size_t{1} << 16);

  /// One-line JSON object (the {"cmd":"stats"} payload).
  [[nodiscard]] std::string json() const;
  /// Multi-line human-readable summary.
  [[nodiscard]] std::string str() const;
};

// ---------------------------------------------------------------------------
// Configuration shared by both transports, and the stdio transport.
// ---------------------------------------------------------------------------

struct ServeConfig {
  int threads{1};                  ///< worker lanes (0 = hardware)
  /// Coalescing limit: the worker takes up to this many already-queued
  /// requests per batch, never waiting for more.
  int max_batch{8};
  /// Concurrent-connection cap of the socket transport: the excess
  /// connection is answered with a structured `overloaded` error and
  /// closed.
  int max_conns{256};
  /// Deadline stamped on requests that carry no "deadline_ms" field
  /// (<= 0 = none). An accepted request still unexecuted past its
  /// deadline is answered with a `timeout` error, never silently dropped.
  std::int64_t default_deadline_ms{0};
};

class StreamServer {
 public:
  /// Single-model compatibility form: wraps `net` in an owned one-entry
  /// registry named "default". The model is loaded/probed here, so the
  /// first served request pays no compilation latency.
  StreamServer(const runtime::QuantizedNet& net, ServeConfig cfg);

  /// Multi-model form: serves every model in `registry` (which must
  /// outlive the server). Requests route by their "model" field (absent =
  /// the registry's default); {"cmd":"reload"} hot-swaps a model and
  /// {"cmd":"health"} reports per-model readiness.
  StreamServer(ModelRegistry& registry, ServeConfig cfg);
  ~StreamServer();
  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Blocking serve loop: reads request lines from `in`, writes response
  /// lines to `out`, until EOF or {"cmd":"shutdown"}; drains in-flight
  /// requests before returning the final stats.
  ServeStats serve(std::istream& in, std::ostream& out);

 private:
  ModelRegistry* registry_{nullptr};
  std::unique_ptr<ModelRegistry> owned_;  ///< set by the net-based ctor
  ServeConfig cfg_;
};

}  // namespace mixq::serve
