// mixq/serve/server.hpp
//
// The batch inference daemon behind `mixq serve`: a request queue fed by
// one or more protocol readers, a micro-batcher (batcher.hpp) coalescing
// requests, and an InferenceSession executing each batch across worker
// lanes of the PR 3 ThreadPool -- every lane running the shared read-only
// ExecutionPlan through its own PlanArenas, so served results are
// bit-identical to a serial Executor::run_planned() for every lane count
// and every batch composition.
//
// Protocol (newline-delimited JSON, one request/response per line; the
// parser and error taxonomy live in serve/protocol.hpp, shared with the
// epoll front-end in serve/net/):
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
// Threading contract (see also Executor::plan() in runtime/executor.hpp):
//   * InferenceSession::infer_batch may be called from ONE thread at a
//     time (the batch worker); parallelism lives inside the call, which
//     hands the batch's requests one at a time to the pool's free lanes.
//   * The ExecutionPlan is compiled once in the constructor (warm-up), so
//     the first request pays no compilation latency.
//   * StreamServer::serve runs the protocol reader on the calling thread
//     and the batch worker on an internal thread; response writes are
//     serialized through one mutex. On EOF or {"cmd":"shutdown"} the
//     queue is closed, already-accepted requests are drained and answered,
//     then serve() returns the final stats.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/executor.hpp"
#include "serve/batcher.hpp"
#include "serve/queue.hpp"

namespace mixq::serve {

class ModelRegistry;  // serve/registry.hpp: multi-model hot-swap registry

// ---------------------------------------------------------------------------
// Inference engine shared by `mixq run` and `mixq serve`.
// ---------------------------------------------------------------------------

class InferenceSession {
 public:
  /// Compiles the plan (warm-up) and spawns a pool of `threads` worker
  /// lanes (0 = hardware concurrency) with one PlanArenas each.
  InferenceSession(const runtime::QuantizedNet& net, int threads);
  ~InferenceSession();
  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Run `batch.size()` requests, writing one result per request into
  /// `out` (resized). Each free lane takes the next request
  /// (ThreadPool::parallel_for_dynamic); results are bit-exact with the
  /// serial planned path whichever lane runs a request.
  void infer_batch(const std::vector<Request>& batch,
                   std::vector<runtime::QInferenceResult>& out);

  /// Serial convenience (lane 0's arenas).
  runtime::QInferenceResult infer(const float* sample);

  [[nodiscard]] const runtime::QuantizedNet& net() const;
  [[nodiscard]] const Shape& input_shape() const;
  [[nodiscard]] std::int64_t input_numel() const;
  [[nodiscard]] int lanes() const;

 private:
  runtime::Executor exec_;
  const runtime::ExecutionPlan* plan_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::vector<std::unique_ptr<runtime::PlanArenas>> arenas_;
};

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
  std::vector<double> latency_us;  ///< per-request enqueue -> response

  [[nodiscard]] double mean_batch_fill() const {
    return batches > 0 ? static_cast<double>(responses) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  /// p in [0, 100]; 0 when no requests completed.
  [[nodiscard]] double latency_percentile_us(double p) const;
  [[nodiscard]] double latency_mean_us() const;

  /// One-line JSON object (the {"cmd":"stats"} payload).
  [[nodiscard]] std::string json() const;
  /// Multi-line human-readable summary.
  [[nodiscard]] std::string str() const;
};

// ---------------------------------------------------------------------------
// Stream (stdio / in-process) server.
// ---------------------------------------------------------------------------

struct ServeConfig {
  int threads{1};                  ///< worker lanes (0 = hardware)
  int max_batch{8};
  std::int64_t max_wait_us{2000};
  /// Concurrent-connection cap of the socket front-ends. The classic
  /// unix daemon answers the excess connection with a structured
  /// `overloaded` error and closes it instead of spawning an unbounded
  /// reader thread per accept.
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

#ifndef _WIN32
/// AF_UNIX daemon: listens on `socket_path` (replacing any stale socket
/// file), serves any number of concurrent client connections feeding one
/// shared queue/batcher, and returns the final stats after a client sends
/// {"cmd":"shutdown"}. Responses are routed back to the originating
/// connection. Throws std::runtime_error on socket setup failure.
ServeStats serve_unix_socket(const runtime::QuantizedNet& net,
                             const ServeConfig& cfg,
                             const std::string& socket_path,
                             std::ostream* log = nullptr);

/// Multi-model form of the AF_UNIX daemon (see StreamServer).
ServeStats serve_unix_socket(ModelRegistry& registry, const ServeConfig& cfg,
                             const std::string& socket_path,
                             std::ostream* log = nullptr);
#endif

}  // namespace mixq::serve
