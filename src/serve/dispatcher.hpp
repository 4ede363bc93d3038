// mixq/serve/dispatcher.hpp
//
// The serving core every transport shares: everything between one
// complete request line and its replies.
//
//   * parsing (serve/protocol.hpp) and the replies the core gives itself:
//     protocol errors, {"cmd":"info"}, {"cmd":"health"};
//   * admission: pin the model generation on the request, answer
//     `not_found`, shed past the transport's queue depth with
//     `overloaded`, answer `shutting_down` once closed;
//   * the batch worker: deadline gate BEFORE inference, the FaultInjector
//     delay and exec-error sites, grouped ModelRegistry::infer_indices on
//     each request's pinned route, executor exceptions answered `internal`;
//   * the engine-wide ServeStats.
//
// A transport (StreamServer over an istream, EpollServer over sockets)
// only frames lines, writes replies, and decides the four things that
// differ between transports: the stats shape, where a reload runs, what a
// shutdown means, and its queue depth. The worker hands each batch's
// replies to the transport's sink in one call.
//
// Threading: handle_line/reload/stats are safe from any thread; the
// stdio transport calls them from its reader, the epoll transport from
// its loop and reload control threads. The sink runs on the worker.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "runtime/qgraph.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"

namespace mixq::serve {

class FaultInjector;
class ModelRegistry;

/// One reply line for the connection `client` that sent the request.
struct Reply {
  int client{kClientLocal};
  std::string line;
};

/// The stdio transport's admission bound: no shedding.
inline constexpr std::size_t kUnboundedQueue =
    std::numeric_limits<std::size_t>::max();

class Dispatcher {
 public:
  /// Receives one batch's replies, on the worker thread; may move from them.
  using Sink = std::function<void(std::vector<Reply>& replies)>;

  /// What handle_line leaves for the transport.
  enum class Action : std::uint8_t {
    kNone,      ///< blank line: nothing to do
    kReply,     ///< write `reply` now
    kQueued,    ///< admitted; its reply arrives through the sink
    kStats,     ///< answer stats_line() in the transport's shape
    kReload,    ///< answer reload(model, path), inline or off-thread
    kShutdown,  ///< stop reading, drain, acknowledge
  };
  struct Handled {
    Action action{Action::kNone};
    std::string reply;  ///< kReply
    std::string model;  ///< kReload: "" = the default model
    std::string path;   ///< kReload: "" = its current backing path
  };

  /// `registry` must outlive the dispatcher. Requests past `queue_depth`
  /// queued are shed `overloaded` with the `retry_after_ms` hint.
  /// `faults` (may be null) arms the worker's delay and exec-error sites.
  Dispatcher(ModelRegistry& registry, const ServeConfig& cfg,
             std::size_t queue_depth, std::int64_t retry_after_ms,
             FaultInjector* faults, Sink sink);
  /// Closes admission and joins the worker (drain()).
  ~Dispatcher();
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Start the batch worker. `on_exit` runs on it after the last batch,
  /// once the queue is closed and drained.
  void start(std::function<void()> on_exit = {});

  /// Refuse new work (`shutting_down`); the worker still answers every
  /// admitted request, then exits.
  void close();

  /// close(), then wait for the worker to exit. Idempotent.
  void drain();

  /// Longest acceptable request line: a well-formed request is at most
  /// ~17 bytes per float plus punctuation, so anything longer is refused
  /// unscanned. It bounds each transport's read buffer, and with it what
  /// the scanner may reserve for a line's "input".
  [[nodiscard]] std::size_t max_line_bytes() const { return max_line_bytes_; }

  /// Handle one complete line from `client` (see Action).
  Handled handle_line(int client, std::string_view line);

  /// The refusal for a line the transport cut at max_line_bytes().
  std::string line_too_long();

  /// Validate-then-swap `model` from `path`; the `{"ok":"reload",...}`
  /// line, or the `reload_failed`/`not_found` error.
  std::string reload(const std::string& model, const std::string& path);

  /// The engine-wide counters and latency window.
  [[nodiscard]] ServeStats stats() const;

  /// `{"stats":OBJECT}` with the per-model breakdown spliced into the
  /// transport's stats OBJECT as "models".
  [[nodiscard]] std::string stats_line(std::string object) const;

 private:
  std::string admit(int client, Request r);
  std::string refuse(ErrCode code, std::string_view why,
                     const std::int64_t* id);
  [[nodiscard]] std::string info_line() const;
  void work();
  void infer_grouped(const std::vector<Request>& batch);

  ModelRegistry& reg_;
  std::int64_t default_numel_;
  std::size_t max_line_bytes_;
  std::int64_t default_deadline_ms_;
  std::size_t queue_depth_;
  std::int64_t retry_after_ms_;
  FaultInjector* faults_;
  Sink sink_;
  RequestQueue queue_;
  MicroBatcher batcher_;

  mutable std::mutex stats_mu_;
  ServeStats stats_;

  // Worker-only scratch, reused across batches.
  std::vector<runtime::QInferenceResult> results_;
  std::vector<std::size_t> group_;

  std::function<void()> on_exit_;
  std::mutex join_mu_;
  std::thread worker_;
};

}  // namespace mixq::serve
