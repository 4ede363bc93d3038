// mixq/serve/net/epoll_server.hpp
//
// The socket transport behind `mixq serve --tcp` and/or `--socket`: one
// epoll event loop thread owning every TCP and unix-domain socket, over
// the same serve::Dispatcher (serve/dispatcher.hpp) the stdio transport
// uses -- parsing, admission, the batch worker and the engine stats live
// there; sockets, outboxes, drain, idle reaping, the reload control
// thread and the connection counters live here. Built around failure as
// the common case.
//
// Each connection is an explicit state machine:
//
//      accept -> kReading --(request queued)--> in-flight > 0
//                   |  \                           |
//                   |   `-- protocol-fatal / drain |
//                   v                              v
//               kDraining --(outbox flushed, nothing in flight)--> closed
//
//   * reads are non-blocking with a bounded line buffer (an endless
//     unterminated line is a protocol error, not memory growth);
//   * responses go through a per-connection bounded outbox flushed by
//     EPOLLOUT -- a slow client backs its own connection up until the
//     outbox overflows and the connection is closed, and never stalls
//     the batch worker or any other client;
//   * admission control sits in FRONT of the queue: past `queue_depth`
//     the Dispatcher answers `overloaded` with a retry_after_ms hint
//     instead of queueing unboundedly, and past `max_conns` the accept
//     itself is answered `overloaded` and closed;
//   * per-request deadlines ("deadline_ms", or the configured default)
//     are enforced by the batch worker BEFORE inference -- an expired
//     request costs a structured `timeout` response, not a batch slot;
//   * idle connections are reaped after `idle_timeout_ms`;
//   * graceful drain (request_drain(), a SIGTERM via the installed
//     handler, or {"cmd":"shutdown"}): stop accepting, answer everything
//     already admitted, flush every outbox, then close -- bounded by
//     `drain_timeout_ms` so one wedged client cannot hold shutdown
//     hostage.
//
// A FaultInjector (serve/net/fault_injector.hpp) can drop connections
// mid-frame, truncate writes, delay flushes, and fail requests; the
// chaos suite in tests/serve/net_fault_test.cpp drives it to prove the
// loop never deadlocks, leaks a connection, or misroutes a response.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "runtime/executor.hpp"
#include "serve/net/fault_injector.hpp"
#include "serve/server.hpp"

#ifndef _WIN32

namespace mixq::serve {

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

/// The Dispatcher's ServeStats (requests/responses/errors/timeouts/shed/
/// latency; `shed` also counts connections refused at accept) plus the
/// connection-lifecycle counters only a socket transport has.
struct NetStats {
  ServeStats engine;
  std::int64_t accepted_conns{0};
  std::int64_t rejected_conns{0};   ///< answered `overloaded` at accept
  std::int64_t idle_reaped{0};
  std::int64_t overflow_closed{0};  ///< slow clients cut at outbox bound
  std::int64_t dropped_conns{0};    ///< peer resets + injected drops
  std::int64_t peak_conns{0};

  [[nodiscard]] std::string json() const;
  [[nodiscard]] std::string str() const;
};

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

struct NetConfig {
  ServeConfig engine;            ///< lanes, batching, max_conns, deadlines
  int tcp_port{-1};              ///< >= 0: listen on TCP (0 = ephemeral)
  std::string tcp_bind{"127.0.0.1"};
  std::string unix_path;         ///< non-empty: listen on AF_UNIX
  std::size_t queue_depth{256};  ///< admission bound in front of the queue
  std::int64_t retry_after_ms{50};      ///< backoff hint on `overloaded`
  std::int64_t idle_timeout_ms{60'000}; ///< 0 = never reap
  std::int64_t drain_timeout_ms{5'000};
  std::size_t max_outbox_bytes{1u << 20};
  int sndbuf_bytes{0};           ///< >0: shrink SO_SNDBUF (backpressure tests)
  FaultConfig faults{};
};

class EpollServer {
 public:
  /// Binds and listens (throwing std::runtime_error on setup failure) so
  /// tcp_port() is valid -- and clients may already connect -- before
  /// run() is entered. Single-model compatibility form: wraps `net` in an
  /// owned one-entry registry named "default".
  EpollServer(const runtime::QuantizedNet& net, NetConfig cfg);

  /// Multi-model form: serves every model in `registry` (which must
  /// outlive the server). Requests route by their "model" field;
  /// {"cmd":"reload"} runs validate-then-swap on a dedicated control
  /// thread (the event loop and batch worker never block on it) and
  /// {"cmd":"health"} reports per-model readiness. SIGHUP (via
  /// install_signal_handlers) reloads every model from its current
  /// backing path.
  EpollServer(ModelRegistry& registry, NetConfig cfg);
  ~EpollServer();
  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// The actually-bound TCP port (resolves tcp_port = 0), or -1.
  [[nodiscard]] int tcp_port() const { return bound_tcp_port_; }

  /// Blocking: runs the event loop until a graceful drain completes.
  /// One-shot -- a finished server is torn down, not restartable.
  NetStats run(std::ostream* log = nullptr);

  /// Begin a graceful drain from any thread. Async-signal-safe (one
  /// eventfd write), so the SIGTERM handler may call it directly.
  void request_drain();

  /// Route SIGTERM/SIGINT to this server's request_drain(), and SIGHUP to
  /// a reload of every model from its current backing path (the classic
  /// "re-read your config" daemon contract). The handlers hold
  /// process-global eventfds; the most recently installed server wins
  /// (one daemon per process in practice).
  void install_signal_handlers();

 private:
  struct Impl;

  void init_sockets();

  Impl* impl_;
  int bound_tcp_port_{-1};
};

}  // namespace mixq::serve

#endif  // !_WIN32
