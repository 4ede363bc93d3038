// mixq/serve/protocol.hpp
//
// The one place the serving wire protocol is parsed and its errors are
// formatted. Both transports -- the stdio StreamServer and the epoll
// event loop in serve/net/ (TCP and unix sockets) -- hand raw request
// lines to the one serve::Dispatcher, which parses them here and refuses
// through format_error_line, so the two cannot drift apart in what they
// accept or how they refuse.
//
// Request lines (newline-delimited JSON):
//   {"id":N,"input":[...H*W*C floats...]}            inference request
//   {"id":N,"input":[...],"model":"NAME"}            ... against a named
//        model of the daemon's registry (absent/"" = the default model;
//        the input length must match THAT model's H*W*C)
//   {"id":N,"input":[...],"deadline_ms":M}           ... with a deadline:
//        if still unexecuted M ms after arrival the request is answered
//        with a `timeout` error instead of occupying a batch slot
//   {"cmd":"info"} | {"cmd":"stats"} | {"cmd":"shutdown"}
//   {"cmd":"health"}                                 readiness probe
//   {"cmd":"reload"[,"model":"NAME"][,"path":P]}     hot-swap NAME (default
//        model when absent) from P (its current backing path when absent)
//
// Error taxonomy (the "code" field of every error response):
//   malformed      request not understood; retrying the same bytes cannot
//                  succeed (retryable:false)
//   timeout        the request's deadline expired before execution
//   overloaded     admission control shed the request; retry after the
//                  "retry_after_ms" hint
//   shutting_down  the daemon is draining and accepts no new work
//   internal       transient executor failure; safe to retry
//   not_found      the named model is not in the registry; the model set
//                  is fixed at startup, so retrying the same bytes cannot
//                  succeed (retryable:false)
//   reload_failed  a reload was refused (corrupt image, shape mismatch,
//                  loader limit, validation failure); the old model keeps
//                  serving, and retrying after fixing the image succeeds
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/queue.hpp"

namespace mixq::serve {

// ---------------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------------

enum class ErrCode : std::uint8_t {
  kMalformed,
  kTimeout,
  kOverloaded,
  kShuttingDown,
  kInternal,
  kNotFound,
  kReloadFailed,
};

/// The wire slug ("malformed", "timeout", ...).
[[nodiscard]] const char* err_code_slug(ErrCode code);

/// Whether a client may retry the identical request and hope for a
/// different outcome. Malformed input and an unknown model name (the
/// registry's model set is fixed at startup) are the terminal refusals.
[[nodiscard]] bool err_code_retryable(ErrCode code);

/// One structured error response line:
///   {"error":MSG,"code":SLUG,"retryable":B[,"id":N][,"retry_after_ms":M]}
/// `id` is echoed when the offending request carried one (pass nullptr
/// otherwise); `retry_after_ms >= 0` appends the backoff hint used by
/// `overloaded` responses.
[[nodiscard]] std::string format_error_line(ErrCode code,
                                            std::string_view message,
                                            const std::int64_t* id = nullptr,
                                            std::int64_t retry_after_ms = -1);

// ---------------------------------------------------------------------------
// Request-line parsing.
// ---------------------------------------------------------------------------

/// Upper bound accepted for "deadline_ms": anything longer is
/// indistinguishable from "no deadline" at serving timescales, and a
/// bound keeps now+deadline arithmetic overflow-free.
inline constexpr std::int64_t kMaxDeadlineMs = 3'600'000;  // one hour

/// Immutable name -> input-length directory of a multi-model daemon.
/// Shapes are pinned for the daemon's lifetime (a reload that changes a
/// model's input shape or class count is refused), so front-ends build
/// this once at startup and every parse reads it without a lock.
struct ModelDirectory {
  std::vector<std::pair<std::string, std::int64_t>> numels;

  /// The input numel of `name`, or -1 when the registry has no such model.
  [[nodiscard]] std::int64_t numel_of(std::string_view name) const {
    for (const auto& [n, numel] : numels) {
      if (n == name) return numel;
    }
    return -1;
  }
};

struct ParsedLine {
  enum class Kind : std::uint8_t {
    kBlank,     ///< empty/whitespace line: ignore silently
    kRequest,   ///< `request` is populated
    kInfo,      ///< {"cmd":"info"}
    kStats,     ///< {"cmd":"stats"}
    kShutdown,  ///< {"cmd":"shutdown"}
    kHealth,    ///< {"cmd":"health"}
    kReload,    ///< {"cmd":"reload"}: `reload_model`/`reload_path` populated
    kError,     ///< `code`/`error` (+ id when echoed) are populated
  };

  Kind kind{Kind::kBlank};
  Request request;

  std::string reload_model;  ///< "" = the default model
  std::string reload_path;   ///< "" = the model's current backing path

  ErrCode code{ErrCode::kMalformed};
  std::string error;
  bool has_id{false};
  std::int64_t id{0};
};

/// Parse one protocol line. `input_numel` is the DEFAULT model's required
/// input length; `max_line_bytes` rejects oversized lines BEFORE JSON
/// parsing can amplify them (the JsonValue tree costs ~40x its input
/// bytes). A request naming a model is validated against `models`
/// (kError/not_found when the name is unknown -- or always, for a
/// single-model caller passing nullptr). A parsed request's absolute
/// deadline is stamped from "deadline_ms" when present, else from
/// `default_deadline_ms` (<= 0 = none). Never throws: malformed input
/// comes back as Kind::kError.
[[nodiscard]] ParsedLine parse_protocol_line(
    std::string_view line, std::int64_t input_numel,
    std::size_t max_line_bytes, std::int64_t default_deadline_ms,
    const ModelDirectory* models = nullptr);

}  // namespace mixq::serve
