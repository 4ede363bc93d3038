#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <functional>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

#ifndef _WIN32
#include <cerrno>
#include <csignal>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace mixq::serve {

// ---------------------------------------------------------------------------
// InferenceSession
// ---------------------------------------------------------------------------

InferenceSession::InferenceSession(const runtime::QuantizedNet& net,
                                   int threads)
    : exec_(net, /*fast=*/true) {
  // Compile the plan now so the first served request pays no compilation
  // latency (idempotent and thread-safe).
  exec_.warm_up();
  plan_ = &exec_.plan();
  int lanes = threads;
  if (lanes <= 0) lanes = runtime::ThreadPool::hardware_lanes();
  pool_ = std::make_unique<runtime::ThreadPool>(lanes);
  arenas_.reserve(static_cast<std::size_t>(pool_->lanes()));
  for (int i = 0; i < pool_->lanes(); ++i) {
    arenas_.push_back(std::make_unique<runtime::PlanArenas>(*plan_));
  }
}

InferenceSession::~InferenceSession() = default;

const runtime::QuantizedNet& InferenceSession::net() const {
  return exec_.net();
}

const Shape& InferenceSession::input_shape() const {
  return exec_.input_shape();
}

std::int64_t InferenceSession::input_numel() const {
  return input_shape().numel();
}

int InferenceSession::lanes() const { return pool_->lanes(); }

void InferenceSession::infer_batch(
    const std::vector<Request>& batch,
    std::vector<runtime::QInferenceResult>& out) {
  out.resize(batch.size());
  const auto n = static_cast<std::int64_t>(batch.size());
  pool_->parallel_for_dynamic(n, [&](int lane, std::int64_t i) {
    out[static_cast<std::size_t>(i)] = plan_->run_sample(
        batch[static_cast<std::size_t>(i)].input.data(), *arenas_[lane]);
  });
}

runtime::QInferenceResult InferenceSession::infer(const float* sample) {
  return plan_->run_sample(sample, *arenas_[0]);
}

// ---------------------------------------------------------------------------
// Shared line formatting
// ---------------------------------------------------------------------------

std::string format_result_line(std::int64_t id,
                               const runtime::QInferenceResult& r) {
  std::string line = "{\"id\":";
  line += std::to_string(id);
  line += ",\"predicted\":";
  line += std::to_string(r.predicted);
  line += ",\"logits\":[";
  for (std::size_t i = 0; i < r.logits.size(); ++i) {
    if (i > 0) line.push_back(',');
    append_json_float(line, r.logits[i]);
  }
  line += "]}";
  return line;
}

std::string format_request_line(std::int64_t id, const float* input,
                                std::int64_t numel) {
  std::string line = "{\"id\":";
  line += std::to_string(id);
  line += ",\"input\":[";
  for (std::int64_t i = 0; i < numel; ++i) {
    if (i > 0) line.push_back(',');
    append_json_float(line, input[i]);
  }
  line += "]}";
  return line;
}

// ---------------------------------------------------------------------------
// ServeStats
// ---------------------------------------------------------------------------

namespace {

std::size_t percentile_index(double p, std::size_t n) {
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  return static_cast<std::size_t>(
      clamped / 100.0 * static_cast<double>(n - 1) + 0.5);
}

/// p50/p95/p99 from one sorted copy (a stats request would otherwise copy
/// the latency vector once per percentile).
std::array<double, 3> percentile_triple(const std::vector<double>& lat) {
  if (lat.empty()) return {0.0, 0.0, 0.0};
  std::vector<double> v = lat;
  std::sort(v.begin(), v.end());
  return {v[percentile_index(50, v.size())],
          v[percentile_index(95, v.size())],
          v[percentile_index(99, v.size())]};
}

}  // namespace

double ServeStats::latency_percentile_us(double p) const {
  if (latency_us.empty()) return 0.0;
  std::vector<double> v = latency_us;
  const auto idx = percentile_index(p, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double ServeStats::latency_mean_us() const {
  if (latency_us.empty()) return 0.0;
  double s = 0.0;
  for (const double l : latency_us) s += l;
  return s / static_cast<double>(latency_us.size());
}

std::string ServeStats::json() const {
  std::string out = "{\"requests\":";
  out += std::to_string(requests);
  out += ",\"responses\":";
  out += std::to_string(responses);
  out += ",\"errors\":";
  out += std::to_string(errors);
  out += ",\"timeouts\":";
  out += std::to_string(timeouts);
  out += ",\"shed\":";
  out += std::to_string(shed);
  out += ",\"batches\":";
  out += std::to_string(batches);
  out += ",\"max_batch_fill\":";
  out += std::to_string(max_batch_fill);
  out += ",\"mean_batch_fill\":";
  append_json_double(out, mean_batch_fill());
  out += ",\"latency_mean_us\":";
  append_json_double(out, latency_mean_us());
  const auto [p50, p95, p99] = percentile_triple(latency_us);
  out += ",\"latency_p50_us\":";
  append_json_double(out, p50);
  out += ",\"latency_p95_us\":";
  append_json_double(out, p95);
  out += ",\"latency_p99_us\":";
  append_json_double(out, p99);
  out += "}";
  return out;
}

std::string ServeStats::str() const {
  std::string s;
  s += "requests: " + std::to_string(requests) +
       ", responses: " + std::to_string(responses) +
       ", errors: " + std::to_string(errors) +
       ", timeouts: " + std::to_string(timeouts) +
       ", shed: " + std::to_string(shed) + "\n";
  s += "batches: " + std::to_string(batches) + " (mean fill " +
       std::to_string(mean_batch_fill()) + ", max fill " +
       std::to_string(max_batch_fill) + ")\n";
  const auto [p50, p95, p99] = percentile_triple(latency_us);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency: mean %.1f us, p50 %.1f us, p95 %.1f us, p99 %.1f us\n",
                latency_mean_us(), p50, p95, p99);
  s += buf;
  return s;
}

// ---------------------------------------------------------------------------
// Protocol engine (shared by the stream and socket front-ends)
// ---------------------------------------------------------------------------

namespace {

/// Cap on recorded per-request latencies: a ring of the most recent 64K
/// samples, so percentiles track the current window and a stats snapshot
/// copies at most ~512 KiB under the stats lock.
constexpr std::size_t kMaxLatencySamples = 1u << 16;

class Engine {
 public:
  using WriteFn = std::function<void(int client, const std::string& line)>;

  Engine(ModelRegistry& registry, const ServeConfig& cfg, WriteFn write)
      : reg_(registry),
        default_numel_(registry.default_model()->input_numel()),
        batcher_(queue_, BatcherConfig{cfg.max_batch, cfg.max_wait_us}),
        write_(std::move(write)),
        cfg_default_deadline_ms_(cfg.default_deadline_ms) {}

  /// Unwind safety: a throw between start() and drain_and_stop() must
  /// join the worker, not destroy a joinable thread (std::terminate).
  ~Engine() { drain_and_stop(); }

  /// Upper bound on an acceptable request line. A well-formed request is
  /// at most ~17 bytes per float plus punctuation; anything much larger
  /// is rejected BEFORE parse_json, because the JsonValue tree amplifies
  /// input bytes ~40x -- the daemon-side analogue of the flash loader's
  /// "a declared count can never outgrow the bytes that carry it" rule.
  [[nodiscard]] std::size_t max_line_bytes() const {
    return 256 + 32 * static_cast<std::size_t>(reg_.max_input_numel());
  }

  void start() {
    worker_ = std::thread([this] { worker_loop(); });
  }

  /// Process one protocol line from `client`. Returns false when the line
  /// asked for shutdown (the caller should stop reading and drain).
  bool handle_line(int client, const std::string& line) {
    ParsedLine p = parse_protocol_line(line, default_numel_,
                                       max_line_bytes(),
                                       cfg_default_deadline_ms_,
                                       &reg_.directory());
    switch (p.kind) {
      case ParsedLine::Kind::kBlank:
        return true;  // blank lines are ignored, not errors
      case ParsedLine::Kind::kShutdown:
        return false;
      case ParsedLine::Kind::kStats: {
        // The engine-wide object plus a per-model breakdown.
        std::string s = stats_snapshot().json();
        s.pop_back();  // reopen the object to splice "models" in
        s += ",\"models\":" + reg_.stats_json() + "}";
        write(client, "{\"stats\":" + s + "}");
        return true;
      }
      case ParsedLine::Kind::kInfo:
        write(client, info_line());
        return true;
      case ParsedLine::Kind::kHealth:
        write(client, "{\"health\":" + reg_.health_json() + "}");
        return true;
      case ParsedLine::Kind::kReload:
        // Synchronous on the reader thread: the stdio/unix front-ends have
        // no event loop to hand the work to, and validate-then-swap never
        // touches the batch worker, so serving continues underneath.
        handle_reload(client, p.reload_model, p.reload_path);
        return true;
      case ParsedLine::Kind::kError:
        write(client, p.error_line());
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.errors;
        }
        return true;
      case ParsedLine::Kind::kRequest:
        break;
    }
    Request r = std::move(p.request);
    const std::int64_t rid = r.id;
    r.client = client;
    // Pin the CURRENT generation at admission: the batch worker executes
    // against exactly this plan even if a reload swaps the slot later.
    r.route = reg_.resolve(r.model);
    if (r.route == nullptr) {
      write(client, format_error_line(ErrCode::kNotFound,
                                      "unknown model \"" + r.model + "\"",
                                      &rid));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.errors;
      return true;
    }
    // Counted BEFORE the push: the worker may complete and count the
    // response the instant the request is queued, and a stats snapshot
    // must never show responses > requests.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests;
    }
    reg_.record_admitted(*r.route);
    const std::shared_ptr<const ServableModel> route = r.route;
    if (!queue_.push(std::move(r))) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        --stats_.requests;
      }
      reg_.record_shed(*route);
      write(client, format_error_line(ErrCode::kShuttingDown,
                                      "server is shutting down", &rid));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.errors;
      return true;
    }
    return true;
  }

  /// {"cmd":"reload"}: validate-then-swap via the registry; the response
  /// is either the new generation or a structured reload_failed /
  /// not_found error. Serving is never interrupted either way.
  void handle_reload(int client, const std::string& model,
                     const std::string& path) {
    const ReloadResult rr = reg_.reload(model, path);
    if (rr.ok) {
      std::string line = "{\"ok\":\"reload\",\"model\":";
      append_json_string(line, rr.model);
      line += ",\"generation\":" + std::to_string(rr.generation);
      line += ",\"format_version\":" + std::to_string(rr.format_version);
      line += "}";
      write(client, line);
      return;
    }
    write(client,
          format_error_line(
              rr.not_found ? ErrCode::kNotFound : ErrCode::kReloadFailed,
              rr.error, nullptr));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
  }

  /// Close the queue, let the worker drain every accepted request, and
  /// join it. Idempotent and safe to call from multiple threads (e.g. two
  /// clients racing to send shutdown).
  void drain_and_stop() {
    queue_.close();
    std::lock_guard<std::mutex> lock(join_mu_);
    if (worker_.joinable()) worker_.join();
  }

  [[nodiscard]] ServeStats stats_snapshot() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

  /// Serialization of concurrent writers (the protocol reader emitting
  /// errors vs the batch worker emitting responses) is the WriteFn's
  /// responsibility: the stdio front-end guards its one ostream with one
  /// mutex, while the socket front-end locks per connection -- a stalled
  /// client there must block only its own connection, never the daemon.
  void write(int client, const std::string& line) { write_(client, line); }

  /// For front-ends that detect a protocol violation before handle_line
  /// (e.g. an over-cap line discarded during streaming): emits the error
  /// response and counts it.
  void protocol_error(int client, const char* why) {
    emit_error(client, why, nullptr);
  }

 private:
  void emit_error(int client, const char* why, const JsonValue* id) {
    std::int64_t id_val = 0;
    const bool has_id = id != nullptr && id->is_integer();
    if (has_id) id_val = id->as_integer();
    write(client, format_error_line(ErrCode::kMalformed, why,
                                    has_id ? &id_val : nullptr));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
  }

  std::string info_line() const {
    // Legacy top-level fields describe the DEFAULT model (existing
    // single-model clients keep parsing them); "models" carries the full
    // per-model metadata including image format version and codec summary.
    const std::shared_ptr<const ServableModel> def = reg_.default_model();
    const runtime::QuantizedNet& net = def->net;
    const Shape& in = net.layers.front().in_shape;
    std::string line = "{\"info\":{\"layers\":";
    line += std::to_string(net.layers.size());
    line += ",\"input\":[" + std::to_string(in.h) + "," +
            std::to_string(in.w) + "," + std::to_string(in.c) + "]";
    line += ",\"classes\":" +
            std::to_string(net.layers.back().out_shape.c);
    line += ",\"ro_bytes\":" + std::to_string(net.ro_bytes());
    line += ",\"rw_peak_bytes\":" + std::to_string(net.rw_peak_bytes());
    line += ",\"lanes\":" + std::to_string(reg_.lanes());
    line += ",\"format_version\":" + std::to_string(def->image.version);
    line += ",\"default\":";
    append_json_string(line, reg_.default_name());
    line += ",\"models\":" + reg_.models_info_json();
    line += "}}";
    return line;
  }

  void worker_loop() {
    std::vector<Request> batch;
    std::vector<runtime::QInferenceResult> results;
    std::vector<std::size_t> group;
    while (batcher_.next_batch(batch)) {
      // Deadline gate: a request that expired while queued (or during the
      // batch window) is answered with a structured timeout error HERE,
      // before inference, so it never occupies a batch slot.
      {
        const auto now = Clock::now();
        std::size_t kept = 0;
        std::int64_t expired = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch[i].expired(now)) {
            write(batch[i].client,
                  format_error_line(ErrCode::kTimeout,
                                    "deadline expired before execution",
                                    &batch[i].id));
            reg_.record_timeout(*batch[i].route);
            ++expired;
          } else {
            if (kept != i) batch[kept] = std::move(batch[i]);
            ++kept;
          }
        }
        if (expired > 0) {
          batch.resize(kept);
          std::lock_guard<std::mutex> lock(stats_mu_);
          stats_.timeouts += expired;
        }
        if (batch.empty()) continue;
      }
      infer_grouped(batch, results, group);
      const auto done = Clock::now();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        write(batch[i].client,
              format_result_line(batch[i].id, results[i]));
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.batches;
      stats_.responses += static_cast<std::int64_t>(batch.size());
      stats_.max_batch_fill = std::max(
          stats_.max_batch_fill, static_cast<std::int64_t>(batch.size()));
      for (const Request& r : batch) {
        const double us =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                done - r.enqueued)
                .count() /
            1e3;
        reg_.record_response(*r.route, us);
        if (stats_.latency_us.size() < kMaxLatencySamples) {
          stats_.latency_us.push_back(us);
        } else {
          stats_.latency_us[latency_ring_next_] = us;
          latency_ring_next_ = (latency_ring_next_ + 1) % kMaxLatencySamples;
        }
      }
    }
  }

  /// Execute a micro-batch that may mix models (and generations): group
  /// by pinned route, run each group across the pool, keep results in
  /// admission order. Single-route batches take the whole-batch fast path.
  void infer_grouped(const std::vector<Request>& batch,
                     std::vector<runtime::QInferenceResult>& results,
                     std::vector<std::size_t>& group) {
    bool mixed = false;
    for (std::size_t i = 1; i < batch.size(); ++i) {
      if (batch[i].route != batch[0].route) {
        mixed = true;
        break;
      }
    }
    if (!mixed) {
      reg_.infer_batch(*batch[0].route, batch, results);
      return;
    }
    results.clear();
    results.resize(batch.size());
    std::vector<const ServableModel*> done;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const ServableModel* m = batch[i].route.get();
      if (std::find(done.begin(), done.end(), m) != done.end()) continue;
      done.push_back(m);
      group.clear();
      for (std::size_t j = i; j < batch.size(); ++j) {
        if (batch[j].route.get() == m) group.push_back(j);
      }
      reg_.infer_indices(*m, batch, group, results);
    }
  }

  // The registry (and its pool) is owned by the front-end and must
  // outlive `worker_`; member order within the engine is load-bearing.
  ModelRegistry& reg_;
  std::int64_t default_numel_;
  RequestQueue queue_;
  MicroBatcher batcher_;
  WriteFn write_;
  std::int64_t cfg_default_deadline_ms_{0};
  mutable std::mutex stats_mu_;
  ServeStats stats_;
  std::size_t latency_ring_next_{0};
  std::mutex join_mu_;
  std::thread worker_;
};

}  // namespace

// ---------------------------------------------------------------------------
// StreamServer
// ---------------------------------------------------------------------------

StreamServer::StreamServer(const runtime::QuantizedNet& net, ServeConfig cfg)
    : cfg_(cfg) {
  owned_ = std::make_unique<ModelRegistry>(cfg.threads);
  owned_->add_model("default", net);
  registry_ = owned_.get();
}

StreamServer::StreamServer(ModelRegistry& registry, ServeConfig cfg)
    : registry_(&registry), cfg_(cfg) {}

StreamServer::~StreamServer() = default;

namespace {

enum class LineRead { kOk, kTooLong, kEof };

/// getline with a memory bound: past `cap` bytes the remainder of the
/// line is discarded (bounded, streaming) instead of buffered -- the
/// stdio analogue of the socket reader's pending-size cap.
LineRead read_line_bounded(std::istream& in, std::string& line,
                           std::size_t cap) {
  line.clear();
  int c;
  while ((c = in.get()) != std::char_traits<char>::eof()) {
    if (c == '\n') return LineRead::kOk;
    if (line.size() >= cap) {
      while ((c = in.get()) != std::char_traits<char>::eof() && c != '\n') {
      }
      return LineRead::kTooLong;
    }
    line.push_back(static_cast<char>(c));
  }
  return line.empty() ? LineRead::kEof : LineRead::kOk;
}

}  // namespace

ServeStats StreamServer::serve(std::istream& in, std::ostream& out) {
  // One mutex for the one output stream: the protocol reader (errors,
  // info/stats) and the batch worker (responses) both write here.
  std::mutex out_mu;
  Engine engine(*registry_, cfg_,
                [&out, &out_mu](int, const std::string& line) {
    std::lock_guard<std::mutex> lock(out_mu);
    out << line << '\n';
    out.flush();
  });
  engine.start();
  std::string line;
  bool shutdown_cmd = false;
  while (true) {
    const LineRead r = read_line_bounded(in, line, engine.max_line_bytes());
    if (r == LineRead::kEof) break;
    if (r == LineRead::kTooLong) {
      engine.protocol_error(kClientLocal, "request line too long");
      continue;
    }
    if (!engine.handle_line(kClientLocal, line)) {
      shutdown_cmd = true;
      break;
    }
  }
  engine.drain_and_stop();
  if (shutdown_cmd) engine.write(kClientLocal, "{\"ok\":\"shutdown\"}");
  return engine.stats_snapshot();
}

// ---------------------------------------------------------------------------
// AF_UNIX daemon
// ---------------------------------------------------------------------------

#ifndef _WIN32

namespace {

/// Send one response line, retrying EINTR and resuming partial writes.
/// Returns false when the client is unusable -- disconnected, or so slow
/// its socket buffer stayed full past the SO_SNDTIMEO send timeout. The
/// caller then writes the connection off: a stalled consumer costs the
/// (single) batch worker at most one timeout, never a livelock, and only
/// its own responses are lost.
bool send_all(int fd, const std::string& line) {
  std::string buf = line;
  buf.push_back('\n');
  std::size_t off = 0;
  while (off < buf.size()) {
#ifdef MSG_NOSIGNAL
    const auto n = ::send(fd, buf.data() + off, buf.size() - off,
                          MSG_NOSIGNAL);
#else
    const auto n = ::send(fd, buf.data() + off, buf.size() - off, 0);
#endif
    if (n < 0 && errno == EINTR) continue;  // signal, not failure: retry
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// recv with an EINTR retry loop: a signal delivery (SIGTERM forwarded to
/// a thread, a profiler tick) must not be mistaken for a disconnect.
ssize_t recv_retry(int fd, char* buf, std::size_t n) {
  while (true) {
    const auto r = ::recv(fd, buf, n, 0);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

/// Per-connection send timeout (see send_all).
constexpr long kSendTimeoutSec = 5;

}  // namespace

ServeStats serve_unix_socket(const runtime::QuantizedNet& net,
                             const ServeConfig& cfg,
                             const std::string& socket_path,
                             std::ostream* log) {
  ModelRegistry registry(cfg.threads);
  registry.add_model("default", net);
  return serve_unix_socket(registry, cfg, socket_path, log);
}

ServeStats serve_unix_socket(ModelRegistry& registry, const ServeConfig& cfg,
                             const std::string& socket_path,
                             std::ostream* log) {
  // A write to a freshly disconnected client must produce an error, not
  // SIGPIPE's default process kill. MSG_NOSIGNAL already covers the
  // send() calls where available, but ignoring the signal as well keeps a
  // dead client from killing the daemon through any other write path.
  ::signal(SIGPIPE, SIG_IGN);
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + socket_path);
  }
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) throw std::runtime_error("serve: socket() failed");
  addr.sun_family = AF_UNIX;
  socket_path.copy(addr.sun_path, socket_path.size());
  ::unlink(socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd);
    throw std::runtime_error("serve: cannot bind " + socket_path);
  }
  if (::listen(listen_fd, 16) != 0) {
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
    throw std::runtime_error("serve: listen() failed");
  }

  // client id -> connection, for response routing. Writers take a
  // shared_ptr under conns_mu and then send under the connection's own
  // lock: the fd cannot be closed-and-reused between lookup and send
  // (the reader marks it closed under the same per-connection lock), and
  // a stalled client blocks only its own connection, not the registry.
  struct Conn {
    int fd{-1};
    std::mutex mu;
    bool closed{false};
  };
  std::mutex conns_mu;
  std::vector<std::pair<int, std::shared_ptr<Conn>>> conns;
  const auto conn_of = [&](int client) -> std::shared_ptr<Conn> {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (const auto& [c, conn] : conns) {
      if (c == client) return conn;
    }
    return nullptr;
  };

  Engine engine(registry, cfg, [&](int client, const std::string& line) {
    const std::shared_ptr<Conn> conn = conn_of(client);
    if (!conn) return;  // client went away; its responses are dropped
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    if (!send_all(conn->fd, line)) {
      // Dead or hopelessly slow consumer: give up on the connection so
      // the batch worker never stalls on it again. SHUT_RDWR wakes its
      // reader, which performs the actual close/unregister.
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  });
  engine.start();
  if (log != nullptr) {
    *log << "mixq serve: listening on " << socket_path << "\n";
  }

  std::atomic<bool> shutdown{false};
  // One reader thread per connection. Finished readers are reaped on the
  // next accept() and at final shutdown, bounding the retained
  // exited-but-joinable threads by the connections of one idle period.
  struct Reader {
    std::thread t;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Reader> readers;
  std::mutex rejected_mu;
  std::int64_t rejected_conns = 0;
  const auto reap_finished = [&] {
    for (auto it = readers.begin(); it != readers.end();) {
      if (it->done->load()) {
        it->t.join();
        it = readers.erase(it);
      } else {
        ++it;
      }
    }
  };
  int next_client = 0;
  while (!shutdown.load()) {
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket shut down, or an unrecoverable error
    }
    // Bound how long a response write may block on this client.
    timeval send_timeout{};
    send_timeout.tv_sec = kSendTimeoutSec;
    ::setsockopt(conn_fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    reap_finished();
    // Admission control: past max_conns the connection is answered with a
    // structured retryable error and closed -- never an unbounded reader
    // thread per accept.
    {
      std::size_t live;
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        live = conns.size();
      }
      if (cfg.max_conns > 0 &&
          live >= static_cast<std::size_t>(cfg.max_conns)) {
        send_all(conn_fd,
                 format_error_line(
                     ErrCode::kOverloaded,
                     "connection limit " + std::to_string(cfg.max_conns) +
                         " reached",
                     nullptr, /*retry_after_ms=*/100));
        ::close(conn_fd);
        {
          std::lock_guard<std::mutex> lock(rejected_mu);
          ++rejected_conns;
        }
        continue;
      }
    }
    const int client = next_client++;
    auto conn = std::make_shared<Conn>();
    conn->fd = conn_fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      conns.emplace_back(client, conn);
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    readers.push_back(Reader{std::thread([&, conn_fd, client, conn, done] {
      std::string pending;
      char buf[4096];
      bool open = true;
      while (open) {
        const auto n = recv_retry(conn_fd, buf, sizeof(buf));
        if (n <= 0) break;
        pending.append(buf, static_cast<std::size_t>(n));
        // A client streaming an endless line (no newline) must not grow
        // the buffer without bound; over the engine's line cap the
        // connection is dropped.
        if (pending.find('\n') == std::string::npos &&
            pending.size() > engine.max_line_bytes()) {
          engine.protocol_error(client, "request line too long");
          break;
        }
        std::size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
          const std::string line = pending.substr(0, nl);
          pending.erase(0, nl + 1);
          if (!engine.handle_line(client, line)) {
            // Shutdown request: drain in-flight work, acknowledge, then
            // stop accepting and unblock every reader still parked in
            // recv() on an idle connection -- otherwise the join below
            // would wait forever on clients that never disconnect.
            engine.drain_and_stop();
            engine.write(client, "{\"ok\":\"shutdown\"}");
            shutdown.store(true);
            ::shutdown(listen_fd, SHUT_RDWR);
            {
              std::lock_guard<std::mutex> lock(conns_mu);
              for (const auto& [c, other] : conns) {
                if (c != client) ::shutdown(other->fd, SHUT_RD);
              }
            }
            open = false;
            break;
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        std::erase_if(conns,
                      [&](const auto& p) { return p.first == client; });
      }
      {
        // Mark closed under the connection lock so an in-flight response
        // writer can never touch the (soon recycled) fd.
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->closed = true;
        ::close(conn_fd);
      }
      done->store(true);
    }),
                            done});
  }

  // The accept loop has exited -- by shutdown command or an accept
  // failure -- so the connection set is final and the daemon is coming
  // down either way. Unblock every reader still parked in recv() on an
  // idle client (unconditional: gating this on the shutdown flag would
  // deadlock the joins below on the error path).
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (const auto& [c, conn] : conns) ::shutdown(conn->fd, SHUT_RD);
  }
  for (auto& r : readers) r.t.join();
  engine.drain_and_stop();  // idempotent; covers EOF-of-all-clients exits
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  ServeStats stats = engine.stats_snapshot();
  {
    std::lock_guard<std::mutex> lock(rejected_mu);
    stats.shed += rejected_conns;
  }
  return stats;
}

#endif  // !_WIN32

}  // namespace mixq::serve
