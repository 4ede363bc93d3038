#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <istream>
#include <mutex>
#include <ostream>

#include "serve/dispatcher.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"

namespace mixq::serve {

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

void ServeStats::record_latency(double us, std::size_t cap) {
  if (latency_us.size() < cap) {
    latency_us.push_back(us);
    return;
  }
  latency_us[latency_next] = us;
  latency_next = (latency_next + 1) % latency_us.size();
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
  // One mutex for the one output stream: the reader (errors, info, stats,
  // reloads) and the batch worker (one hand-over per batch) both write.
  std::mutex out_mu;
  const auto write = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(out_mu);
    out << line << '\n';
    out.flush();
  };
  Dispatcher core(*registry_, cfg_, kUnboundedQueue, /*retry_after_ms=*/-1,
                  /*faults=*/nullptr, [&](std::vector<Reply>& replies) {
                    std::lock_guard<std::mutex> lock(out_mu);
                    for (const Reply& r : replies) out << r.line << '\n';
                    out.flush();
                  });
  core.start();
  std::string line;
  bool shutdown_cmd = false;
  while (!shutdown_cmd) {
    const LineRead r = read_line_bounded(in, line, core.max_line_bytes());
    if (r == LineRead::kEof) break;
    if (r == LineRead::kTooLong) {
      write(core.line_too_long());
      continue;
    }
    Dispatcher::Handled h = core.handle_line(kClientLocal, line);
    switch (h.action) {
      case Dispatcher::Action::kNone:
      case Dispatcher::Action::kQueued:
        break;
      case Dispatcher::Action::kReply:
        write(h.reply);
        break;
      case Dispatcher::Action::kStats:
        write(core.stats_line(core.stats().json()));
        break;
      case Dispatcher::Action::kReload:
        // Inline: validate-then-swap never touches the batch worker, so
        // serving continues underneath, and every later line is admitted
        // against the new generation.
        write(core.reload(h.model, h.path));
        break;
      case Dispatcher::Action::kShutdown:
        shutdown_cmd = true;
        break;
    }
  }
  core.drain();
  if (shutdown_cmd) write("{\"ok\":\"shutdown\"}");
  return core.stats();
}

}  // namespace mixq::serve
