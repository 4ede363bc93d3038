#include "serve/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "serve/json.hpp"
#include "serve/net/fault_injector.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace mixq::serve {

Dispatcher::Dispatcher(ModelRegistry& registry, const ServeConfig& cfg,
                       std::size_t queue_depth, std::int64_t retry_after_ms,
                       FaultInjector* faults, Sink sink)
    : reg_(registry),
      default_numel_(registry.default_model()->input_numel()),
      max_line_bytes_(256 +
                      32 * static_cast<std::size_t>(registry.max_input_numel())),
      default_deadline_ms_(cfg.default_deadline_ms),
      queue_depth_(queue_depth),
      retry_after_ms_(retry_after_ms),
      faults_(faults),
      sink_(std::move(sink)),
      batcher_(queue_, BatcherConfig{cfg.max_batch}) {}

Dispatcher::~Dispatcher() { drain(); }

void Dispatcher::start(std::function<void()> on_exit) {
  on_exit_ = std::move(on_exit);
  worker_ = std::thread([this] {
    work();
    if (on_exit_) on_exit_();
  });
}

void Dispatcher::close() { queue_.close(); }

void Dispatcher::drain() {
  queue_.close();
  std::lock_guard<std::mutex> lock(join_mu_);
  if (worker_.joinable()) worker_.join();
}

// ---------------------------------------------------------------------------
// Lines and admission
// ---------------------------------------------------------------------------

Dispatcher::Handled Dispatcher::handle_line(int client, std::string_view line) {
  ParsedLine p = parse_protocol_line(line, default_numel_, max_line_bytes_,
                                     default_deadline_ms_, &reg_.directory());
  Handled h;
  switch (p.kind) {
    case ParsedLine::Kind::kBlank:
      return h;
    case ParsedLine::Kind::kError:
      h.reply = refuse(p.code, p.error, p.has_id ? &p.id : nullptr);
      break;
    case ParsedLine::Kind::kInfo:
      h.reply = info_line();
      break;
    case ParsedLine::Kind::kHealth:
      h.reply = "{\"health\":" + reg_.health_json() + "}";
      break;
    case ParsedLine::Kind::kStats:
      h.action = Action::kStats;
      return h;
    case ParsedLine::Kind::kShutdown:
      h.action = Action::kShutdown;
      return h;
    case ParsedLine::Kind::kReload:
      if (queue_.closed()) {
        h.reply = refuse(ErrCode::kShuttingDown, "server is shutting down",
                         nullptr);
        break;
      }
      h.action = Action::kReload;
      h.model = std::move(p.reload_model);
      h.path = std::move(p.reload_path);
      return h;
    case ParsedLine::Kind::kRequest:
      h.reply = admit(client, std::move(p.request));
      if (h.reply.empty()) {
        h.action = Action::kQueued;
        return h;
      }
      break;
  }
  h.action = Action::kReply;
  return h;
}

std::string Dispatcher::admit(int client, Request r) {
  const std::int64_t rid = r.id;
  r.client = client;
  // Pin the CURRENT generation: the worker executes against exactly this
  // plan even if a reload swaps the slot while the request is queued.
  r.route = reg_.resolve(r.model);
  if (r.route == nullptr) {
    return refuse(ErrCode::kNotFound, "unknown model \"" + r.model + "\"",
                  &rid);
  }
  // Counted BEFORE the push: the worker may answer and count the response
  // the instant the request is queued, and a stats snapshot must never
  // show responses > requests.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }
  reg_.record_admitted(*r.route);
  const std::shared_ptr<const ServableModel> route = r.route;
  const PushResult pushed = queue_.push_bounded(std::move(r), queue_depth_);
  if (pushed == PushResult::kOk) return {};
  reg_.record_shed(*route);
  std::lock_guard<std::mutex> lock(stats_mu_);
  --stats_.requests;
  if (pushed == PushResult::kOverflow) {
    ++stats_.shed;
    return format_error_line(
        ErrCode::kOverloaded,
        "queue depth " + std::to_string(queue_depth_) + " reached", &rid,
        retry_after_ms_);
  }
  ++stats_.errors;
  return format_error_line(ErrCode::kShuttingDown, "server is shutting down",
                           &rid);
}

std::string Dispatcher::refuse(ErrCode code, std::string_view why,
                               const std::int64_t* id) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
  }
  return format_error_line(code, why, id);
}

std::string Dispatcher::line_too_long() {
  return refuse(ErrCode::kMalformed, "request line too long", nullptr);
}

std::string Dispatcher::reload(const std::string& model,
                               const std::string& path) {
  const ReloadResult rr = reg_.reload(model, path);
  if (!rr.ok) {
    return refuse(rr.not_found ? ErrCode::kNotFound : ErrCode::kReloadFailed,
                  rr.error, nullptr);
  }
  std::string line = "{\"ok\":\"reload\",\"model\":";
  append_json_string(line, rr.model);
  line += ",\"generation\":" + std::to_string(rr.generation);
  line += ",\"format_version\":" + std::to_string(rr.format_version);
  line += "}";
  return line;
}

std::string Dispatcher::info_line() const {
  // Legacy top-level fields describe the DEFAULT model (single-model
  // clients keep parsing them); "models" carries per-model metadata.
  const std::shared_ptr<const ServableModel> def = reg_.default_model();
  const runtime::QuantizedNet& net = def->net;
  const Shape& in = def->input_shape();
  std::string line = "{\"info\":{\"layers\":";
  line += std::to_string(net.layers.size());
  line += ",\"input\":[" + std::to_string(in.h) + "," + std::to_string(in.w) +
          "," + std::to_string(in.c) + "]";
  line += ",\"classes\":" + std::to_string(def->classes());
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

ServeStats Dispatcher::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::string Dispatcher::stats_line(std::string object) const {
  object.pop_back();  // reopen the object to splice "models" in
  return "{\"stats\":" + object + ",\"models\":" + reg_.stats_json() + "}}";
}

// ---------------------------------------------------------------------------
// Batch worker
// ---------------------------------------------------------------------------

void Dispatcher::work() {
  std::vector<Request> batch;
  std::vector<Request> live;
  std::vector<Reply> out;
  while (batcher_.next_batch(batch)) {
    if (faults_ != nullptr) faults_->maybe_delay_flush();
    // Deadline gate: a request that expired while queued is answered
    // HERE, before inference, so it never occupies a batch slot.
    const auto now = Clock::now();
    live.clear();
    std::int64_t expired = 0;
    std::int64_t failed = 0;
    for (Request& r : batch) {
      if (r.expired(now)) {
        out.push_back({r.client, format_error_line(
                                     ErrCode::kTimeout,
                                     "deadline expired before execution",
                                     &r.id)});
        reg_.record_timeout(*r.route);
        ++expired;
      } else if (faults_ != nullptr && faults_->should_fail_exec()) {
        out.push_back({r.client, format_error_line(
                                     ErrCode::kInternal,
                                     "injected transient executor fault",
                                     &r.id)});
        reg_.record_error(*r.route);
        ++failed;
      } else {
        live.push_back(std::move(r));
      }
    }
    if (!live.empty()) {
      try {
        infer_grouped(live);
      } catch (const std::exception& e) {
        // A real executor failure: answer every request retryably rather
        // than taking the daemon down.
        for (const Request& r : live) {
          out.push_back(
              {r.client, format_error_line(ErrCode::kInternal, e.what(),
                                           &r.id)});
          reg_.record_error(*r.route);
          ++failed;
        }
        live.clear();
      }
    }
    const auto done = Clock::now();
    for (std::size_t i = 0; i < live.size(); ++i) {
      out.push_back(
          {live[i].client, format_result_line(live[i].id, results_[i])});
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.timeouts += expired;
      stats_.errors += failed;
      if (!live.empty()) {
        ++stats_.batches;
        stats_.responses += static_cast<std::int64_t>(live.size());
        stats_.max_batch_fill = std::max(
            stats_.max_batch_fill, static_cast<std::int64_t>(live.size()));
        for (const Request& r : live) {
          const double us =
              std::chrono::duration<double, std::micro>(done - r.enqueued)
                  .count();
          reg_.record_response(*r.route, us);
          stats_.record_latency(us);
        }
      }
    }
    sink_(out);
    out.clear();
  }
}

void Dispatcher::infer_grouped(const std::vector<Request>& batch) {
  // A micro-batch may mix models (and generations mid-reload): execute
  // group by group against each request's PINNED route, results staying
  // in admission order.
  results_.clear();
  results_.resize(batch.size());
  std::vector<const ServableModel*> ran;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ServableModel* m = batch[i].route.get();
    if (std::find(ran.begin(), ran.end(), m) != ran.end()) continue;
    ran.push_back(m);
    group_.clear();
    for (std::size_t j = i; j < batch.size(); ++j) {
      if (batch[j].route.get() == m) group_.push_back(j);
    }
    reg_.infer_indices(*m, batch, group_, results_);
  }
}

}  // namespace mixq::serve
