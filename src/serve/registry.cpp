#include "serve/registry.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "serve/json.hpp"
#include "serve/net/fault_injector.hpp"

namespace mixq::serve {

namespace {

/// Ring cap on per-model recorded latencies: smaller than the engine-wide
/// 64K ring because each model keeps its own.
constexpr std::size_t kModelLatencySamples = 1u << 13;

/// The pinned probe input a candidate model must survive before it may be
/// published: deterministic, full-range [0,1) values, identical for every
/// generation of a model (shapes are pinned, so the length never changes).
std::vector<float> pinned_probe_input(std::int64_t numel) {
  std::vector<float> probe(static_cast<std::size_t>(numel));
  std::uint32_t x = 0x9E3779B9u;
  for (auto& v : probe) {
    x = x * 1664525u + 1013904223u;  // LCG: cheap, stable across platforms
    v = static_cast<float>(x >> 8) * 0x1.0p-24f;
  }
  return probe;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("reload: cannot open " + path);
  const std::streamsize n = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
  if (n > 0 && !f.read(reinterpret_cast<char*>(bytes.data()), n)) {
    throw std::runtime_error("reload: cannot read " + path);
  }
  return bytes;
}

/// Atomic publication cell for the current ServableModel generation.
///
/// Functionally std::atomic<std::shared_ptr<const ServableModel>>, but built
/// on an explicit spinlock whose reader unlock is a RELEASE. libstdc++'s
/// _Sp_atomic unlocks the load() path with memory_order_relaxed (a reader
/// publishes nothing, so mutual exclusion alone keeps it correct), which
/// leaves no happens-before edge ThreadSanitizer can prove between a
/// reader's _M_ptr access and a later store's swap -- the race suite would
/// flag the library internals. The hot-path cost is identical: libstdc++'s
/// atomic<shared_ptr> is spinlock-based too, not lock-free.
class AtomicModelRef {
 public:
  [[nodiscard]] std::shared_ptr<const ServableModel> load() const {
    lock();
    std::shared_ptr<const ServableModel> r = ptr_;
    unlock();
    return r;
  }

  void store(std::shared_ptr<const ServableModel> next) {
    lock();
    ptr_.swap(next);
    unlock();
    // `next` now holds the previous generation; it releases OUTSIDE the
    // critical section -- dropping the last reference can unmap a flash
    // image, which must never happen under the spinlock.
  }

 private:
  void lock() const {
    while (lk_.test_and_set(std::memory_order_acquire)) {
#if defined(__i386__) || defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
  }
  void unlock() const { lk_.clear(std::memory_order_release); }

  mutable std::atomic_flag lk_ = ATOMIC_FLAG_INIT;
  std::shared_ptr<const ServableModel> ptr_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Slot
// ---------------------------------------------------------------------------

struct ModelRegistry::Slot {
  std::string name;
  std::string path;  ///< current backing image ("" = in-memory)
  runtime::FlashLoadLimits limits;

  /// RCU publication point: admission loads, reload stores. Everything
  /// else in the slot is bookkeeping under the registry mutex.
  AtomicModelRef current;

  /// Serializes reloads of THIS model (double-reload collapse: concurrent
  /// reloads validate and swap in turn; each sees the other's result).
  std::mutex reload_mu;

  /// Previous generations still pinned by in-flight requests. weak_ptr:
  /// retirement is the shared_ptr refcount hitting zero, this only
  /// observes it for the `draining` health state.
  std::vector<std::weak_ptr<const ServableModel>> retired;

  bool reloading{false};
  std::uint64_t generation{1};
  std::string last_error;
  std::int64_t reloads_ok{0};
  std::int64_t reloads_failed{0};

  ServeStats stats;
  std::size_t latency_ring_next{0};
  std::int64_t queued{0};  ///< admitted, not yet answered
};

// ---------------------------------------------------------------------------
// Construction / model loading
// ---------------------------------------------------------------------------

ModelRegistry::ModelRegistry(int threads) {
  int lanes = threads;
  if (lanes <= 0) lanes = runtime::ThreadPool::hardware_lanes();
  pool_ = std::make_unique<runtime::ThreadPool>(lanes);
}

ModelRegistry::~ModelRegistry() = default;

void ModelRegistry::probe_model(ServableModel& m, bool allow_faults) const {
  FaultInjector* inj = injector_.load(std::memory_order_acquire);
  if (allow_faults && inj != nullptr && inj->should_fail_reload_exec()) {
    throw std::runtime_error("injected reload validation fault");
  }
  const std::vector<float> probe = pinned_probe_input(m.input_numel());
  // Lane 0's arenas, on the CALLING thread: validation never borrows the
  // shared pool, so it cannot contend with the batch worker mid-reload.
  m.probe = m.plan->run_sample(probe.data(), *m.arenas[0]);
  if (static_cast<std::int64_t>(m.probe.logits.size()) != m.classes()) {
    throw std::runtime_error("validation probe returned " +
                             std::to_string(m.probe.logits.size()) +
                             " logits for " + std::to_string(m.classes()) +
                             " classes");
  }
  for (const float l : m.probe.logits) {
    if (!std::isfinite(l)) {
      throw std::runtime_error("validation probe produced non-finite logits");
    }
  }
  if (m.probe.predicted < 0 ||
      static_cast<std::int64_t>(m.probe.predicted) >= m.classes()) {
    throw std::runtime_error("validation probe predicted out-of-range class " +
                             std::to_string(m.probe.predicted));
  }
}

std::shared_ptr<const ServableModel> ModelRegistry::build_model(
    const std::string& name, const std::string& path,
    const runtime::FlashLoadLimits& limits, bool allow_faults) {
  auto m = std::make_shared<ServableModel>();
  m->name = name;
  m->path = path;
  FaultInjector* inj = injector_.load(std::memory_order_acquire);
  if (allow_faults && inj != nullptr && inj->should_truncate_reload()) {
    // Injected torn read: the image is cut mid-byte-stream, exactly what a
    // crashed publisher or interrupted copy leaves behind. The hardened
    // loader must refuse it (size/CRC/structure checks) -- this exercises
    // the same rejection path a real truncation would.
    std::vector<std::uint8_t> blob = read_file_bytes(path);
    blob.resize(blob.size() / 2);
    m->net = runtime::load_flash_image(blob, limits, &m->image);
  } else {
    // Zero-copy mmap load (PR 9): raw weight banks borrow the mapping,
    // whose keepalive rides the QLayer shared_ptrs inside `net` -- so the
    // mapping lives exactly as long as some generation references it.
    m->net = runtime::load_flash_image_mmap(path, limits, &m->image);
  }
  // Plan compilation decodes every entropy-coded section (deferred by the
  // mmap loader), so a corrupt v2 stream surfaces HERE, inside
  // validate-then-swap, never on the serving thread.
  m->plan = std::make_unique<runtime::ExecutionPlan>(m->net);
  m->arenas.reserve(static_cast<std::size_t>(pool_->lanes()));
  for (int i = 0; i < pool_->lanes(); ++i) {
    m->arenas.push_back(std::make_unique<runtime::PlanArenas>(*m->plan));
  }
  probe_model(*m, allow_faults);
  return m;
}

std::shared_ptr<const ServableModel> ModelRegistry::build_from_net(
    const std::string& name, const runtime::QuantizedNet& net) {
  auto m = std::make_shared<ServableModel>();
  m->name = name;
  m->net = net;  // copy; the caller's net stays theirs
  m->image.version = 0;  // no backing image
  m->plan = std::make_unique<runtime::ExecutionPlan>(m->net);
  m->arenas.reserve(static_cast<std::size_t>(pool_->lanes()));
  for (int i = 0; i < pool_->lanes(); ++i) {
    m->arenas.push_back(std::make_unique<runtime::PlanArenas>(*m->plan));
  }
  probe_model(*m, /*allow_faults=*/false);
  return m;
}

void ModelRegistry::add_model(const std::string& name, const std::string& path,
                              const runtime::FlashLoadLimits& limits) {
  if (name.empty()) {
    throw std::runtime_error("registry: model name must be non-empty");
  }
  if (find(name) != nullptr) {
    throw std::runtime_error("registry: duplicate model name \"" + name +
                             "\"");
  }
  std::shared_ptr<const ServableModel> m =
      build_model(name, path, limits, /*allow_faults=*/false);
  auto slot = std::make_unique<Slot>();
  slot->name = name;
  slot->path = path;
  slot->limits = limits;
  slot->current.store(m);
  directory_.numels.emplace_back(name, m->input_numel());
  if (slots_.empty()) default_name_ = name;
  slots_.push_back(std::move(slot));
}

void ModelRegistry::add_model(const std::string& name,
                              const runtime::QuantizedNet& net) {
  if (name.empty()) {
    throw std::runtime_error("registry: model name must be non-empty");
  }
  if (find(name) != nullptr) {
    throw std::runtime_error("registry: duplicate model name \"" + name +
                             "\"");
  }
  std::shared_ptr<const ServableModel> m = build_from_net(name, net);
  auto slot = std::make_unique<Slot>();
  slot->name = name;
  slot->current.store(m);
  directory_.numels.emplace_back(name, m->input_numel());
  if (slots_.empty()) default_name_ = name;
  slots_.push_back(std::move(slot));
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

ModelRegistry::Slot* ModelRegistry::find(std::string_view name) const {
  const std::string_view want = name.empty() ? default_name_ : name;
  for (const auto& s : slots_) {
    if (s->name == want) return s.get();
  }
  return nullptr;
}

std::shared_ptr<const ServableModel> ModelRegistry::resolve(
    std::string_view name) const {
  const Slot* s = find(name);
  if (s == nullptr) return nullptr;
  return s->current.load();
}

std::vector<std::string> ModelRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) out.push_back(s->name);
  return out;
}

std::int64_t ModelRegistry::max_input_numel() const {
  std::int64_t m = 0;
  for (const auto& [name, numel] : directory_.numels) {
    m = std::max(m, numel);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Reload: validate THEN swap.
// ---------------------------------------------------------------------------

ReloadResult ModelRegistry::reload(const std::string& name,
                                   const std::string& path,
                                   const runtime::FlashLoadLimits& limits) {
  ReloadResult res;
  Slot* s = find(name);
  if (s == nullptr) {
    res.not_found = true;
    res.model = name;
    res.error = "unknown model \"" + name + "\"";
    return res;
  }
  res.model = s->name;

  // One reload of this model at a time; a second concurrent reload waits
  // here and then validates against the first one's published result.
  std::lock_guard<std::mutex> reload_lock(s->reload_mu);

  std::string load_path = path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s->reloading = true;
    if (load_path.empty()) load_path = s->path;
  }
  const auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    s->reloading = false;
    s->last_error = why;
    ++s->reloads_failed;
    res.error = why;
    return res;
  };

  if (load_path.empty()) {
    return fail("model \"" + s->name +
                "\" has no backing image path; pass \"path\"");
  }

  const std::shared_ptr<const ServableModel> old = s->current.load();
  std::shared_ptr<const ServableModel> next;
  try {
    runtime::FlashLoadLimits use_limits = limits;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Startup limits stick unless the caller overrides.
      if (limits.max_activation_pair_bytes ==
              runtime::FlashLoadLimits{}.max_activation_pair_bytes &&
          limits.max_weight_bytes == runtime::FlashLoadLimits{}.max_weight_bytes) {
        use_limits = s->limits;
      }
    }
    next = build_model(s->name, load_path, use_limits, /*allow_faults=*/true);
  } catch (const std::exception& e) {
    return fail(e.what());
  }

  // Shape pinning: clients size their requests from the directory built at
  // startup, and the lock-free parse depends on it never changing. A
  // replacement with different input geometry or head width is an operator
  // error, not a hot swap.
  if (old != nullptr) {
    const Shape& a = old->input_shape();
    const Shape& b = next->input_shape();
    if (a.h != b.h || a.w != b.w || a.c != b.c) {
      return fail("input shape mismatch: serving " + a.str() + ", image has " +
                  b.str());
    }
    if (old->classes() != next->classes()) {
      return fail("class count mismatch: serving " +
                  std::to_string(old->classes()) + ", image has " +
                  std::to_string(next->classes()));
    }
  }

  if (FaultInjector* inj = injector_.load(std::memory_order_acquire))
    inj->maybe_delay_swap();

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Safe without atomics: generation only changes under reload_mu.
    const_cast<ServableModel&>(*next).generation = ++s->generation;
    s->path = load_path;
    s->reloading = false;
    s->last_error.clear();
    ++s->reloads_ok;
    if (old != nullptr) s->retired.emplace_back(old);
    // Prune generations whose last in-flight request has drained.
    std::erase_if(s->retired,
                  [](const std::weak_ptr<const ServableModel>& w) {
                    return w.expired();
                  });
  }
  // The swap: new admissions route here from this instant; requests
  // already routed to `old` finish on `old`, which retires (plan, arenas,
  // mmap borrow) when its last shared_ptr drops.
  s->current.store(next);

  res.ok = true;
  res.generation = next->generation;
  res.format_version = next->image.version;
  return res;
}

// ---------------------------------------------------------------------------
// Inference (single-caller: the batch worker)
// ---------------------------------------------------------------------------

void ModelRegistry::infer_batch(const ServableModel& m,
                                const std::vector<Request>& batch,
                                std::vector<runtime::QInferenceResult>& out) {
  out.resize(batch.size());
  const auto n = static_cast<std::int64_t>(batch.size());
  pool_->parallel_for_dynamic(n, [&](int lane, std::int64_t i) {
    out[static_cast<std::size_t>(i)] = m.plan->run_sample(
        batch[static_cast<std::size_t>(i)].input.data(), *m.arenas[lane]);
  });
}

void ModelRegistry::infer_indices(const ServableModel& m,
                                  const std::vector<Request>& batch,
                                  const std::vector<std::size_t>& idx,
                                  std::vector<runtime::QInferenceResult>& out) {
  const auto n = static_cast<std::int64_t>(idx.size());
  pool_->parallel_for_dynamic(n, [&](int lane, std::int64_t i) {
    const std::size_t k = idx[static_cast<std::size_t>(i)];
    out[k] = m.plan->run_sample(batch[k].input.data(), *m.arenas[lane]);
  });
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

void ModelRegistry::record_admitted(const ServableModel& m) {
  Slot* s = find(m.name);
  if (s == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++s->stats.requests;
  ++s->queued;
}

void ModelRegistry::record_shed(const ServableModel& m) {
  Slot* s = find(m.name);
  if (s == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  --s->stats.requests;
  --s->queued;
  ++s->stats.shed;
}

void ModelRegistry::record_response(const ServableModel& m,
                                    double latency_us) {
  Slot* s = find(m.name);
  if (s == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++s->stats.responses;
  --s->queued;
  if (s->stats.latency_us.size() < kModelLatencySamples) {
    s->stats.latency_us.push_back(latency_us);
  } else {
    s->stats.latency_us[s->latency_ring_next] = latency_us;
    s->latency_ring_next = (s->latency_ring_next + 1) % kModelLatencySamples;
  }
}

void ModelRegistry::record_timeout(const ServableModel& m) {
  Slot* s = find(m.name);
  if (s == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++s->stats.timeouts;
  --s->queued;
}

void ModelRegistry::record_error(const ServableModel& m) {
  Slot* s = find(m.name);
  if (s == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++s->stats.errors;
  --s->queued;
}

// ---------------------------------------------------------------------------
// JSON reporting
// ---------------------------------------------------------------------------

std::string ModelRegistry::stats_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& s : slots_) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, s->name);
    out += ":{\"queued\":" + std::to_string(s->queued);
    out += ",\"generation\":" + std::to_string(s->generation);
    out += ",\"reloads_ok\":" + std::to_string(s->reloads_ok);
    out += ",\"reloads_failed\":" + std::to_string(s->reloads_failed);
    out += ",\"stats\":" + s->stats.json();
    out += "}";
  }
  out += "}";
  return out;
}

std::string ModelRegistry::health_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  bool all_servable = true;
  std::string models = "{";
  bool first = true;
  for (const auto& s : slots_) {
    const std::shared_ptr<const ServableModel> cur = s->current.load();
    std::int64_t retiring = 0;
    for (const auto& w : s->retired) {
      if (!w.expired()) ++retiring;
    }
    const char* state = "ready";
    if (cur == nullptr) {
      state = "failed";
      all_servable = false;
    } else if (s->reloading) {
      state = "loading";
    } else if (retiring > 0) {
      state = "draining";
    }
    if (!first) models.push_back(',');
    first = false;
    append_json_string(models, s->name);
    models += ":{\"state\":\"";
    models += state;
    models += "\",\"generation\":" + std::to_string(s->generation);
    models += ",\"queued\":" + std::to_string(s->queued);
    models += ",\"retiring\":" + std::to_string(retiring);
    models += ",\"reloads_ok\":" + std::to_string(s->reloads_ok);
    models += ",\"reloads_failed\":" + std::to_string(s->reloads_failed);
    if (cur != nullptr) {
      models += ",\"format_version\":" + std::to_string(cur->image.version);
    }
    if (!s->last_error.empty()) {
      models += ",\"last_error\":";
      append_json_string(models, s->last_error);
    }
    models += "}";
  }
  models += "}";
  std::string out = "{\"status\":\"";
  out += all_servable ? "ok" : "degraded";
  out += "\",\"default\":";
  append_json_string(out, default_name_);
  out += ",\"models\":" + models + "}";
  return out;
}

std::string ModelRegistry::models_info_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& s : slots_) {
    const std::shared_ptr<const ServableModel> m = s->current.load();
    if (m == nullptr) continue;
    if (!first) out.push_back(',');
    first = false;
    const Shape& in = m->input_shape();
    append_json_string(out, s->name);
    out += ":{\"layers\":" + std::to_string(m->net.layers.size());
    out += ",\"input\":[" + std::to_string(in.h) + "," +
           std::to_string(in.w) + "," + std::to_string(in.c) + "]";
    out += ",\"classes\":" + std::to_string(m->classes());
    out += ",\"generation\":" + std::to_string(m->generation);
    out += ",\"format_version\":" + std::to_string(m->image.version);
    std::int64_t raw = 0;
    std::int64_t huff = 0;
    for (const auto& l : m->image.layers) {
      if (l.codec == 1) {
        ++huff;
      } else {
        ++raw;
      }
    }
    out += ",\"codec\":{\"raw\":" + std::to_string(raw) +
           ",\"huffman\":" + std::to_string(huff) + "}";
    out += ",\"weight_raw_bytes\":" +
           std::to_string(m->image.weight_raw_bytes);
    out += ",\"weight_stored_bytes\":" +
           std::to_string(m->image.weight_stored_bytes);
    out += ",\"ro_bytes\":" + std::to_string(m->net.ro_bytes());
    out += ",\"path\":";
    append_json_string(out, m->path);
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace mixq::serve
