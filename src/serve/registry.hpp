// mixq/serve/registry.hpp
//
// The multi-model registry behind `mixq serve --model NAME=IMAGE ...`:
// N named models served from one daemon, each hot-swappable at runtime
// without dropping a request.
//
// Publication is RCU-style: every model slot holds an atomically
// swappable shared_ptr<const ServableModel> (a spinlock-guarded cell
// equivalent to std::atomic<shared_ptr> but with a release-fenced reader
// unlock, so ThreadSanitizer can prove it race-free). Admission resolves
// the name to the CURRENT generation and pins it on the request
// (Request::route); the batch worker executes against exactly that
// pinned plan and never touches registry state -- no lock on the
// inference hot path, and a reload can never retarget an in-flight
// request. When a reload publishes generation G+1, requests already
// routed to G finish on G; the old ServableModel (plan, arenas, and the
// mmap borrow its QLayer keepalives hold) is retired automatically when
// the last such request drops its shared_ptr.
//
// Reload is validate-THEN-swap, safe to run while the daemon serves:
//   1. the replacement image is loaded through the hardened flash loader
//      (every structural / hostile-input / resource-limit check of
//      runtime/flash_image.hpp applies);
//   2. its ExecutionPlan is compiled and per-lane arenas are warmed;
//   3. the candidate must match the serving generation's input shape and
//      class count (clients' request framing survives a swap);
//   4. a pinned probe input is smoke-inferred on the reloading thread --
//      never the serving thread -- and the result must be finite and
//      in-range;
//   5. only then is the new generation atomically swapped in.
// ANY failure leaves the old generation serving untouched and is
// reported as a structured `reload_failed` (the slot records the error
// for the {"cmd":"health"} probe). A FaultInjector (serve/net/) can
// truncate the image mid-read, fail the validation inference, or delay
// the swap -- the reload chaos suite drives all three under load.
//
// Thread contract:
//   * add_model() is startup-only (before any concurrent use); the model
//     SET and every model's input shape are immutable afterwards, which
//     is what lets parse_protocol_line read the ModelDirectory lock-free.
//   * resolve()/default_model() are safe from any thread, any time.
//   * reload() is safe from any thread; concurrent reloads of one model
//     serialize (each validates and swaps in turn).
//   * infer_batch()/infer_indices() take ONE caller thread at a time (the
//     Dispatcher's batch worker, or `mixq run`) -- parallelism lives
//     inside, across the shared pool's lanes. Validation inference during
//     reload does NOT use the pool, so it never contends with serving.
//   * record_*()/health_json()/stats_json()/models_info_json() are safe
//     from any thread (one registry mutex; never on the inference path).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/flash_image.hpp"
#include "runtime/parallel.hpp"
#include "runtime/plan.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace mixq::serve {

class FaultInjector;

// ---------------------------------------------------------------------------
// One published model generation.
// ---------------------------------------------------------------------------

/// Immutable once published (the arenas are per-lane mutable scratch, but
/// only the single batch-worker caller of infer_* touches them, one lane
/// each). Held by shared_ptr: the registry keeps the current generation,
/// every in-flight request keeps the generation that admitted it.
struct ServableModel {
  std::string name;
  std::string path;           ///< backing image ("" = in-memory, not reloadable)
  std::uint64_t generation{1};
  runtime::FlashImageStats image;  ///< format version + per-layer codecs
  runtime::QuantizedNet net;       ///< holds the mmap keepalives (PR 9)
  std::unique_ptr<runtime::ExecutionPlan> plan;
  std::vector<std::unique_ptr<runtime::PlanArenas>> arenas;  ///< one per lane
  runtime::QInferenceResult probe;  ///< validation smoke-infer output

  [[nodiscard]] const Shape& input_shape() const {
    return net.layers.front().in_shape;
  }
  [[nodiscard]] std::int64_t input_numel() const {
    return input_shape().numel();
  }
  [[nodiscard]] std::int64_t classes() const {
    return net.layers.back().out_shape.c;
  }
};

/// Outcome of a reload attempt (the `reload_failed` error message on
/// failure; `not_found` distinguishes "no such model" for the protocol).
struct ReloadResult {
  bool ok{false};
  bool not_found{false};
  std::string error;
  std::string model;
  std::uint64_t generation{0};      ///< the published generation on success
  std::uint32_t format_version{0};  ///< of the newly published image
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

class ModelRegistry {
 public:
  /// `threads` worker lanes (0 = hardware concurrency) shared by every
  /// model; per-model PlanArenas are allocated per lane.
  explicit ModelRegistry(int threads);
  ~ModelRegistry();
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Load, validate, warm, and probe `path`, publishing it as `name`.
  /// The FIRST model added is the default. Startup-only; throws
  /// std::runtime_error on any load/validation failure (a daemon must
  /// not come up half-configured -- reload() is the forgiving path).
  void add_model(const std::string& name, const std::string& path,
                 const runtime::FlashLoadLimits& limits = {});

  /// Publish an in-memory net as `name` (tests, benches, and the
  /// net-based server constructors). No backing path: reload() of this
  /// model requires an explicit "path".
  void add_model(const std::string& name, const runtime::QuantizedNet& net);

  /// Reload-time fault points (rtrunc/rexecerr/rdelay); the injector must
  /// outlive the registry. nullptr (default) disables.
  void set_fault_injector(FaultInjector* injector) {
    // Atomic: the front-end installs its injector from the serving thread
    // at startup while a control connection may already be reloading.
    injector_.store(injector, std::memory_order_release);
  }

  /// The current generation of `name` ("" = default), or nullptr when the
  /// registry holds no such model. Lock-free admission path.
  [[nodiscard]] std::shared_ptr<const ServableModel> resolve(
      std::string_view name) const;
  [[nodiscard]] std::shared_ptr<const ServableModel> default_model() const {
    return resolve({});
  }

  [[nodiscard]] const std::string& default_name() const {
    return default_name_;
  }
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// The immutable name -> input-numel directory parse_protocol_line
  /// validates against. Stable address for the registry's lifetime.
  [[nodiscard]] const ModelDirectory& directory() const { return directory_; }
  [[nodiscard]] std::int64_t max_input_numel() const;

  [[nodiscard]] int lanes() const { return pool_->lanes(); }
  [[nodiscard]] runtime::ThreadPool& pool() { return *pool_; }

  /// Validate-then-swap hot reload of `name` ("" = default) from `path`
  /// (or its current backing path when empty). On failure the old
  /// generation keeps serving and the error is recorded for health_json.
  ReloadResult reload(const std::string& name, const std::string& path = {},
                      const runtime::FlashLoadLimits& limits = {});

  /// Run `batch` against pinned generation `m` across the pool's lanes,
  /// each free lane taking the next request. Bit-exact with a serial
  /// Executor::run_planned. Single-caller (see the thread contract above).
  void infer_batch(const ServableModel& m, const std::vector<Request>& batch,
                   std::vector<runtime::QInferenceResult>& out);

  /// Run only `idx` (positions into `batch`, each routed to `m`), writing
  /// out[idx[i]] -- how a mixed-model micro-batch executes group by group
  /// while keeping responses in admission order.
  void infer_indices(const ServableModel& m, const std::vector<Request>& batch,
                     const std::vector<std::size_t>& idx,
                     std::vector<runtime::QInferenceResult>& out);

  // -- per-model serve accounting (queue-depth + ServeStats) ---------------
  // A front-end records admission BEFORE pushing to the queue (so a stats
  // snapshot can never show responses > requests) and undoes it with
  // record_shed when the push is refused (overloaded / shutting down).
  void record_admitted(const ServableModel& m);
  void record_shed(const ServableModel& m);
  void record_response(const ServableModel& m, double latency_us);
  void record_timeout(const ServableModel& m);
  void record_error(const ServableModel& m);

  /// `{"NAME":{"queued":N,"generation":G,"stats":{...ServeStats...}},...}`
  [[nodiscard]] std::string stats_json() const;

  /// The {"cmd":"health"} payload: overall status plus per-model
  /// `state` (loading|ready|draining|failed), generation, queue depth,
  /// reload counters, and the last reload error (when any).
  [[nodiscard]] std::string health_json() const;

  /// Per-model metadata for the {"cmd":"info"} line: layer count, input
  /// shape, classes, image format version, per-model codec summary,
  /// generation, and backing path.
  [[nodiscard]] std::string models_info_json() const;

 private:
  struct Slot;

  [[nodiscard]] Slot* find(std::string_view name) const;
  std::shared_ptr<const ServableModel> build_model(
      const std::string& name, const std::string& path,
      const runtime::FlashLoadLimits& limits, bool allow_faults);
  /// Compile the plan, warm per-lane arenas, smoke-infer the pinned probe.
  void compile_and_probe(ServableModel& m, bool allow_faults) const;
  /// Startup-only: publish `m` as a new slot (the first is the default).
  void add_slot(std::shared_ptr<const ServableModel> m,
                const runtime::FlashLoadLimits& limits);

  std::unique_ptr<runtime::ThreadPool> pool_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::string default_name_;
  ModelDirectory directory_;
  std::atomic<FaultInjector*> injector_{nullptr};
  mutable std::mutex mu_;  ///< slot metadata/stats; never the infer path
};

}  // namespace mixq::serve
