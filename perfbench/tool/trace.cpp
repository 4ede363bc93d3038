// perfbench/tool/trace.cpp
//
// Traced replay. Re-runs a workload's seeded requests in-process through
// the same public calls the daemon makes, with the daemon's batching and
// lane settings:
//
//   loop thread    parse_protocol_line -> ModelRegistry::resolve ->
//                  RequestQueue::push          (at each scheduled time)
//   worker thread  MicroBatcher::next_batch -> ModelRegistry::infer_indices
//                  -> format_result_line
//
// Like the daemon, which parses each line where it sits in the
// connection's read buffer, the loop thread reuses one line buffer: a fresh
// half-megabyte string per request changes how the allocator recycles the
// parser's memory and about doubles the parse time with page faults. Every
// other request is replayed untraced, with no stamp between its due time
// and its response, so the tracing overhead is a difference measured
// within one replay.
//
// It then times, on the workload's model, whole reloads and the public
// calls a reload is made of (load_flash_image_mmap, the ExecutionPlan
// constructor, PlanArenas, the probe run_sample), fresh-registry
// add_model, batch-1 run_into and the per-layer run_timed walk
// profile_planned uses, and a full batch on one lane against the
// registry's lanes. Every call becomes a span (name, interval, parent,
// request id); the spans are written once at exit and run.py derives the
// per-layer metrics from them. Responses are checked byte for byte against
// the generator's expected lines.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "runtime/flash_image.hpp"
#include "runtime/plan.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace mixq;

namespace {

/// One scheduled request of the open-loop phase and the times its journey
/// through the layers was stamped at (steady-clock ns). An untraced
/// request only gets `format1`, the end of its response.
struct Journey {
  std::int64_t due{0};
  std::size_t sample{0};
  bool traced{false};
  std::int64_t line_bytes{0};
  std::int64_t parse0{0}, parse1{0};
  std::int64_t infer0{0}, infer1{0};
  std::int64_t batch{0};
  std::int64_t format0{0}, format1{0};
  std::int64_t format_bytes{0};
};

/// Which role a layer plays in the MobileNet profile table.
const char* layer_role(std::size_t index, runtime::QLayerKind kind) {
  switch (kind) {
    case runtime::QLayerKind::kConv:
      return index == 0 ? "plan.conv0" : "plan.pw";
    case runtime::QLayerKind::kDepthwise:
      return "plan.dw";
    case runtime::QLayerKind::kLinear:
    case runtime::QLayerKind::kGlobalAvgPool:
      break;
  }
  return "plan.head";
}

template <typename F>
void timed(SpanLog& log, const char* name, F&& fn, std::int64_t parent = -1,
           double value = 0.0) {
  const std::int64_t t0 = now_ns();
  fn();
  log.add({name, t0, now_ns(), parent, -1, value});
}

}  // namespace

int cmd_trace(const Flags& f) {
  const std::string name = f.str("model");
  const std::string base = f.str("gen") + "/" + name;
  const std::string v1 = base + ".v1.img";
  const std::string v2 = base + ".v2.img";
  const std::vector<std::string> requests = read_lines(base + ".requests");
  const std::vector<std::string> expected = read_lines(base + ".expected");
  const int threads = static_cast<int>(f.num("threads"));
  const serve::BatcherConfig bcfg{static_cast<int>(f.num("max-batch")),
                                  f.num("max-wait-us")};
  const std::int64_t reps = f.num("reps");
  const std::int64_t iters = f.num("iters");

  SpanLog log;
  serve::ModelRegistry reg(threads);
  reg.add_model(name, v2);

  // -- replay of the open-loop schedule -------------------------------------
  std::vector<Journey> jr;
  for (const std::string& entry : read_lines(f.str("schedule"))) {
    std::istringstream cols(entry);
    Journey j;
    cols >> j.due >> j.sample;
    if (!cols || j.sample >= requests.size()) {
      throw std::runtime_error("bad schedule line: " + entry);
    }
    j.traced = jr.size() % 2 == 0;
    jr.push_back(j);
  }

  serve::RequestQueue queue;
  serve::MicroBatcher batcher(queue, bcfg);
  const std::int64_t numel = reg.default_model()->input_numel();
  const std::size_t max_line_bytes = 256 + 32 * static_cast<std::size_t>(numel);
  std::atomic<std::int64_t> errors{0};
  std::atomic<std::int64_t> mismatches{0};
  const std::int64_t start = now_ns() + 50'000'000;

  const auto serve_batches = [&] {
    std::vector<serve::Request> batch;
    std::vector<runtime::QInferenceResult> results;
    std::vector<std::size_t> all;
    std::vector<std::string> lines;
    std::string want;
    while (batcher.next_batch(batch)) {
      // One model and no reloads: the batch is a single model group.
      all.resize(batch.size());
      std::iota(all.begin(), all.end(), std::size_t{0});
      results.clear();
      results.resize(batch.size());
      const std::int64_t t0 = now_ns();
      reg.infer_indices(*batch.front().route, batch, all, results);
      const std::int64_t t1 = now_ns();
      lines.resize(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Journey& j = jr[static_cast<std::size_t>(batch[i].id)];
        j.infer0 = t0;
        j.infer1 = t1;
        j.batch = static_cast<std::int64_t>(batch.size());
        if (j.traced) j.format0 = now_ns();
        lines[i] = serve::format_result_line(batch[i].id, results[i]);
        j.format1 = now_ns();
        j.format_bytes = static_cast<std::int64_t>(lines[i].size());
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Journey& j = jr[static_cast<std::size_t>(batch[i].id)];
        readdress(expected[j.sample], batch[i].id, want);
        if (lines[i] != want) ++mismatches;
      }
      log.add({"batcher.batch", t0, now_ns(), -1, -1,
               static_cast<double>(batch.size())});
    }
  };
  std::thread worker([&] {
    try {
      serve_batches();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace: batch worker: %s\n", e.what());
      ++errors;
    }
  });

  try {
    std::string line;  // reused, like a connection's read buffer
    for (std::size_t i = 0; i < jr.size(); ++i) {
      Journey& j = jr[i];
      // The line is built before its due time, so only the parse is timed.
      readdress(requests[j.sample], static_cast<std::int64_t>(i), line);
      j.line_bytes = static_cast<std::int64_t>(line.size());
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(start + j.due)));
      if (j.traced) j.parse0 = now_ns();
      serve::ParsedLine p = serve::parse_protocol_line(
          line, numel, max_line_bytes, 0, &reg.directory());
      if (j.traced) j.parse1 = now_ns();
      if (p.kind != serve::ParsedLine::Kind::kRequest) {
        std::fprintf(stderr, "trace: line %zu is not a request\n", i);
        ++errors;
        break;
      }
      p.request.route = reg.resolve(p.request.model);
      queue.push(std::move(p.request));
    }
  } catch (...) {
    queue.close();
    worker.join();
    throw;
  }
  queue.close();
  worker.join();
  if (errors.load() != 0) return 3;

  for (std::size_t i = 0; i < jr.size(); ++i) {
    const Journey& j = jr[i];
    const auto req = static_cast<std::int64_t>(i);
    const std::int64_t due = start + j.due;
    if (!j.traced) {
      log.add({"request.untraced", due, j.format1, -1, req, 0});
      continue;
    }
    // The children tile the request except for the wait while earlier
    // responses of its batch are formatted, which stays unattributed.
    const std::int64_t root = log.add({"request", due, j.format1, -1, req, 0});
    log.add({"loop.wait", due, j.parse0, root, req, 0});
    log.add({"protocol.parse", j.parse0, j.parse1, root, req,
             static_cast<double>(j.line_bytes)});
    log.add({"batcher.wait", j.parse1, j.infer0, root, req, 0});
    log.add({"registry.infer", j.infer0, j.infer1, root, req,
             static_cast<double>(j.batch)});
    log.add({"protocol.format", j.format0, j.format1, root, req,
             static_cast<double>(j.format_bytes)});
  }

  // -- the model's setup and reload paths, call by call -----------------------
  for (std::int64_t i = 0; i < reps; ++i) {
    timed(log, "registry.reload", [&] {
      if (!reg.reload(name, i % 2 == 0 ? v1 : v2).ok) ++errors;
    });
  }
  const std::vector<float> sample =
      make_inputs(reg.resolve(name)->input_numel(), 1, 1).front();
  for (std::int64_t i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    const std::int64_t parent = log.add({"reload.parts", t0, t0, -1, -1, 0});
    runtime::QuantizedNet net;
    std::unique_ptr<runtime::ExecutionPlan> plan;
    std::vector<std::unique_ptr<runtime::PlanArenas>> arenas;
    timed(log, "flash_image.load", [&] {
      net = runtime::load_flash_image_mmap(i % 2 == 0 ? v1 : v2);
    }, parent);
    timed(log, "plan.compile", [&] {
      plan = std::make_unique<runtime::ExecutionPlan>(net);
    }, parent);
    timed(log, "plan.arenas", [&] {
      for (int l = 0; l < threads; ++l) {
        arenas.push_back(std::make_unique<runtime::PlanArenas>(*plan));
      }
    }, parent);
    timed(log, "plan.probe",
          [&] { plan->run_sample(sample.data(), *arenas[0]); }, parent);
    log.close(parent, now_ns());
  }
  for (std::int64_t i = 0; i < reps; ++i) {
    serve::ModelRegistry fresh(threads);
    timed(log, "registry.add_model", [&] { fresh.add_model(name, v2); });
  }

  // -- the model's plan, layer role by layer role ------------------------------
  const std::shared_ptr<const serve::ServableModel> m = reg.resolve(name);
  const runtime::ExecutionPlan& plan = *m->plan;
  std::vector<std::int64_t> layer_ns;
  std::int64_t quantize_ns = 0;
  // Untimed and per-layer-timed calls alternate, so that their difference,
  // the tracing overhead, does not pick up drift in the host's speed.
  for (std::int64_t i = 0; i < iters; ++i) {
    timed(log, "plan.infer", [&] { plan.run_into(sample.data()); });
    const std::int64_t t0 = now_ns();
    plan.run_timed(sample.data(), layer_ns, &quantize_ns);
    const std::int64_t parent = log.add({"plan.timed", t0, now_ns(), -1, -1, 0});
    // run_timed reports durations; the role spans are laid end to end from
    // the call's start, in execution order.
    std::int64_t t = t0;
    log.add({"plan.quantize", t, t + quantize_ns, parent, -1, 0});
    t += quantize_ns;
    const auto& layers = plan.layers();
    for (std::size_t l = 0; l < layers.size(); ++l) {
      log.add({layer_role(l, layers[l].layer->kind), t, t + layer_ns[l],
               parent, -1, static_cast<double>(layers[l].macs)});
      t += layer_ns[l];
    }
  }

  // -- a full batch on one lane against the registry's lanes ------------------
  std::vector<serve::Request> full(static_cast<std::size_t>(bcfg.max_batch));
  for (serve::Request& r : full) r.input = sample;
  serve::ModelRegistry one_lane(1);
  one_lane.add_model(name, v2);
  const std::shared_ptr<const serve::ServableModel> m1 = one_lane.resolve(name);
  std::vector<runtime::QInferenceResult> out;
  for (std::int64_t i = 0; i < reps; ++i) {
    timed(log, "parallel.batch_1lane",
          [&] { one_lane.infer_batch(*m1, full, out); });
    timed(log, "parallel.batch_lanes", [&] { reg.infer_batch(*m, full, out); },
          -1, static_cast<double>(reg.lanes()));
  }

  log.write(f.str("spans"));
  std::printf("{\"attempted\":%zu,\"errors\":%lld,\"mismatches\":%lld}\n",
              jr.size(), static_cast<long long>(errors.load()),
              static_cast<long long>(mismatches.load()));
  if (mismatches.load() != 0) return 4;
  return errors.load() == 0 ? 0 : 3;
}

}  // namespace perfbench
