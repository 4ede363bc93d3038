// bench_runtime -- the tracked performance benchmark of the execution
// engine. Builds a MobileNet-class, pointwise-dominated mixed 2/4/8-bit
// workload (the deployment shape the paper targets), verifies once that the
// reference and planned paths agree bit-exactly, then times:
//
//   * reference path  -- packed get/set kernels (kernels.hpp), the oracle
//   * planned path    -- compiled ExecutionPlan (plan.hpp)
//
// and emits results/BENCH_runtime.json with end-to-end and per-layer
// numbers so the perf trajectory is tracked PR over PR. A second section
// sweeps the path the daemon serves (serve::ModelRegistry::infer_batch,
// each free lane taking the next sample) across thread counts, gating on
// bit-exactness at every count, and records the SIMD ISA, the available
// hardware threads and the git revision alongside the numbers. Exit code
// is non-zero only on a correctness failure, never on timing.
//
// Usage: bench_runtime [--quick] [--out PATH] [--threads N] [--batch N]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "provenance.hpp"
#include "runtime/executor.hpp"
#include "runtime/parallel.hpp"
#include "runtime/profiler.hpp"
#include "runtime/simd.hpp"
#include "runtime/simd_vnni.hpp"
#include "serve/registry.hpp"
#include "support/random_qlayer.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace mixq;
using namespace mixq::runtime;

/// One conv-family layer with random-but-valid quantization parameters
/// (PC+ICN scheme throughout, the paper's main deployment); the shared
/// randomized builder keeps the bench workload construction identical to
/// what the exactness suites test.
QLayer make_layer(QLayerKind kind, Shape in_shape, std::int64_t co,
                  std::int64_t k, std::int64_t stride, std::int64_t pad,
                  BitWidth qx, BitWidth qw, BitWidth qy, Rng& rng) {
  return test_support::make_conv_family_layer(
      kind, in_shape, co, k, stride, pad, qx, qw, qy, core::Scheme::kPCICN,
      rng, 1e-4, 0.02);
}

/// MobileNet-class stack: 3x3 stem, depthwise-separable blocks with mixed
/// per-layer 2/4/8-bit precisions, global pool, linear head.
QuantizedNet make_workload() {
  Rng rng(0xBEEF);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);

  using BW = BitWidth;
  Shape s(1, 48, 48, 3);
  BW qx = BW::kQ8;
  struct Pw { std::int64_t co; std::int64_t stride; BW qw, qy; };
  // stem
  net.layers.push_back(make_layer(QLayerKind::kConv, s, 16, 3, 2, 1, qx,
                                  BW::kQ8, BW::kQ4, rng));
  s = net.layers.back().out_shape;
  qx = net.layers.back().qy;
  // dw/pw blocks (stride on the depthwise, widths mixed as the paper's
  // memory-driven allocator would emit them)
  const Pw blocks[] = {
      {32, 1, BW::kQ4, BW::kQ4},  {64, 2, BW::kQ4, BW::kQ4},
      {64, 1, BW::kQ4, BW::kQ8},  {128, 2, BW::kQ4, BW::kQ4},
      {128, 1, BW::kQ2, BW::kQ4},
  };
  for (const Pw& b : blocks) {
    net.layers.push_back(make_layer(QLayerKind::kDepthwise, s, s.c, 3,
                                    b.stride, 1, qx, BW::kQ8, qx, rng));
    s = net.layers.back().out_shape;
    net.layers.push_back(make_layer(QLayerKind::kConv, s, b.co, 1, 1, 0, qx,
                                    b.qw, b.qy, rng));
    s = net.layers.back().out_shape;
    qx = b.qy;
  }
  net.layers.push_back(
      make_layer(QLayerKind::kGlobalAvgPool, s, 0, 1, 1, 0, qx, qx, qx, rng));
  s = net.layers.back().out_shape;
  QLayer head = make_layer(QLayerKind::kLinear, s, 10, 1, 1, 0, qx, BW::kQ8,
                           BW::kQ8, rng);
  head.raw_logits = true;
  for (int c = 0; c < 10; ++c) head.out_mult.push_back(rng.uniform(1e-5, 0.02));
  net.layers.push_back(head);
  net.validate();
  return net;
}

double time_ns_per_run(int iters, const std::function<void()>& fn) {
  fn();  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         iters;
}

bool logits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;  // bit-exact, no tolerance
  }
  return true;
}

struct ThroughputPoint {
  int threads{1};
  double ns_per_sample{0.0};
  double samples_per_s{0.0};
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "results/BENCH_runtime.json";
  int max_threads = 0;  // 0 = hardware concurrency
  std::int64_t batch = 0;  // 0 = default (64 full, 16 quick)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = std::atoll(argv[++i]);
    } else {
      std::cerr << "usage: bench_runtime [--quick] [--out PATH] "
                   "[--threads N] [--batch N]\n";
      return 2;
    }
  }
  if (batch <= 0) batch = quick ? 16 : 64;
  if (max_threads <= 0) max_threads = ThreadPool::hardware_lanes();

  const QuantizedNet net = make_workload();
  Rng rng(7);
  FloatTensor img(net.layers.front().in_shape);
  rng.fill_uniform(img.vec(), 0.0, 1.0);

  const Executor ref_exec(net);
  const ExecutionPlan plan(net);

  // Correctness gate: both paths bit-exact on this workload.
  if (!logits_equal(ref_exec.run(img).logits, plan.run(img).logits)) {
    std::cerr << "bench_runtime: FATAL: execution paths disagree\n";
    return 1;
  }
  std::cout << "bit-exactness check passed (ref == planned)\n";

  const int iters = quick ? 10 : 100;
  const int ref_iters = quick ? 1 : 5;
  const double ref_ns =
      time_ns_per_run(ref_iters, [&] { ref_exec.run(img); });
  const double plan_ns =
      time_ns_per_run(iters, [&] { plan.run_into(img.data()); });

  // Arena footprint: the plan's u8 arenas next to the net's Eq. 7 RW peak
  // (the packed activation buffers an MCU deployment holds).
  const std::int64_t arena_u8 = plan.arena_bytes();
  const std::int64_t rw_peak = net.rw_peak_bytes();

  const PlannedProfile prof =
      profile_planned(plan, img, quick ? 5 : 50);

  std::cout << "simd: compiled=" << simd::compiled_isa()
            << " active=" << simd::active_isa()
            << ", hardware threads: " << ThreadPool::hardware_lanes()
            << "\n"
            << "reference: " << ref_ns / 1e6 << " ms/inference\n"
            << "planned:   " << plan_ns / 1e6 << " ms/inference\n"
            << "speedup planned vs reference: " << ref_ns / plan_ns << "x\n"
            << "activation arenas: " << arena_u8 << " B (u8), Eq. 7 RW peak "
            << rw_peak << " B\n\n"
            << prof.str();

  // Batch serving sweep: samples/s of the registry's infer_batch at
  // 1/2/4/max threads, gated on bit-exactness against the serial plan at
  // every count.
  const std::int64_t numel = net.layers.front().in_shape.numel();
  std::vector<serve::Request> requests(static_cast<std::size_t>(batch));
  std::vector<QInferenceResult> base_results;
  for (std::size_t n = 0; n < requests.size(); ++n) {
    requests[n].id = static_cast<std::int64_t>(n);
    requests[n].input.resize(static_cast<std::size_t>(numel));
    rng.fill_uniform(requests[n].input, 0.0, 1.0);
    base_results.push_back(plan.run_sample(requests[n].input.data()));
  }
  std::vector<int> sweep = {1, 2, 4, max_threads};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  sweep.erase(std::remove_if(sweep.begin(), sweep.end(),
                             [&](int t) { return t < 1 || t > max_threads; }),
              sweep.end());
  if (sweep.empty()) sweep.push_back(1);

  const int reps = quick ? 1 : 3;
  std::vector<ThroughputPoint> sweep_pts;
  std::cout << "\nbatch throughput (batch=" << batch << "):\n";
  for (const int t : sweep) {
    serve::ModelRegistry reg(t);
    reg.add_model("bench", net);
    const auto model = reg.resolve("bench");
    // Exactness gate: every thread count must reproduce the serial plan's
    // logits bit-for-bit.
    std::vector<QInferenceResult> results;
    reg.infer_batch(*model, requests, results);
    for (std::size_t n = 0; n < results.size(); ++n) {
      if (!logits_equal(results[n].logits, base_results[n].logits)) {
        std::cerr << "bench_runtime: FATAL: infer_batch at " << t
                  << " threads diverges from the serial plan on sample "
                  << n << "\n";
        return 1;
      }
    }
    double best_ns = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      reg.infer_batch(*model, requests, results);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      if (r == 0 || ns < best_ns) best_ns = ns;
    }
    ThroughputPoint pt;
    pt.threads = t;
    pt.ns_per_sample = best_ns / static_cast<double>(batch);
    pt.samples_per_s = 1e9 * static_cast<double>(batch) / best_ns;
    sweep_pts.push_back(pt);
    std::cout << "  " << t << " thread(s): " << pt.samples_per_s
              << " samples/s (" << pt.ns_per_sample / 1e6
              << " ms/sample), speedup vs 1 thread: "
              << sweep_pts.front().ns_per_sample / pt.ns_per_sample << "x\n";
  }
  std::cout << "batch bit-exactness check passed (all thread counts)\n";

  const std::string provenance = bench::provenance_members();
  std::filesystem::path out_file(out_path);
  if (out_file.has_parent_path()) {
    std::filesystem::create_directories(out_file.parent_path());
  }
  std::ofstream os(out_file);
  if (!os) {
    std::cerr << "bench_runtime: cannot write " << out_path << "\n";
    return 1;
  }
  os << "{\n"
     << "  \"workload\": \"mobilenet-class 48x48x3, mixed 2/4/8-bit, "
        "PC+ICN\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"iters\": " << iters << ",\n"
     << provenance << "  \"simd\": {\"compiled\": \"" << simd::compiled_isa()
     << "\", \"active\": \"" << simd::active_isa()
     << "\", \"vnni_host\": " << (simd::vnni_enabled() ? "true" : "false")
     << ", \"vnni_kernels\": "
     << (simd::vnni_compiled() ? "true" : "false") << "},\n"
     << "  \"total_macs\": " << prof.total_macs << ",\n"
     << "  \"end_to_end\": {\n"
     << "    \"reference_ns\": " << ref_ns << ",\n"
     << "    \"planned_ns\": " << plan_ns << ",\n"
     << "    \"speedup_planned_vs_reference\": " << ref_ns / plan_ns << ",\n"
     << "    \"planned_macs_per_ns\": " << prof.total_macs_per_ns() << "\n"
     << "  },\n"
     << "  \"arena\": {\n"
     << "    \"u8_bytes\": " << arena_u8 << ",\n"
     << "    \"rw_peak_bytes\": " << rw_peak << "\n"
     << "  },\n"
     << "  \"quantize_ns\": " << prof.quantize_ns << ",\n"
     << "  \"layers\": [\n";
  for (std::size_t i = 0; i < prof.layers.size(); ++i) {
    const auto& l = prof.layers[i];
    os << "    {\"i\": " << i << ", \"kind\": \"" << kind_name(l.kind)
       << "\", \"tier\": \"" << tier_name(l.tier) << "\", \"requant\": \""
       << requant_name(plan.layers()[i]) << "\", \"tile\": {\"rows\": "
       << l.tile.rows << ", \"kb\": " << l.tile.kb << ", \"nb\": " << l.tile.nb
       << "}"
       << ", \"macs\": " << l.macs << ", \"planned_ns\": " << l.ns
       << ", \"macs_per_ns\": " << l.macs_per_ns() << "}"
       << (i + 1 < prof.layers.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"batch_throughput\": {\n"
     << "    \"batch\": " << batch << ",\n"
     << "    \"reps\": " << reps << ",\n"
     // A 1-vCPU host cannot demonstrate multi-thread speedup; flag the
     // sweep so the regression gate skips speedup comparison instead of
     // mistaking the host limit for a scaling regression.
     << "    \"limited_by_host\": "
     << (ThreadPool::hardware_lanes() <= 1 ? "true" : "false") << ",\n"
     << "    \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep_pts.size(); ++i) {
    const ThroughputPoint& pt = sweep_pts[i];
    os << "      {\"threads\": " << pt.threads
       << ", \"ns_per_sample\": " << pt.ns_per_sample
       << ", \"samples_per_s\": " << pt.samples_per_s
       << ", \"speedup_vs_1\": "
       << sweep_pts.front().ns_per_sample / pt.ns_per_sample << "}"
       << (i + 1 < sweep_pts.size() ? "," : "") << "\n";
  }
  os << "    ]\n"
     << "  }\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
