// perfbench/tool/engine.cpp
//
// The engine workload: one model served through ModelRegistry's batch
// path (what the daemon's batch worker runs) in a process of its own, with
// no protocol or transport. Phases, in order:
//   setup     `cold-starts` fresh registries + add_model, each timed;
//   reload    `reloads` timed registry reloads alternating the v1 and v2
//             images of the same net (both loaders run; answers unchanged);
//   latency   back-to-back batch-1 infer_batch calls, each timed;
//   batch     batch-8 infer_batch calls across the registry's lanes;
//             the two alternate in `rounds` blocks each.
// Every result is formatted with format_result_line and compared byte for
// byte with the generator's expected line. Prints one JSON object of raw
// samples and totals; run.py reduces it to the benchmark's metrics.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace mixq;

namespace {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// This process's own peak resident set in KiB (VmHWM). ru_maxrss would also
// count the memory of the process that spawned it, whose image this one
// shared until exec.
long peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    serve::append_json_double(out, v[i]);
  }
  return out + "]";
}

}  // namespace

int cmd_engine(const Flags& f) {
  const std::string v2 = f.str("image");
  const std::string v1 = f.str("alt-image");
  const int threads = static_cast<int>(f.num("threads"));
  const int max_batch = static_cast<int>(f.num("max-batch"));
  const double seconds = f.real("seconds");
  const double latency_share = f.real("latency-share");
  const std::vector<std::string> expected = read_lines(f.str("expected"));

  // -- setup: median of several cold starts --------------------------------
  std::vector<double> setup_s;
  std::unique_ptr<serve::ModelRegistry> reg;
  for (std::int64_t i = 0; i < f.num("cold-starts"); ++i) {
    reg.reset();
    const auto t0 = Clock::now();
    reg = std::make_unique<serve::ModelRegistry>(threads);
    reg->add_model("big", v2);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // -- reload: alternate v1 / v2 of the same net -------------------------
  std::vector<double> reload_ms;
  for (std::int64_t i = 0; i < f.num("reloads"); ++i) {
    const auto t0 = Clock::now();
    const serve::ReloadResult rr = reg->reload("big", i % 2 == 0 ? v1 : v2);
    reload_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    if (!rr.ok) {
      std::fprintf(stderr, "engine: reload failed: %s\n", rr.error.c_str());
      return 4;
    }
  }

  const std::shared_ptr<const serve::ServableModel> m = reg->resolve("big");
  const auto inputs =
      make_inputs(m->input_numel(), static_cast<std::int64_t>(expected.size()),
                  static_cast<std::uint64_t>(f.num("input-seed")));
  // Pre-built requests: the timed calls see exactly what the batch worker
  // gets (admitted requests), and no copy sits between two calls.
  std::vector<std::vector<serve::Request>> singles(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    singles[i].resize(1);
    singles[i][0].input = inputs[i];
  }
  std::vector<serve::Request> full(static_cast<std::size_t>(max_batch));
  for (std::size_t k = 0; k < full.size(); ++k) {
    full[k].input = inputs[k % inputs.size()];
  }

  std::int64_t attempted = 0;
  std::int64_t mismatches = 0;
  std::vector<runtime::QInferenceResult> out;
  const auto check = [&](std::size_t first) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      ++attempted;
      const std::string& want = expected[(first + k) % expected.size()];
      if (serve::format_result_line(0, out[k]) != want) ++mismatches;
    }
  };

  // -- latency (batch-1 calls) and throughput (full batches across the
  // lanes), alternating in `rounds` blocks so that both sample the whole run.
  const double cpu0 = cpu_seconds();
  const std::int64_t rounds = f.num("rounds");
  const auto block_end = [&](double share) {
    return Clock::now() + std::chrono::duration<double>(
                              seconds * share / static_cast<double>(rounds));
  };
  std::vector<double> latency_ms;
  std::int64_t batched = 0;
  double batched_s = 0.0;
  std::size_t next = 0;
  for (std::int64_t r = 0; r < rounds; ++r) {
    for (const auto end = block_end(latency_share); Clock::now() < end;
         ++next) {
      const std::size_t s = next % singles.size();
      const auto t0 = Clock::now();
      reg->infer_batch(*m, singles[s], out);
      latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
      check(s);
    }
    for (const auto end = block_end(1.0 - latency_share); Clock::now() < end;) {
      const auto t0 = Clock::now();
      reg->infer_batch(*m, full, out);
      batched_s += std::chrono::duration<double>(Clock::now() - t0).count();
      batched += static_cast<std::int64_t>(full.size());
      check(0);
    }
  }
  const double cpu_ms =
      (cpu_seconds() - cpu0) * 1e3 / static_cast<double>(attempted);

  std::printf(
      "{\"setup_s\":%s,\"reload_ms\":%s,\"latency_ms\":%s,"
      "\"batched\":%lld,\"batched_s\":%.9f,\"cpu_ms_per_req\":%.9f,"
      "\"peak_rss_kb\":%ld,\"attempted\":%lld,\"mismatches\":%lld}\n",
      json_array(setup_s).c_str(), json_array(reload_ms).c_str(),
      json_array(latency_ms).c_str(), static_cast<long long>(batched),
      batched_s, cpu_ms, peak_rss_kb(), static_cast<long long>(attempted),
      static_cast<long long>(mismatches));
  return mismatches == 0 ? 0 : 4;
}

}  // namespace perfbench
