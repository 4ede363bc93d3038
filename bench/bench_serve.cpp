// bench_serve -- throughput/latency of the batch inference daemon.
//
// Drives the serve subsystem in-process on a MobileNet-class mixed-precision
// workload, two ways:
//
//   * engine level: RequestQueue + MicroBatcher + ModelRegistry::infer_batch,
//     swept over (max_batch, threads) configurations -- the serving fabric
//     with protocol costs excluded;
//   * protocol level: the full StreamServer over preformatted ndjson, so
//     JSON parse/format overhead is measured against the engine numbers
//     (the median of nine passes, with its quartiles).
//
// Every configuration is gated on bit-exactness against the serial planned
// path; exit code is non-zero only on a correctness failure, never on
// timing.
//
// A third pass drives the epoll TCP front-end (serve/net/) to saturation:
// pipelined bursts over a connection sweep against a deliberately shallow
// admission queue, recording shed rate and p50/p99/p999 -- and asserting
// that every request sent was answered (`predicted`, `overloaded`, or
// `timeout`), i.e. overload degrades by shedding, never by dropping.
//
// A fourth pass (--reload-sweep) measures the cost of hot-swap reloads:
// the same pipelined TCP traffic is run twice against a ModelRegistry --
// once undisturbed, once with a background thread continuously
// validate-then-swap reloading the serving model -- and the p50/p99
// delta is recorded. Gated on zero lost requests, bit-exact responses
// in both passes, and every reload acknowledged.
//
// Usage: bench_serve [--quick] [--requests N] [--reload-sweep] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "provenance.hpp"
#include "runtime/flash_image.hpp"
#include "runtime/plan.hpp"
#include "serve/batcher.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "support/random_qlayer.hpp"
#include "tensor/rng.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <set>

#include "serve/net/epoll_server.hpp"
#endif

namespace {

using namespace mixq;
using namespace mixq::runtime;
using namespace mixq::serve;

/// Smaller sibling of bench_runtime's workload (32x32 input): the serving
/// bench measures fabric overhead and scaling, not kernel speed.
QuantizedNet make_workload() {
  Rng rng(0xFEED);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, core::BitWidth::kQ8);
  using BW = core::BitWidth;
  Shape s(1, 32, 32, 3);
  BW qx = BW::kQ8;
  const auto layer = [&](QLayerKind kind, std::int64_t co, std::int64_t k,
                         std::int64_t stride, std::int64_t pad, BW qw,
                         BW qy) {
    QLayer l = test_support::make_conv_family_layer(
        kind, s, co, k, stride, pad, qx, qw, qy, core::Scheme::kPCICN, rng,
        1e-4, 0.02);
    s = l.out_shape;
    qx = l.qy;
    net.layers.push_back(std::move(l));
  };
  layer(QLayerKind::kConv, 16, 3, 2, 1, BW::kQ8, BW::kQ4);
  layer(QLayerKind::kDepthwise, s.c, 3, 1, 1, BW::kQ8, qx);
  layer(QLayerKind::kConv, 32, 1, 1, 0, BW::kQ4, BW::kQ4);
  layer(QLayerKind::kDepthwise, s.c, 3, 2, 1, BW::kQ8, qx);
  layer(QLayerKind::kConv, 64, 1, 1, 0, BW::kQ4, BW::kQ4);
  layer(QLayerKind::kGlobalAvgPool, 0, 1, 1, 0, qx, qx);
  QLayer head = test_support::make_conv_family_layer(
      QLayerKind::kLinear, s, 10, 1, 1, 0, qx, BW::kQ8, BW::kQ8,
      core::Scheme::kPCICN, rng, 1e-4, 0.02);
  head.raw_logits = true;
  for (int c = 0; c < 10; ++c) head.out_mult.push_back(rng.uniform(1e-5, 0.02));
  net.layers.push_back(std::move(head));
  net.validate();
  return net;
}

bool logits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

struct SweepPoint {
  int max_batch{1};
  int threads{1};
  double wall_ms{0.0};
  double samples_per_s{0.0};
  double p50_us{0.0};
  double p99_us{0.0};
  double mean_fill{0.0};
};

#ifndef _WIN32

struct SaturationPoint {
  int conns{0};
  std::int64_t sent{0};
  std::int64_t ok{0};
  std::int64_t shed{0};
  std::int64_t timeouts{0};
  double shed_rate{0.0};
  double p50_us{0.0};
  double p99_us{0.0};
  double p999_us{0.0};
  double samples_per_s{0.0};
  bool exact{false};  ///< every delivered result byte-matched the reference
};

/// Minimal blocking loopback client for the saturation pass.
class SatClient {
 public:
  ~SatClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect_tcp(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool send_all(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const auto n =
          ::send(fd_, text.data() + off, text.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& out) {
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[8192];
      const auto n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_{-1};
  std::string buf_;
};

#endif  // !_WIN32

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool reload_sweep = false;
  std::int64_t n_requests = 0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--reload-sweep") == 0) {
      reload_sweep = true;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      n_requests = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_serve [--quick] [--requests N] "
                   "[--reload-sweep] [--out PATH]\n";
      return 2;
    }
  }
  if (n_requests <= 0) n_requests = quick ? 64 : 512;

  const QuantizedNet net = make_workload();
  const std::int64_t numel = net.layers.front().in_shape.numel();
  Rng rng(17);
  std::vector<std::vector<float>> inputs(
      static_cast<std::size_t>(n_requests));
  for (auto& s : inputs) {
    s.resize(static_cast<std::size_t>(numel));
    rng.fill_uniform(s, 0.0, 1.0);
  }

  // Serial planned reference for the bit-exactness gate.
  const ExecutionPlan plan(net);
  std::vector<QInferenceResult> expected(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expected[i] = plan.run_sample(inputs[i].data());
  }

  const int hw = ThreadPool::hardware_lanes();
  std::vector<std::pair<int, int>> configs = {
      {1, 1}, {8, 1}, {8, hw}, {32, hw}};
  std::vector<SweepPoint> points;

  std::cout << "serve engine sweep (" << n_requests << " requests, "
            << hw << " hardware threads):\n";
  for (const auto& [max_batch, threads] : configs) {
    RequestQueue queue;
    MicroBatcher batcher(queue, {max_batch});
    ModelRegistry reg(threads);
    reg.add_model("default", net);
    const auto model = reg.default_model();

    std::vector<QInferenceResult> got(inputs.size());
    std::int64_t batches = 0;
    std::vector<double> latencies;
    latencies.reserve(inputs.size());

    const auto t0 = std::chrono::steady_clock::now();
    std::thread consumer([&] {
      std::vector<Request> batch;
      std::vector<QInferenceResult> out;
      while (batcher.next_batch(batch)) {
        reg.infer_batch(*model, batch, out);
        const auto done = Clock::now();
        ++batches;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          got[static_cast<std::size_t>(batch[i].id)] = out[i];
          latencies.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  done - batch[i].enqueued)
                  .count() /
              1e3);
        }
      }
    });
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      Request r;
      r.id = static_cast<std::int64_t>(i);
      r.input = inputs[i];
      queue.push(std::move(r));
    }
    queue.close();
    consumer.join();
    const auto t1 = std::chrono::steady_clock::now();

    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (!logits_equal(got[i].logits, expected[i].logits)) {
        std::cerr << "bench_serve: FATAL: served result diverges from "
                     "serial planned path (max_batch="
                  << max_batch << ", threads=" << threads << ", request "
                  << i << ")\n";
        return 1;
      }
    }

    ServeStats st;
    st.latency_us = latencies;
    SweepPoint pt;
    pt.max_batch = max_batch;
    pt.threads = threads;
    pt.wall_ms =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
        1e6;
    pt.samples_per_s = static_cast<double>(n_requests) / (pt.wall_ms / 1e3);
    pt.p50_us = st.latency_percentile_us(50);
    pt.p99_us = st.latency_percentile_us(99);
    pt.mean_fill =
        static_cast<double>(n_requests) / static_cast<double>(batches);
    points.push_back(pt);
    std::printf(
        "  max_batch %2d, threads %2d: %8.0f samples/s, p50 %7.0f us, "
        "p99 %7.0f us, mean batch fill %.1f\n",
        max_batch, threads, pt.samples_per_s, pt.p50_us, pt.p99_us,
        pt.mean_fill);
  }
  std::cout << "engine bit-exactness check passed (all configurations)\n";

  // Protocol-level passes: the full StreamServer incl. JSON parse/format.
  // One pass lasts about 50 ms, so a single timing follows the host's
  // clock phase; the figure is the median of kProtocolPasses passes (the
  // median pass's latencies with it), reported with its quartiles.
  constexpr int kProtocolPasses = 9;
  std::string req_text;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    req_text += format_request_line(static_cast<std::int64_t>(i),
                                    inputs[i].data(), numel);
    req_text += "\n";
  }
  ServeConfig cfg;
  cfg.threads = hw;
  cfg.max_batch = 8;
  struct ProtocolPass {
    double samples_per_s{0.0};
    double p50_us{0.0};
    double p99_us{0.0};
  };
  std::vector<ProtocolPass> passes;
  for (int pass = 0; pass < kProtocolPasses; ++pass) {
    std::istringstream req_stream(req_text);
    std::ostringstream resp_stream;
    StreamServer server(net, cfg);
    const auto p0 = std::chrono::steady_clock::now();
    const ServeStats pstats = server.serve(req_stream, resp_stream);
    const auto p1 = std::chrono::steady_clock::now();
    if (pstats.responses != n_requests || pstats.errors != 0) {
      std::cerr << "bench_serve: FATAL: protocol pass dropped requests\n";
      return 1;
    }
    // Responses are in request order; check them against the shared
    // formatter over the serial results (the byte-level invariant).
    std::istringstream lines(resp_stream.str());
    std::string line;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (!std::getline(lines, line) ||
          line !=
              format_result_line(static_cast<std::int64_t>(i), expected[i])) {
        std::cerr << "bench_serve: FATAL: protocol response " << i
                  << " is not byte-identical to the serial result\n";
        return 1;
      }
    }
    const double ms =
        std::chrono::duration_cast<std::chrono::nanoseconds>(p1 - p0)
            .count() /
        1e6;
    passes.push_back({static_cast<double>(n_requests) / (ms / 1e3),
                      pstats.latency_percentile_us(50),
                      pstats.latency_percentile_us(99)});
  }
  std::sort(passes.begin(), passes.end(),
            [](const ProtocolPass& a, const ProtocolPass& b) {
              return a.samples_per_s < b.samples_per_s;
            });
  const ProtocolPass& proto = passes[passes.size() / 2];
  const double proto_q1 = passes[passes.size() / 4].samples_per_s;
  const double proto_q3 = passes[passes.size() * 3 / 4].samples_per_s;
  std::printf(
      "protocol (StreamServer, ndjson): %8.0f samples/s (median of %d "
      "passes, quartiles %.0f-%.0f), p50 %7.0f us, p99 %7.0f us\n",
      proto.samples_per_s, kProtocolPasses, proto_q1, proto_q3, proto.p50_us,
      proto.p99_us);
  std::cout << "protocol byte-exactness check passed\n";

#ifndef _WIN32
  // Saturation pass: the epoll TCP front-end under pipelined overload.
  // The admission queue is kept shallow on purpose -- the interesting
  // number is how the server degrades: shed rate and tail latency, with
  // the hard invariant that sent == ok + shed + timeout for every client.
  std::vector<SaturationPoint> saturation;
  {
    const std::vector<int> conn_sweep = quick ? std::vector<int>{1, 4}
                                              : std::vector<int>{1, 4, 16};
    const std::int64_t per_conn = quick ? 32 : 64;
    std::cout << "epoll saturation sweep (" << per_conn
              << " pipelined requests/conn, queue depth 4):\n";
    for (const int conns : conn_sweep) {
      NetConfig ncfg;
      ncfg.tcp_port = 0;
      ncfg.engine.threads = hw;
      ncfg.engine.max_batch = 8;
      ncfg.queue_depth = 4;  // force admission control to work
      ncfg.retry_after_ms = 5;
      EpollServer server(net, ncfg);
      const int port = server.tcp_port();
      NetStats nstats;
      std::thread loop([&] { nstats = server.run(); });

      std::atomic<std::int64_t> ok{0};
      std::atomic<std::int64_t> shed{0};
      std::atomic<std::int64_t> timeouts{0};
      std::atomic<std::int64_t> unanswered{0};
      std::atomic<bool> exact{true};
      const auto s0 = std::chrono::steady_clock::now();
      std::vector<std::thread> clients;
      for (int c = 0; c < conns; ++c) {
        clients.emplace_back([&, c] {
          SatClient client;
          if (!client.connect_tcp(port)) {
            unanswered += per_conn;
            return;
          }
          std::string burst;
          std::set<std::int64_t> pending;
          for (std::int64_t j = 0; j < per_conn; ++j) {
            const std::int64_t id = c * 1'000'000 + j;
            std::string req = format_request_line(
                id,
                inputs[static_cast<std::size_t>(id) % inputs.size()].data(),
                numel);
            req.insert(req.size() - 1, ",\"deadline_ms\":2000");
            burst += req;
            burst += "\n";
            pending.insert(id);
          }
          if (!client.send_all(burst)) {
            unanswered += static_cast<std::int64_t>(pending.size());
            return;
          }
          std::string line;
          while (!pending.empty() && client.read_line(line)) {
            const std::size_t idpos = line.find("\"id\":");
            if (idpos == std::string::npos) continue;
            const std::int64_t id =
                std::strtoll(line.c_str() + idpos + 5, nullptr, 10);
            if (pending.erase(id) == 0) continue;
            if (line.find("\"predicted\"") != std::string::npos) {
              if (line != format_result_line(
                              id, expected[static_cast<std::size_t>(id) %
                                           expected.size()])) {
                exact = false;
              }
              ++ok;
            } else if (line.find("\"code\":\"overloaded\"") !=
                       std::string::npos) {
              ++shed;
            } else if (line.find("\"code\":\"timeout\"") !=
                       std::string::npos) {
              ++timeouts;
            }
          }
          unanswered += static_cast<std::int64_t>(pending.size());
        });
      }
      for (auto& t : clients) t.join();
      const auto s1 = std::chrono::steady_clock::now();
      server.request_drain();
      loop.join();

      if (unanswered.load() != 0) {
        std::cerr << "bench_serve: FATAL: " << unanswered.load()
                  << " requests silently dropped under saturation (conns="
                  << conns << ")\n";
        return 1;
      }
      if (!exact.load()) {
        std::cerr << "bench_serve: FATAL: saturated epoll response diverges "
                     "from the serial planned path (conns="
                  << conns << ")\n";
        return 1;
      }

      // Tail latency over the served (non-shed) requests comes from the
      // server's own stats ring; the shed rate is the overload story.
      SaturationPoint pt;
      pt.conns = conns;
      pt.sent = static_cast<std::int64_t>(conns) * per_conn;
      pt.ok = ok.load();
      pt.shed = shed.load();
      pt.timeouts = timeouts.load();
      pt.shed_rate =
          static_cast<double>(pt.shed) / static_cast<double>(pt.sent);
      pt.p50_us = nstats.engine.latency_percentile_us(50);
      pt.p99_us = nstats.engine.latency_percentile_us(99);
      pt.p999_us = nstats.engine.latency_percentile_us(99.9);
      const double wall_ms =
          std::chrono::duration_cast<std::chrono::nanoseconds>(s1 - s0)
              .count() /
          1e6;
      pt.samples_per_s = static_cast<double>(pt.ok) / (wall_ms / 1e3);
      pt.exact = true;
      saturation.push_back(pt);
      std::printf(
          "  conns %2d: sent %5lld, ok %5lld, shed %5lld (%.0f%%), "
          "timeout %4lld, %7.0f served/s\n",
          conns, static_cast<long long>(pt.sent),
          static_cast<long long>(pt.ok), static_cast<long long>(pt.shed),
          pt.shed_rate * 100.0, static_cast<long long>(pt.timeouts),
          pt.samples_per_s);
    }
  }
  std::cout << "saturation accounting check passed (no request dropped)\n";

  // Reload sweep: identical traffic with and without a background thread
  // continuously hot-swapping the serving model; the p99 delta is the
  // price of a reload-heavy control plane. The two images hold the same
  // weights, so every generation must answer bit-exactly.
  struct ReloadSweepResult {
    std::int64_t requests{0};
    std::int64_t reloads_attempted{0};
    std::int64_t reloads_ok{0};
    std::int64_t lost{0};
    bool exact{true};
    double base_p50_us{0.0}, base_p99_us{0.0}, base_samples_per_s{0.0};
    double swap_p50_us{0.0}, swap_p99_us{0.0}, swap_samples_per_s{0.0};
  } rsweep;
  if (reload_sweep) {
    namespace fs = std::filesystem;
    const std::string img_a =
        (fs::temp_directory_path() / "bench_serve_reload_a.img").string();
    const std::string img_b =
        (fs::temp_directory_path() / "bench_serve_reload_b.img").string();
    write_flash_image_file(net, img_a);
    write_flash_image_file(net, img_b);

    const std::int64_t per_conn = quick ? 64 : 256;
    const int conns = 2;
    rsweep.requests = static_cast<std::int64_t>(conns) * per_conn * 2;
    std::cout << "reload sweep (" << conns << " conns x " << per_conn
              << " requests, baseline vs continuous hot-swap):\n";
    for (const bool swapping : {false, true}) {
      ModelRegistry reg(hw);
      reg.add_model("default", img_a);
      NetConfig ncfg;
      ncfg.tcp_port = 0;
      ncfg.engine.threads = hw;
      ncfg.engine.max_batch = 8;
      ncfg.queue_depth = 1024;  // deep: measuring latency, not shedding
      EpollServer server(reg, ncfg);
      const int port = server.tcp_port();
      NetStats nstats;
      std::thread loop([&] { nstats = server.run(); });

      std::atomic<bool> traffic_done{false};
      std::atomic<std::int64_t> reload_ok_n{0};
      std::atomic<std::int64_t> reload_n{0};
      std::thread reloader;
      if (swapping) {
        reloader = std::thread([&] {
          bool to_b = true;
          while (!traffic_done.load(std::memory_order_relaxed)) {
            ++reload_n;
            if (reg.reload("default", to_b ? img_b : img_a).ok) {
              ++reload_ok_n;
            }
            to_b = !to_b;
          }
        });
      }

      std::atomic<std::int64_t> answered{0};
      std::atomic<bool> exact{true};
      const auto r0 = std::chrono::steady_clock::now();
      std::vector<std::thread> clients;
      for (int c = 0; c < conns; ++c) {
        clients.emplace_back([&, c] {
          SatClient client;
          if (!client.connect_tcp(port)) return;
          constexpr std::int64_t kWindow = 16;
          std::string line;
          for (std::int64_t j = 0; j < per_conn; ++j) {
            std::string burst;
            for (std::int64_t w = 0; w < kWindow; ++w) {
              const std::int64_t id = c * 1'000'000 + j * kWindow + w;
              burst += format_request_line(
                  id,
                  inputs[static_cast<std::size_t>(id) % inputs.size()].data(),
                  numel);
              burst += "\n";
            }
            if (!client.send_all(burst)) return;
            for (std::int64_t w = 0; w < kWindow; ++w) {
              if (!client.read_line(line)) return;
              const std::size_t idpos = line.find("\"id\":");
              if (idpos == std::string::npos) continue;
              const std::int64_t id =
                  std::strtoll(line.c_str() + idpos + 5, nullptr, 10);
              if (line != format_result_line(
                              id, expected[static_cast<std::size_t>(id) %
                                           expected.size()])) {
                exact = false;
              }
              ++answered;
            }
            j += kWindow - 1;
          }
        });
      }
      for (auto& t : clients) t.join();
      const auto r1 = std::chrono::steady_clock::now();
      traffic_done = true;
      if (reloader.joinable()) reloader.join();
      server.request_drain();
      loop.join();

      const std::int64_t sent = static_cast<std::int64_t>(conns) * per_conn;
      const double wall_ms =
          std::chrono::duration_cast<std::chrono::nanoseconds>(r1 - r0)
              .count() /
          1e6;
      const double p50 = nstats.engine.latency_percentile_us(50);
      const double p99 = nstats.engine.latency_percentile_us(99);
      const double rate = static_cast<double>(answered.load()) /
                          (wall_ms / 1e3);
      if (swapping) {
        rsweep.swap_p50_us = p50;
        rsweep.swap_p99_us = p99;
        rsweep.swap_samples_per_s = rate;
        rsweep.reloads_attempted = reload_n.load();
        rsweep.reloads_ok = reload_ok_n.load();
      } else {
        rsweep.base_p50_us = p50;
        rsweep.base_p99_us = p99;
        rsweep.base_samples_per_s = rate;
      }
      rsweep.lost += sent - answered.load();
      rsweep.exact = rsweep.exact && exact.load();
      std::printf(
          "  %-9s %7.0f samples/s, p50 %7.0f us, p99 %7.0f us"
          "%s%lld reloads\n",
          swapping ? "hot-swap:" : "baseline:", rate, p50, p99,
          swapping ? ", " : ", no ",
          static_cast<long long>(reload_n.load()));
    }
    std::remove(img_a.c_str());
    std::remove(img_b.c_str());

    if (rsweep.lost != 0) {
      std::cerr << "bench_serve: FATAL: " << rsweep.lost
                << " requests lost during the reload sweep\n";
      return 1;
    }
    if (!rsweep.exact) {
      std::cerr << "bench_serve: FATAL: a response diverged from the serial "
                   "planned path during hot-swap reloads\n";
      return 1;
    }
    if (rsweep.reloads_ok != rsweep.reloads_attempted) {
      std::cerr << "bench_serve: FATAL: " << rsweep.reloads_attempted
                << " reloads attempted but only " << rsweep.reloads_ok
                << " succeeded (good image, same shape: all must land)\n";
      return 1;
    }
    std::cout << "reload sweep checks passed (bit-exact, nothing lost, "
              << rsweep.reloads_ok << "/" << rsweep.reloads_attempted
              << " reloads landed)\n";
  }
#endif  // !_WIN32

  if (!out_path.empty()) {
    const std::string provenance = bench::provenance_members();
    std::filesystem::path out_file(out_path);
    if (out_file.has_parent_path()) {
      std::filesystem::create_directories(out_file.parent_path());
    }
    std::ofstream os(out_file);
    if (!os) {
      std::cerr << "bench_serve: cannot write " << out_path << "\n";
      return 1;
    }
    os << "{\n  \"requests\": " << n_requests << ",\n"
       << provenance << "  \"engine_sweep\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& pt = points[i];
      os << "    {\"max_batch\": " << pt.max_batch
         << ", \"threads\": " << pt.threads
         << ", \"samples_per_s\": " << pt.samples_per_s
         << ", \"p50_us\": " << pt.p50_us << ", \"p99_us\": " << pt.p99_us
         << ", \"mean_batch_fill\": " << pt.mean_fill << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"protocol\": {\"samples_per_s\": " << proto.samples_per_s
       << ", \"samples_per_s_q1\": " << proto_q1
       << ", \"samples_per_s_q3\": " << proto_q3
       << ", \"passes\": " << kProtocolPasses
       << ", \"p50_us\": " << proto.p50_us
       << ", \"p99_us\": " << proto.p99_us << "}";
#ifndef _WIN32
    os << ",\n  \"saturation\": [\n";
    for (std::size_t i = 0; i < saturation.size(); ++i) {
      const SaturationPoint& pt = saturation[i];
      os << "    {\"conns\": " << pt.conns << ", \"sent\": " << pt.sent
         << ", \"ok\": " << pt.ok << ", \"shed\": " << pt.shed
         << ", \"timeouts\": " << pt.timeouts
         << ", \"shed_rate\": " << pt.shed_rate
         << ", \"p50_us\": " << pt.p50_us << ", \"p99_us\": " << pt.p99_us
         << ", \"p999_us\": " << pt.p999_us
         << ", \"samples_per_s\": " << pt.samples_per_s
         << ", \"exact\": " << (pt.exact ? "true" : "false") << "}"
         << (i + 1 < saturation.size() ? "," : "") << "\n";
    }
    os << "  ]";
    if (reload_sweep) {
      const double delta_pct =
          rsweep.base_p99_us > 0.0
              ? (rsweep.swap_p99_us - rsweep.base_p99_us) /
                    rsweep.base_p99_us * 100.0
              : 0.0;
      os << ",\n  \"reload\": {\"requests\": " << rsweep.requests
         << ", \"reloads_attempted\": " << rsweep.reloads_attempted
         << ", \"reloads_ok\": " << rsweep.reloads_ok
         << ", \"lost\": " << rsweep.lost
         << ", \"exact\": " << (rsweep.exact ? "true" : "false")
         << ",\n    \"baseline\": {\"p50_us\": " << rsweep.base_p50_us
         << ", \"p99_us\": " << rsweep.base_p99_us
         << ", \"samples_per_s\": " << rsweep.base_samples_per_s << "}"
         << ",\n    \"hot_swap\": {\"p50_us\": " << rsweep.swap_p50_us
         << ", \"p99_us\": " << rsweep.swap_p99_us
         << ", \"samples_per_s\": " << rsweep.swap_samples_per_s << "}"
         << ",\n    \"p99_delta_pct\": " << delta_pct << "}";
    }
#endif
    os << "\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
