// Reload-under-load chaos hardening for the multi-model registry
// (serve/registry.hpp) behind the epoll front-end:
//
//   * 100 hot-swap cycles (good and hostile replacement images) must
//     leave /proc/self/fd EXACTLY where it started, keep RSS flat, and
//     unmap every retired image -- a reload that leaks a descriptor or
//     a mapping is a slow-motion outage;
//   * concurrent clients hammering two models while a background thread
//     rotates good/bad reloads (with an injected delay stretching every
//     validate->swap window): zero misrouted ids, zero lost admitted
//     requests, and every response bit-exact against one of the image
//     versions actually published for its model;
//   * an injected reload fault storm (rtrunc/rexecerr at 50%) must never
//     take the serving path down: every reload attempt gets a structured
//     ack, failures leave the old generation serving, and traffic stays
//     bit-exact throughout.
#ifndef _WIN32

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/flash_image.hpp"
#include "runtime/plan.hpp"
#include "serve/net/epoll_server.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace mixq::serve {
namespace {

using runtime::ExecutionPlan;
using runtime::QuantizedNet;

QuantizedNet make_net(std::uint64_t seed) {
  Rng rng(seed);
  models::SmallCnnConfig cfg;
  cfg.input_hw = 8;
  cfg.base_channels = 4;
  cfg.num_blocks = 1;
  cfg.num_classes = 3;
  cfg.qw = core::BitWidth::kQ4;
  cfg.wgran = core::Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  return runtime::convert_qat_model(model, Shape(1, 8, 8, 3),
                                    {core::Scheme::kPCICN});
}

struct TempImage {
  TempImage(const QuantizedNet& net, const std::string& tag)
      : path("chaos_reload_" + tag + ".img") {
    runtime::write_flash_image_file(net, path);
  }
  ~TempImage() { std::remove(path.c_str()); }
  TempImage(const TempImage&) = delete;
  std::string path;
};

/// A structurally-broken image: `src` truncated to half. The hardened
/// loader must refuse it at reload validation time.
std::string write_truncated(const std::string& src, const std::string& tag) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string path = "chaos_reload_" + tag + ".img";
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  return path;
}

std::vector<std::vector<float>> make_samples(const QuantizedNet& net, int n,
                                             std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t numel = net.layers.front().in_shape.numel();
  std::vector<std::vector<float>> samples(static_cast<std::size_t>(n));
  for (auto& s : samples) {
    s.resize(static_cast<std::size_t>(numel));
    rng.fill_uniform(s, 0.0, 1.0);
  }
  return samples;
}

/// format_result_line(0, plan.run(sample)) per sample -- the exact
/// tail every response for that (net, sample) pair must carry.
std::vector<std::string> expected_per_sample(
    const QuantizedNet& net, const std::vector<std::vector<float>>& samples) {
  const ExecutionPlan plan(net);
  const Shape& in = net.layers.front().in_shape;
  std::vector<std::string> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    FloatTensor img(in);
    img.vec() = s;
    out.push_back(format_result_line(0, plan.run(img)));
  }
  return out;
}

std::string with_id(std::int64_t id, const std::string& id0_line) {
  const std::size_t comma = id0_line.find(',');
  return "{\"id\":" + std::to_string(id) + id0_line.substr(comma);
}

std::int64_t parse_id(const std::string& line) {
  const std::size_t pos = line.find("\"id\":");
  if (pos == std::string::npos) return -1;
  return std::strtoll(line.c_str() + pos + 5, nullptr, 10);
}

int count_open_fds() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (readdir(d) != nullptr) ++n;
  closedir(d);
  return n;
}

std::int64_t rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return -1;
}

/// Mappings of `basename` currently in /proc/self/maps (one per live
/// mmap-borrowing generation of that image file).
int count_mappings(const std::string& basename) {
  std::ifstream in("/proc/self/maps");
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    if (line.find(basename) != std::string::npos) ++n;
  }
  return n;
}

class Client {
 public:
  ~Client() { close(); }

  bool connect_tcp(int port, int timeout_ms = 10'000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      close();
      return false;
    }
    return true;
  }

  bool send_line(const std::string& line) {
    std::string wire = line;
    wire.push_back('\n');
    std::size_t off = 0;
    while (off < wire.size()) {
      const auto n =
          ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
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
      char chunk[4096];
      const auto n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_{-1};
  std::string buf_;
};

std::string request_line(std::int64_t id, const std::string& model,
                         const std::vector<float>& input) {
  std::ostringstream os;
  os << "{\"id\":" << id;
  if (!model.empty()) os << ",\"model\":\"" << model << "\"";
  os << ",\"input\":[";
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (i != 0) os << ',';
    os << input[i];
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Gate 1: 100 reload cycles leak nothing -- fds, RSS, or mappings.
// ---------------------------------------------------------------------------

TEST(ReloadChaos, HundredCyclesKeepFdsRssAndMappingsExact) {
  const QuantizedNet v1 = make_net(10);
  const QuantizedNet v2 = make_net(11);
  const TempImage img1(v1, "cycle_v1");
  const TempImage img2(v2, "cycle_v2");
  const std::string bad = write_truncated(img1.path, "cycle_bad");

  ModelRegistry reg(1);
  reg.add_model("m", img1.path);

  // Steady state established (first touch of every allocation pool),
  // then: fd count must be EXACT, RSS flat, across 100 full cycles.
  ASSERT_TRUE(reg.reload("m", img2.path).ok);
  ASSERT_TRUE(reg.reload("m", img1.path).ok);
  ASSERT_FALSE(reg.reload("m", bad).ok);

  const int fd_before = count_open_fds();
  const std::int64_t rss_before = rss_kib();
  ASSERT_GT(fd_before, 0);
  ASSERT_GT(rss_before, 0);

  for (int cycle = 0; cycle < 100; ++cycle) {
    ASSERT_TRUE(reg.reload("m", img2.path).ok) << "cycle " << cycle;
    ASSERT_FALSE(reg.reload("m", bad).ok) << "cycle " << cycle;
    ASSERT_TRUE(reg.reload("m", img1.path).ok) << "cycle " << cycle;
  }

  EXPECT_EQ(count_open_fds(), fd_before)
      << "a reload cycle leaked a file descriptor";
  // 100 cycles re-mapped ~600 KiB of images 300 times; a flat RSS (small
  // allocator slack aside) proves retirement really releases them.
  EXPECT_LT(rss_kib() - rss_before, 8 * 1024)
      << "RSS grew across reload cycles (leaked generations?)";
  // Exactly the serving generation's mapping survives; every retired
  // generation -- and every refused bad image -- is unmapped.
  EXPECT_EQ(count_mappings(img1.path), 1);
  EXPECT_EQ(count_mappings(img2.path), 0);
  EXPECT_EQ(count_mappings(bad), 0);
  EXPECT_EQ(reg.resolve("m")->generation, 1u + 2u + 200u);
  std::remove(bad.c_str());
}

// ---------------------------------------------------------------------------
// Gate 2: reload under saturation -- two models, concurrent clients, a
// background reload rotation, every response bit-exact and accounted.
// ---------------------------------------------------------------------------

TEST(ReloadChaos, ReloadUnderSaturationRoutesAndAccountsExactly) {
  const QuantizedNet a1 = make_net(20);
  const QuantizedNet a2 = make_net(21);
  const QuantizedNet b1 = make_net(22);
  const TempImage img_a1(a1, "sat_a1");
  const TempImage img_a2(a2, "sat_a2");
  const TempImage img_b(b1, "sat_b");
  const std::string bad = write_truncated(img_a1.path, "sat_bad");

  constexpr int kSamples = 4;
  const auto samples = make_samples(a1, kSamples, 77);
  // Model a serves image version a1 OR a2 at any instant; b only b1. A
  // response is correct iff it is bit-exact for a version of ITS model.
  const auto expect_a1 = expected_per_sample(a1, samples);
  const auto expect_a2 = expected_per_sample(a2, samples);
  const auto expect_b = expected_per_sample(b1, samples);
  for (int s = 0; s < kSamples; ++s) {
    // The whole gate rests on versions being distinguishable.
    ASSERT_NE(expect_a1[s], expect_a2[s]);
    ASSERT_NE(expect_a1[s], expect_b[s]);
  }

  ModelRegistry reg(2);
  reg.add_model("a", img_a1.path);
  reg.add_model("b", img_b.path);

  NetConfig cfg;
  cfg.tcp_port = 0;
  cfg.engine.max_batch = 4;
  cfg.engine.max_wait_us = 200;
  cfg.queue_depth = 1024;
  cfg.drain_timeout_ms = 10'000;
  // Stretch every validate->swap window so traffic actually lands inside
  // it (the race the RCU design must win).
  cfg.faults.reload_delay_p = 1.0;
  cfg.faults.reload_delay_us = 200;

  const int fd_before = count_open_fds();
  NetStats stats;
  {
    EpollServer server(reg, cfg);
    std::thread runner([&] { stats = server.run(); });
    const int port = server.tcp_port();

    constexpr int kClients = 4;
    constexpr int kPerClient = 120;
    constexpr int kWindow = 8;  // pipelined requests per read burst
    std::atomic<int> misrouted{0};
    std::atomic<int> lost{0};
    std::atomic<int> shed{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Client cl;
        ASSERT_TRUE(cl.connect_tcp(port));
        int sent_in_window = 0;
        std::set<std::int64_t> outstanding;
        auto drain_window = [&] {
          std::string line;
          while (!outstanding.empty()) {
            if (!cl.read_line(line)) {
              lost += static_cast<int>(outstanding.size());
              outstanding.clear();
              return;
            }
            const std::int64_t id = parse_id(line);
            if (outstanding.erase(id) != 1) {
              ++misrouted;  // unknown or duplicate id
              continue;
            }
            if (line.find("\"error\"") != std::string::npos) {
              // Only admission-control shedding is a legal error here.
              if (line.find("\"code\":\"overloaded\"") != std::string::npos) {
                ++shed;
              } else {
                ADD_FAILURE() << "unexpected error line: " << line;
              }
              continue;
            }
            const int s = static_cast<int>(id % kSamples);
            const bool is_b = (id / kSamples) % 2 == 1;
            const bool match =
                is_b ? line == with_id(id, expect_b[s])
                     : (line == with_id(id, expect_a1[s]) ||
                        line == with_id(id, expect_a2[s]));
            if (!match) {
              ++misrouted;
              ADD_FAILURE() << "response not bit-exact for any published "
                            << "version: " << line;
            }
          }
        };
        for (int i = 0; i < kPerClient; ++i) {
          // id encodes (client, seq, sample, model) so any cross-wiring
          // is observable: sample = id % kSamples, model = seq parity.
          const std::int64_t id =
              c * 1'000'000 + i * kSamples + (i % kSamples);
          const int s = static_cast<int>(id % kSamples);
          const bool is_b = (id / kSamples) % 2 == 1;
          ASSERT_TRUE(
              cl.send_line(request_line(id, is_b ? "b" : "a", samples[s])));
          outstanding.insert(id);
          if (++sent_in_window == kWindow) {
            drain_window();
            sent_in_window = 0;
          }
        }
        drain_window();
      });
    }

    // The reload rotation: good swap, hostile swap (must be refused),
    // swap back, refresh b -- while the clients above stay saturated.
    std::atomic<int> reload_ok{0};
    std::atomic<int> reload_failed{0};
    std::thread reloader([&] {
      Client rc;
      ASSERT_TRUE(rc.connect_tcp(port));
      std::string line;
      auto attempt = [&](const std::string& model, const std::string& path,
                         bool expect_ok) {
        ASSERT_TRUE(rc.send_line("{\"cmd\":\"reload\",\"model\":\"" + model +
                                 "\",\"path\":\"" + path + "\"}"));
        ASSERT_TRUE(rc.read_line(line)) << "reload ack lost";
        const bool ok = line.find("\"ok\":\"reload\"") != std::string::npos;
        (ok ? reload_ok : reload_failed) += 1;
        EXPECT_EQ(ok, expect_ok) << line;
        if (!ok) {
          EXPECT_NE(line.find("\"code\":\"reload_failed\""),
                    std::string::npos)
              << line;
        }
      };
      for (int cycle = 0; cycle < 25; ++cycle) {
        attempt("a", img_a2.path, true);
        attempt("a", bad, false);
        attempt("a", img_a1.path, true);
        attempt("b", img_b.path, true);
      }
    });

    for (auto& t : clients) t.join();
    reloader.join();
    EXPECT_EQ(reload_ok.load(), 75);
    EXPECT_EQ(reload_failed.load(), 25);
    EXPECT_EQ(misrouted.load(), 0);
    EXPECT_EQ(lost.load(), 0) << "admitted requests vanished";

    server.request_drain();
    runner.join();

    // Conservation at the server too: every admitted request became a
    // response or a structured shed -- none lost, none duplicated.
    EXPECT_EQ(stats.engine.responses + stats.engine.shed,
              kClients * kPerClient);
    EXPECT_EQ(stats.engine.shed, shed.load());
    EXPECT_EQ(stats.engine.timeouts, 0);
  }

  // Teardown leaks nothing: sockets, eventfds, epoll, or image fds.
  EXPECT_EQ(count_open_fds(), fd_before);
  // Model a ended the rotation on a1, b on its only image: exactly one
  // live mapping each, zero stale.
  EXPECT_EQ(count_mappings(img_a1.path), 1);
  EXPECT_EQ(count_mappings(img_a2.path), 0);
  EXPECT_EQ(count_mappings(bad), 0);
  EXPECT_EQ(count_mappings(img_b.path), 1);
  const std::string health = reg.health_json();
  EXPECT_NE(health.find("\"reloads_ok\":50"), std::string::npos) << health;
  EXPECT_NE(health.find("\"reloads_failed\":25"), std::string::npos)
      << health;
  std::remove(bad.c_str());
}

// ---------------------------------------------------------------------------
// Gate 3: a reload fault storm never takes serving down.
// ---------------------------------------------------------------------------

TEST(ReloadChaos, InjectedFaultStormLeavesServingIntact) {
  const QuantizedNet v1 = make_net(30);
  const TempImage img(v1, "storm");
  constexpr int kSamples = 3;
  const auto samples = make_samples(v1, kSamples, 99);
  const auto expect = expected_per_sample(v1, samples);

  ModelRegistry reg(1);
  reg.add_model("m", img.path);

  NetConfig cfg;
  cfg.tcp_port = 0;
  cfg.engine.max_wait_us = 200;
  // Half the reloads lose their image mid-read, half fail validation;
  // deterministic seed so a failure replays.
  cfg.faults.seed = 7;
  cfg.faults.reload_trunc_p = 0.5;
  cfg.faults.reload_exec_p = 0.5;

  EpollServer server(reg, cfg);
  std::thread runner([&] { (void)server.run(); });
  const int port = server.tcp_port();

  std::atomic<bool> stop{false};
  std::atomic<int> bad_lines{0};
  std::thread traffic([&] {
    Client cl;
    ASSERT_TRUE(cl.connect_tcp(port));
    std::string line;
    for (std::int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const int s = static_cast<int>(i % kSamples);
      if (!cl.send_line(request_line(i, "m", samples[s]))) break;
      if (!cl.read_line(line)) break;
      // Whatever the storm does to reloads, every served answer is the
      // one bit-exact answer (all generations load the same image).
      if (line != with_id(i, expect[s])) ++bad_lines;
    }
  });

  Client rc;
  ASSERT_TRUE(rc.connect_tcp(port));
  int acks = 0;
  int storm_ok = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rc.send_line("{\"cmd\":\"reload\",\"model\":\"m\"}"));
    std::string line;
    ASSERT_TRUE(rc.read_line(line)) << "reload ack lost in the storm";
    ++acks;
    if (line.find("\"ok\":\"reload\"") != std::string::npos) {
      ++storm_ok;
    } else {
      EXPECT_NE(line.find("\"code\":\"reload_failed\""), std::string::npos)
          << line;
    }
  }
  EXPECT_EQ(acks, 40);

  stop = true;
  traffic.join();
  rc.close();
  server.request_drain();
  runner.join();
  EXPECT_EQ(bad_lines.load(), 0)
      << "a reload fault corrupted a served answer";
  // The slot survived the storm still serving (whatever mix of outcomes
  // the seed produced, the registry's counters agree with the acks).
  ASSERT_NE(reg.resolve("m"), nullptr);
  const std::string health = reg.health_json();
  EXPECT_NE(health.find("\"reloads_ok\":" + std::to_string(storm_ok)),
            std::string::npos)
      << health;
  EXPECT_NE(health.find("\"state\":\"ready\""), std::string::npos) << health;
}

}  // namespace
}  // namespace mixq::serve

#endif  // !_WIN32
