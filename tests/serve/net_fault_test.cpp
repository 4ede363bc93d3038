// Fault-tolerance suite for the epoll serving front-end (serve/net/):
// bit-exact TCP and unix-socket round trips, deadline enforcement,
// admission-control shedding, slow-client outbox backpressure, graceful
// drain with in-flight work, idle reaping, connection caps -- and a
// randomized fault-injection chaos gate (200+ deterministic-seed client
// sessions against servers dropping connections, truncating writes,
// delaying flushes, and failing requests) asserting the loop never
// deadlocks, never leaks a file descriptor, and never routes a response
// to the wrong request.
#ifndef _WIN32

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/plan.hpp"
#include "serve/dispatcher.hpp"
#include "serve/net/epoll_server.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace mixq::serve {
namespace {

using runtime::ExecutionPlan;
using runtime::QInferenceResult;
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

int count_open_fds() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (readdir(d) != nullptr) ++n;
  closedir(d);
  return n;
}

// ---------------------------------------------------------------------------
// A minimal blocking ndjson client with receive timeouts (a hung read is
// a test failure, never a hung test binary).
// ---------------------------------------------------------------------------

class Client {
 public:
  ~Client() { close(); }

  bool connect_tcp(int port, int timeout_ms = 10'000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    set_timeouts(timeout_ms);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      close();
      return false;
    }
    return true;
  }

  bool connect_unix(const std::string& path, int timeout_ms = 10'000) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    set_timeouts(timeout_ms);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    path.copy(addr.sun_path, path.size());
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      close();
      return false;
    }
    return true;
  }

  void shrink_rcvbuf(int bytes) {
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  }

  /// False when the peer reset/closed the connection (fine under chaos) or
  /// the send timed out; send_errno() tells which.
  bool send_line(const std::string& line) { return send_bytes(line + "\n"); }

  /// send_line without the newline: `bytes` go out as they are.
  bool send_bytes(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const auto n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        send_errno_ = errno;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// errno of the last failed send_line.
  [[nodiscard]] int send_errno() const { return send_errno_; }

  enum class Read { kLine, kEof, kError };

  Read read_line(std::string& out) {
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return Read::kLine;
      }
      char chunk[4096];
      const auto n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Read::kError;  // timeout (EAGAIN) or reset
      }
      if (n == 0) return Read::kEof;
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
  void set_timeouts(int timeout_ms) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }

  int fd_{-1};
  int send_errno_{0};
  std::string buf_;
};

/// Runs an EpollServer on a background thread; stop() drains and returns
/// the final stats.
class Harness {
 public:
  Harness(const QuantizedNet& net, NetConfig cfg)
      : server_(net, std::move(cfg)) {
    thread_ = std::thread([this] { stats_ = server_.run(); });
  }
  ~Harness() {
    if (thread_.joinable()) stop();
  }

  [[nodiscard]] int port() const { return server_.tcp_port(); }
  EpollServer& server() { return server_; }

  NetStats stop() {
    server_.request_drain();
    thread_.join();
    return stats_;
  }

 private:
  EpollServer server_;
  std::thread thread_;
  NetStats stats_;
};

/// The exact response line the daemon must emit for request `id` carrying
/// sample `samples[id % samples.size()]`.
std::string expected_line(std::int64_t id,
                          const std::vector<std::string>& per_sample) {
  return per_sample[static_cast<std::size_t>(id) % per_sample.size()];
}

std::vector<std::string> expected_per_sample(
    const QuantizedNet& net, const std::vector<std::vector<float>>& samples) {
  const ExecutionPlan plan(net);
  const Shape& in = net.layers.front().in_shape;
  std::vector<std::string> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    FloatTensor img(in);
    img.vec() = s;
    // The id is re-spliced per request; keep the tail after "id":N.
    out.push_back(format_result_line(0, plan.run(img)));
  }
  return out;
}

/// format_result_line(0, r) with the id swapped for `id`.
std::string with_id(std::int64_t id, const std::string& id0_line) {
  const std::size_t comma = id0_line.find(',');
  return "{\"id\":" + std::to_string(id) + id0_line.substr(comma);
}

/// The "id" field of a response or error line (-1 when absent). Error
/// lines carry the echoed id at the tail, result lines at the head.
std::int64_t parse_id(const std::string& line) {
  const std::size_t pos = line.find("\"id\":");
  if (pos == std::string::npos) return -1;
  return std::strtoll(line.c_str() + pos + 5, nullptr, 10);
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(EpollServer, TcpRoundTripBitExact) {
  const QuantizedNet net = make_net(1);
  const auto samples = make_samples(net, 4, 11);
  const auto expect = expected_per_sample(net, samples);

  NetConfig cfg;
  cfg.tcp_port = 0;
  Harness h(net, cfg);
  ASSERT_GT(h.port(), 0);

  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  const std::int64_t numel = net.layers.front().in_shape.numel();
  for (std::int64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(c.send_line(format_request_line(
        id, samples[static_cast<std::size_t>(id) % samples.size()].data(),
        numel)));
  }
  for (std::int64_t id = 0; id < 8; ++id) {
    std::string line;
    ASSERT_EQ(c.read_line(line), Client::Read::kLine);
    EXPECT_EQ(line, with_id(id, expected_line(id, expect)))
        << "response " << id << " misrouted or corrupted";
  }

  ASSERT_TRUE(c.send_line("{\"cmd\":\"shutdown\"}"));
  std::string ack;
  ASSERT_EQ(c.read_line(ack), Client::Read::kLine);
  EXPECT_EQ(ack, "{\"ok\":\"shutdown\"}");
  std::string eof;
  EXPECT_EQ(c.read_line(eof), Client::Read::kEof);
}

TEST(EpollServer, UnixSocketThroughSameLoop) {
  const QuantizedNet net = make_net(2);
  const auto samples = make_samples(net, 2, 12);
  const auto expect = expected_per_sample(net, samples);

  const std::string path = "/tmp/mixq_net_test_" +
                           std::to_string(::getpid()) + ".sock";
  NetConfig cfg;
  cfg.tcp_port = 0;  // both transports, one loop
  cfg.unix_path = path;
  Harness h(net, cfg);

  Client c;
  ASSERT_TRUE(c.connect_unix(path));
  const std::int64_t numel = net.layers.front().in_shape.numel();
  ASSERT_TRUE(c.send_line(format_request_line(1, samples[1].data(), numel)));
  std::string line;
  ASSERT_EQ(c.read_line(line), Client::Read::kLine);
  EXPECT_EQ(line, with_id(1, expect[1]));
  c.close();

  const NetStats stats = h.stop();
  EXPECT_EQ(stats.engine.responses, 1);
  EXPECT_EQ(::access(path.c_str(), F_OK), -1) << "stale socket file left";
}

// ---------------------------------------------------------------------------
// Framing: a line is a line however it arrives, and the line cap holds at
// its exact bound.
// ---------------------------------------------------------------------------

/// The daemon's request-line cap for a server over `net`.
std::size_t line_cap(const QuantizedNet& net) {
  ModelRegistry reg(1);
  reg.add_model("default", net);
  return Dispatcher(reg, ServeConfig{}, kUnboundedQueue, -1, nullptr, {})
      .max_line_bytes();
}

TEST(EpollServer, RequestInOddSizedPiecesGetsIdenticalReply) {
  const QuantizedNet net = make_net(21);
  const auto samples = make_samples(net, 3, 22);
  const auto expect = expected_per_sample(net, samples);
  const std::int64_t numel = net.layers.front().in_shape.numel();

  NetConfig cfg;
  cfg.tcp_port = 0;
  Harness h(net, cfg);
  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  std::string wire;
  for (std::int64_t id = 0; id < 3; ++id) {
    wire += format_request_line(id, samples[static_cast<std::size_t>(id)].data(),
                                numel) +
            "\n";
  }
  // Pauses between pieces let the loop see (most of) them as separate
  // reads; the replies must not depend on where the cuts fall.
  const std::size_t pieces[] = {1, 7, 4097, 2, 13, 1, 509, 3};
  std::size_t off = 0;
  for (std::size_t i = 0; off < wire.size(); ++i) {
    const std::size_t n = std::min(pieces[i % std::size(pieces)],
                                   wire.size() - off);
    ASSERT_TRUE(c.send_bytes(wire.substr(off, n)));
    off += n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::int64_t id = 0; id < 3; ++id) {
    std::string line;
    ASSERT_EQ(c.read_line(line), Client::Read::kLine);
    EXPECT_EQ(line, with_id(id, expect[static_cast<std::size_t>(id)]));
  }
}

TEST(EpollServer, UnterminatedLineOverTheCapIsRefusedAndDrained) {
  const QuantizedNet net = make_net(23);
  const std::size_t cap = line_cap(net);

  NetConfig cfg;
  cfg.tcp_port = 0;
  Harness h(net, cfg);
  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  ASSERT_TRUE(c.send_bytes(std::string(cap + 1, '1')));
  std::string line;
  ASSERT_EQ(c.read_line(line), Client::Read::kLine);
  EXPECT_EQ(line,
            "{\"error\":\"request line too long\",\"code\":\"malformed\","
            "\"retryable\":false}");
  // Framing is lost past the cap, so the server closes the connection.
  EXPECT_EQ(c.read_line(line), Client::Read::kEof);
}

TEST(EpollServer, LineOfExactlyTheCapIsServed) {
  const QuantizedNet net = make_net(24);
  const auto samples = make_samples(net, 2, 25);
  const auto expect = expected_per_sample(net, samples);
  const std::int64_t numel = net.layers.front().in_shape.numel();
  const std::size_t cap = line_cap(net);

  NetConfig cfg;
  cfg.tcp_port = 0;
  Harness h(net, cfg);
  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  std::string at_cap = format_request_line(5, samples[0].data(), numel);
  ASSERT_LT(at_cap.size(), cap);
  at_cap.resize(cap, ' ');  // JSON allows the trailing spaces
  // The cap's worth of bytes first, unterminated, then the newline.
  ASSERT_TRUE(c.send_bytes(at_cap));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(c.send_bytes("\n"));
  std::string line;
  ASSERT_EQ(c.read_line(line), Client::Read::kLine);
  EXPECT_EQ(line, with_id(5, expect[0]));
  // The connection still serves.
  ASSERT_TRUE(c.send_line(format_request_line(6, samples[1].data(), numel)));
  ASSERT_EQ(c.read_line(line), Client::Read::kLine);
  EXPECT_EQ(line, with_id(6, expect[1]));
}

// ---------------------------------------------------------------------------
// Deadlines: an expired request is answered `timeout`, never silently
// dropped and never given a batch slot.
// ---------------------------------------------------------------------------

TEST(EpollServer, ExpiredDeadlineAnsweredTimeoutBeforeExecution) {
  const QuantizedNet net = make_net(3);
  const auto samples = make_samples(net, 1, 13);

  NetConfig cfg;
  cfg.tcp_port = 0;
  cfg.engine.max_batch = 64;          // the batcher waits for more...
  cfg.engine.max_wait_us = 100'000;   // ...100 ms past the first pop
  Harness h(net, cfg);

  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  const std::int64_t numel = net.layers.front().in_shape.numel();
  std::string req = format_request_line(7, samples[0].data(), numel);
  req.insert(req.size() - 1, ",\"deadline_ms\":1");
  ASSERT_TRUE(c.send_line(req));

  std::string line;
  ASSERT_EQ(c.read_line(line), Client::Read::kLine);
  EXPECT_NE(line.find("\"code\":\"timeout\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"retryable\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"id\":7"), std::string::npos) << line;
  c.close();

  const NetStats stats = h.stop();
  EXPECT_EQ(stats.engine.timeouts, 1);
  EXPECT_EQ(stats.engine.responses, 0) << "expired request took a batch slot";
}

TEST(EpollServer, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  const QuantizedNet net = make_net(3);
  const auto samples = make_samples(net, 1, 13);

  NetConfig cfg;
  cfg.tcp_port = 0;
  cfg.engine.max_batch = 64;
  cfg.engine.max_wait_us = 100'000;
  cfg.engine.default_deadline_ms = 1;
  Harness h(net, cfg);

  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  const std::int64_t numel = net.layers.front().in_shape.numel();
  ASSERT_TRUE(c.send_line(format_request_line(3, samples[0].data(), numel)));
  std::string line;
  ASSERT_EQ(c.read_line(line), Client::Read::kLine);
  EXPECT_NE(line.find("\"code\":\"timeout\""), std::string::npos) << line;
  c.close();
  const NetStats stats = h.stop();
  EXPECT_EQ(stats.engine.timeouts, 1);
}

// ---------------------------------------------------------------------------
// Admission control: a full queue sheds with `overloaded` + retry hint;
// every request is answered exactly once.
// ---------------------------------------------------------------------------

TEST(EpollServer, SaturationShedsOverloadedWithRetryHint) {
  const QuantizedNet net = make_net(4);
  const auto samples = make_samples(net, 2, 14);

  NetConfig cfg;
  cfg.tcp_port = 0;
  cfg.queue_depth = 2;
  cfg.retry_after_ms = 25;
  cfg.engine.max_batch = 1;
  // Every batch flush sleeps 20 ms, so a 40-request burst must overflow
  // the depth-2 queue deterministically.
  cfg.faults.seed = 9;
  cfg.faults.delay_flush_p = 1.0;
  cfg.faults.delay_flush_us = 20'000;
  Harness h(net, cfg);

  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  const std::int64_t numel = net.layers.front().in_shape.numel();
  constexpr std::int64_t kBurst = 40;
  for (std::int64_t id = 0; id < kBurst; ++id) {
    ASSERT_TRUE(c.send_line(format_request_line(
        id, samples[static_cast<std::size_t>(id) % 2].data(), numel)));
  }

  std::int64_t ok = 0;
  std::int64_t shed = 0;
  std::set<std::int64_t> answered;
  for (std::int64_t i = 0; i < kBurst; ++i) {
    std::string line;
    ASSERT_EQ(c.read_line(line), Client::Read::kLine) << "request unanswered";
    const std::int64_t id = parse_id(line);
    if (line.find("\"predicted\"") != std::string::npos) {
      ++ok;
    } else {
      ASSERT_NE(line.find("\"code\":\"overloaded\""), std::string::npos)
          << line;
      ASSERT_NE(line.find("\"retry_after_ms\":25"), std::string::npos) << line;
      const std::size_t idpos = line.find("\"id\":");
      ASSERT_NE(idpos, std::string::npos) << line;
      ++shed;
    }
    if (id >= 0) EXPECT_TRUE(answered.insert(id).second) << "duplicate " << id;
  }
  EXPECT_GT(shed, 0) << "burst never shed";
  EXPECT_GT(ok, 0) << "everything shed";
  c.close();

  const NetStats stats = h.stop();
  EXPECT_EQ(stats.engine.shed, shed);
  EXPECT_EQ(stats.engine.responses, ok);
  EXPECT_EQ(stats.engine.responses + stats.engine.shed, kBurst)
      << "a request was silently dropped";
}

// ---------------------------------------------------------------------------
// Backpressure: a client that never reads is disconnected at the outbox
// bound instead of growing server memory.
// ---------------------------------------------------------------------------

TEST(EpollServer, SlowClientDisconnectedAtOutboxBound) {
  const QuantizedNet net = make_net(5);

  NetConfig cfg;
  cfg.tcp_port = 0;
  cfg.max_outbox_bytes = 4096;
  cfg.sndbuf_bytes = 2048;  // keep the kernel from absorbing the outbox
  Harness h(net, cfg);

  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  c.shrink_rcvbuf(2048);
  // ~95 bytes of response per 15-byte request, never read back. Send until
  // the server cuts the connection: loopback socket buffers can absorb any
  // fixed burst before a loaded server has read enough of it to overflow.
  // A send that times out (EAGAIN) only means the server has not read yet.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool cut = false;
  while (!cut && std::chrono::steady_clock::now() < deadline) {
    if (c.send_line("{\"cmd\":\"info\"}")) continue;
    const int e = c.send_errno();
    if (e == EAGAIN || e == EWOULDBLOCK) continue;
    cut = true;
    EXPECT_TRUE(e == EPIPE || e == ECONNRESET) << std::strerror(e);
  }
  EXPECT_TRUE(cut) << "server absorbed an unbounded response backlog";
  c.close();

  const NetStats stats = h.stop();
  EXPECT_GE(stats.overflow_closed, 1);
}

// ---------------------------------------------------------------------------
// Connection cap: excess accepts answered `overloaded`, then closed.
// ---------------------------------------------------------------------------

TEST(EpollServer, ConnectionCapRejectsWithStructuredError) {
  const QuantizedNet net = make_net(6);

  NetConfig cfg;
  cfg.tcp_port = 0;
  cfg.engine.max_conns = 1;
  Harness h(net, cfg);

  Client first;
  ASSERT_TRUE(first.connect_tcp(h.port()));
  ASSERT_TRUE(first.send_line("{\"cmd\":\"info\"}"));
  std::string line;
  ASSERT_EQ(first.read_line(line), Client::Read::kLine);  // registered

  Client second;
  ASSERT_TRUE(second.connect_tcp(h.port()));
  ASSERT_EQ(second.read_line(line), Client::Read::kLine);
  EXPECT_NE(line.find("\"code\":\"overloaded\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"retry_after_ms\""), std::string::npos) << line;
  EXPECT_EQ(second.read_line(line), Client::Read::kEof);
  second.close();
  first.close();

  const NetStats stats = h.stop();
  EXPECT_EQ(stats.rejected_conns, 1);
  EXPECT_EQ(stats.accepted_conns, 1);
}

// ---------------------------------------------------------------------------
// Graceful drain: everything admitted before the drain is answered, then
// connections close cleanly.
// ---------------------------------------------------------------------------

TEST(EpollServer, DrainAnswersInFlightThenCloses) {
  const QuantizedNet net = make_net(7);
  const auto samples = make_samples(net, 2, 17);
  const auto expect = expected_per_sample(net, samples);

  NetConfig cfg;
  cfg.tcp_port = 0;
  cfg.engine.max_batch = 64;
  cfg.engine.max_wait_us = 200'000;  // in-queue when the drain lands
  Harness h(net, cfg);

  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  const std::int64_t numel = net.layers.front().in_shape.numel();
  constexpr std::int64_t kN = 6;
  for (std::int64_t id = 0; id < kN; ++id) {
    ASSERT_TRUE(c.send_line(format_request_line(
        id, samples[static_cast<std::size_t>(id) % 2].data(), numel)));
  }
  // A pipelined stats command proves every request line before it was
  // parsed and admitted (the loop handles one connection in order).
  ASSERT_TRUE(c.send_line("{\"cmd\":\"stats\"}"));
  std::string line;
  ASSERT_EQ(c.read_line(line), Client::Read::kLine);
  ASSERT_NE(line.find("\"requests\":" + std::to_string(kN)),
            std::string::npos)
      << line;

  h.server().request_drain();  // what the SIGTERM handler invokes

  std::set<std::int64_t> got;
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(c.read_line(line), Client::Read::kLine)
        << "admitted request dropped by drain";
    const std::int64_t id = parse_id(line);
    ASSERT_GE(id, 0) << line;
    EXPECT_EQ(line, with_id(id, expected_line(id, expect)));
    EXPECT_TRUE(got.insert(id).second);
  }
  EXPECT_EQ(c.read_line(line), Client::Read::kEof);
  c.close();

  const NetStats stats = h.stop();
  EXPECT_EQ(stats.engine.responses, kN);
}

TEST(EpollServer, RequestsDuringDrainRefusedShuttingDown) {
  const QuantizedNet net = make_net(7);
  const auto samples = make_samples(net, 1, 18);

  NetConfig cfg;
  cfg.tcp_port = 0;
  Harness h(net, cfg);

  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  ASSERT_TRUE(c.send_line("{\"cmd\":\"shutdown\"}"));
  std::string line;
  ASSERT_EQ(c.read_line(line), Client::Read::kLine);
  EXPECT_EQ(line, "{\"ok\":\"shutdown\"}");
  EXPECT_EQ(c.read_line(line), Client::Read::kEof);
  h.stop();
}

// ---------------------------------------------------------------------------
// Idle reaping.
// ---------------------------------------------------------------------------

TEST(EpollServer, IdleConnectionsReaped) {
  const QuantizedNet net = make_net(8);

  NetConfig cfg;
  cfg.tcp_port = 0;
  cfg.idle_timeout_ms = 50;
  Harness h(net, cfg);

  Client c;
  ASSERT_TRUE(c.connect_tcp(h.port()));
  std::string line;
  EXPECT_EQ(c.read_line(line), Client::Read::kEof) << "idle conn kept open";
  c.close();

  const NetStats stats = h.stop();
  EXPECT_GE(stats.idle_reaped, 1);
}

// ---------------------------------------------------------------------------
// The chaos gate: 8 fault regimes x 25 client sessions = 200 randomized
// iterations, all deterministic in their seeds. Asserts no deadlock (all
// reads bounded), no fd leak (exact /proc/self/fd count), no misrouted
// response (every "predicted" line byte-matches the expectation for ITS
// id, and arrives on the connection that sent that id).
// ---------------------------------------------------------------------------

TEST(EpollServerChaos, TwoHundredFaultedSessionsNoLeakNoMisroute) {
  const QuantizedNet net = make_net(9);
  const auto samples = make_samples(net, 4, 19);
  const auto expect = expected_per_sample(net, samples);
  const std::int64_t numel = net.layers.front().in_shape.numel();

  const int baseline_fds = count_open_fds();
  ASSERT_GT(baseline_fds, 0);

  constexpr int kRounds = 8;
  constexpr int kThreads = 5;
  constexpr int kSessionsPerThread = 5;
  constexpr int kRequestsPerSession = 6;

  std::atomic<std::int64_t> sessions_run{0};
  std::atomic<std::int64_t> exact_responses{0};
  std::atomic<std::int64_t> error_responses{0};
  std::atomic<std::int64_t> failures{0};

  for (int round = 0; round < kRounds; ++round) {
    NetConfig cfg;
    cfg.tcp_port = 0;
    cfg.queue_depth = 8;
    cfg.engine.max_batch = 4;
    cfg.engine.max_wait_us = 500;
    cfg.faults.seed = static_cast<std::uint64_t>(round + 1);
    // Regimes rotate which faults dominate; all four sites stay live.
    cfg.faults.drop_conn_p = (round % 2 == 0) ? 0.02 : 0.05;
    cfg.faults.truncate_write_p = (round % 3 == 0) ? 0.5 : 0.2;
    cfg.faults.exec_error_p = (round % 2 == 1) ? 0.15 : 0.05;
    cfg.faults.delay_flush_p = 0.2;
    cfg.faults.delay_flush_us = 500;
    Harness h(net, cfg);

    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, round, t] {
        for (int s = 0; s < kSessionsPerThread; ++s) {
          const std::int64_t base =
              ((round * kThreads + t) * kSessionsPerThread + s) * 1000;
          Client c;
          if (!c.connect_tcp(h.port(), 15'000)) {
            ++failures;
            continue;
          }
          std::set<std::int64_t> sent;
          for (int r = 0; r < kRequestsPerSession; ++r) {
            const std::int64_t id = base + r;
            if (!c.send_line(format_request_line(
                    id,
                    samples[static_cast<std::size_t>(id) % samples.size()]
                        .data(),
                    numel))) {
              break;  // injected drop mid-session: acceptable
            }
            sent.insert(id);
          }
          // Read until every sent id is answered or the server dropped
          // us. Timeouts are NOT acceptable: that is a deadlock.
          std::size_t answered = 0;
          while (answered < sent.size()) {
            std::string line;
            const auto r = c.read_line(line);
            if (r == Client::Read::kEof) break;  // injected drop
            if (r == Client::Read::kError) {
              if (errno == EAGAIN || errno == EWOULDBLOCK) ++failures;
              break;  // reset under chaos is acceptable; timeout is not
            }
            const std::int64_t id = parse_id(line);
            if (line.find("\"predicted\"") != std::string::npos) {
              if (sent.count(id) == 0 ||
                  line != with_id(id, expected_line(id, expect))) {
                ++failures;  // misrouted or corrupted
              } else {
                ++exact_responses;
              }
              ++answered;
            } else if (id >= 0 && sent.count(id) > 0) {
              ++error_responses;  // injected internal / shed / timeout
              ++answered;
            }
          }
          ++sessions_run;
        }
      });
    }
    for (auto& t : clients) t.join();
    h.stop();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sessions_run.load(), kRounds * kThreads * kSessionsPerThread);
  EXPECT_GE(sessions_run.load(), 200);
  EXPECT_GT(exact_responses.load(), 0);
  EXPECT_GT(error_responses.load(), 0) << "chaos regime injected nothing";

  EXPECT_EQ(count_open_fds(), baseline_fds)
      << "file descriptors leaked across " << sessions_run.load()
      << " chaos sessions";
}

}  // namespace
}  // namespace mixq::serve

#endif  // !_WIN32
