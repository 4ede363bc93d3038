// End-to-end tests of the batch inference daemon: protocol round trips,
// bit-exactness of served results against the serial planned engine,
// concurrent clients, graceful shutdown with in-flight requests, a
// malformed-request fuzz pass, and reply parity of the stdio and
// unix-socket transports.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/plan.hpp"
#include "serve/batcher.hpp"
#include "serve/dispatcher.hpp"
#include "serve/json.hpp"
#include "serve/net/epoll_server.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "support/json_dom.hpp"

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace mixq::serve {
namespace {

using runtime::ExecutionPlan;
using runtime::QInferenceResult;
using runtime::QuantizedNet;

QuantizedNet make_net(std::uint64_t seed, int hw = 8) {
  Rng rng(seed);
  models::SmallCnnConfig cfg;
  cfg.input_hw = hw;
  cfg.base_channels = 4;
  cfg.num_blocks = 1;
  cfg.num_classes = 3;
  cfg.qw = core::BitWidth::kQ4;
  cfg.wgran = core::Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  return runtime::convert_qat_model(model, Shape(1, hw, hw, 3),
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

QInferenceResult serial_result(const QuantizedNet& net,
                               const std::vector<float>& sample) {
  FloatTensor img(net.layers.front().in_shape);
  img.vec() = sample;
  return ExecutionPlan(net).run(img);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(StreamServer, RoundTripBitExactWithRunPlanned) {
  const QuantizedNet net = make_net(1);
  const auto samples = make_samples(net, 6, 11);

  std::string in_text;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    in_text += format_request_line(
        static_cast<std::int64_t>(i), samples[i].data(),
        static_cast<std::int64_t>(samples[i].size()));
    in_text += "\n";
  }
  std::istringstream in(in_text);
  std::ostringstream out;
  ServeConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 200;
  StreamServer server(net, cfg);
  const ServeStats stats = server.serve(in, out);

  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Byte-identical to the shared formatter over the serial planned
    // result: the same invariant the CLI smoke test checks end to end.
    const QInferenceResult expect = serial_result(net, samples[i]);
    EXPECT_EQ(lines[i],
              format_result_line(static_cast<std::int64_t>(i), expect));
  }
  EXPECT_EQ(stats.requests, 6);
  EXPECT_EQ(stats.responses, 6);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_GE(stats.batches, 2);  // max_batch 4 forces at least two batches
  EXPECT_EQ(stats.latency_us.size(), 6u);
}

TEST(StreamServer, ShutdownCmdDrainsInFlightRequests) {
  const QuantizedNet net = make_net(2);
  const auto samples = make_samples(net, 12, 5);
  std::string in_text;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    in_text += format_request_line(
        static_cast<std::int64_t>(i), samples[i].data(),
        static_cast<std::int64_t>(samples[i].size()));
    in_text += "\n";
  }
  // Shutdown arrives immediately after the burst: every accepted request
  // must still be answered before the ack.
  in_text += "{\"cmd\":\"shutdown\"}\n";
  in_text += "{\"id\":99,\"input\":[]}\n";  // after shutdown: never read

  std::istringstream in(in_text);
  std::ostringstream out;
  ServeConfig cfg;
  cfg.max_batch = 3;
  cfg.max_wait_us = 50'000;
  StreamServer server(net, cfg);
  const ServeStats stats = server.serve(in, out);

  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), samples.size() + 1);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const QInferenceResult expect = serial_result(net, samples[i]);
    EXPECT_EQ(lines[i],
              format_result_line(static_cast<std::int64_t>(i), expect));
  }
  EXPECT_EQ(lines.back(), "{\"ok\":\"shutdown\"}");
  EXPECT_EQ(stats.responses, 12);
  EXPECT_EQ(stats.errors, 0);
}

/// An output buffer that, like std::cout's, moves its put area out on
/// sync(): a flush from a second thread touches the pointers the writer
/// is advancing.
class FlushedSink : public std::streambuf {
 public:
  FlushedSink() { setp(buf_, buf_ + sizeof(buf_)); }
  std::string text;

 protected:
  int sync() override {
    text.append(pbase(), pptr());
    setp(buf_, buf_ + sizeof(buf_));
    return 0;
  }
  int_type overflow(int_type c) override {
    sync();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  char buf_[64];
};

/// std::cin is tied to std::cout: a tied input stream flushes its output
/// before every read, on the reader thread and outside the writers' lock.
/// That flush raced the batch worker, and `mixq serve` under load wrote
/// some replies twice. Served through a tied pair, every reply must appear
/// exactly once (and ThreadSanitizer must see no race).
TEST(StreamServer, TiedInputStreamDoesNotFlushOutsideTheWriterLock) {
  const QuantizedNet net = make_net(12);
  const auto samples = make_samples(net, 32, 13);
  std::string in_text;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    in_text += format_request_line(
        static_cast<std::int64_t>(i), samples[i].data(),
        static_cast<std::int64_t>(samples[i].size()));
    in_text += "\n";
  }
  std::istringstream in(in_text);
  FlushedSink sink;
  std::ostream out(&sink);
  in.tie(&out);
  ServeConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  StreamServer server(net, cfg);
  server.serve(in, out);
  out.flush();

  const auto lines = split_lines(sink.text);
  ASSERT_EQ(lines.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(lines[i],
              format_result_line(static_cast<std::int64_t>(i),
                                 serial_result(net, samples[i])));
  }
}

TEST(StreamServer, InfoAndStatsCommands) {
  const QuantizedNet net = make_net(3);
  const auto samples = make_samples(net, 1, 4);
  std::string in_text = "{\"cmd\":\"info\"}\n";
  in_text += format_request_line(0, samples[0].data(),
                                 static_cast<std::int64_t>(samples[0].size()));
  in_text += "\n{\"cmd\":\"stats\"}\n";
  std::istringstream in(in_text);
  std::ostringstream out;
  StreamServer server(net, ServeConfig{});
  server.serve(in, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"info\""), std::string::npos);
  EXPECT_NE(text.find("\"layers\":" + std::to_string(net.layers.size())),
            std::string::npos);
  EXPECT_NE(text.find("\"predicted\""), std::string::npos);
  EXPECT_NE(text.find("\"stats\""), std::string::npos);
}

TEST(StreamServer, MalformedRequestFuzzNeverKillsTheDaemon) {
  const QuantizedNet net = make_net(4);
  const auto samples = make_samples(net, 1, 9);
  const std::int64_t numel = net.layers.front().in_shape.numel();

  std::vector<std::string> bad = {
      "this is not json",
      "{",
      "[1,2,3]",
      "42",
      "\"str\"",
      "{\"id\":1}",
      "{\"input\":[1]}",
      "{\"id\":\"x\",\"input\":[1]}",
      "{\"id\":1.5,\"input\":[1]}",
      "{\"id\":2,\"input\":\"nope\"}",
      "{\"id\":3,\"input\":[1,2]}",                     // wrong length
      "{\"id\":4,\"input\":[true]}",
      "{\"cmd\":\"bogus\"}",
      "{\"cmd\":5}",
      "{\"id\":5,\"input\":[1e999]}",                   // number overflow
      "{\"id\":9223372036854775808,\"input\":[1]}",     // id == 2^63
      std::string(100, '['),                            // nesting bomb
      // Allocation bomb: a line far over the engine's size cap must be
      // rejected before JSON parsing can amplify it.
      "{\"id\":6,\"input\":[" + std::string(300 * 192, '1') + "]}",
  };
  // Deterministic printable garbage; '@' prefix guarantees a parse error.
  Rng rng(123);
  for (int i = 0; i < 64; ++i) {
    std::string line = "@";
    const int len = 1 + static_cast<int>(rng.uniform_int(80));
    for (int k = 0; k < len; ++k) {
      line.push_back(static_cast<char>(32 + rng.uniform_int(95)));
    }
    bad.push_back(line);
  }

  std::string in_text;
  for (const auto& line : bad) in_text += line + "\n";
  // A valid request after the garbage storm must still be served.
  in_text += format_request_line(7, samples[0].data(), numel);
  in_text += "\n";

  std::istringstream in(in_text);
  std::ostringstream out;
  ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_wait_us = 100;
  StreamServer server(net, cfg);
  const ServeStats stats = server.serve(in, out);

  EXPECT_EQ(stats.errors, static_cast<std::int64_t>(bad.size()));
  EXPECT_EQ(stats.responses, 1);
  const QInferenceResult expect = serial_result(net, samples[0]);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), bad.size() + 1);
  int error_lines = 0;
  for (const auto& line : lines) {
    if (line.find("\"error\"") != std::string::npos) ++error_lines;
  }
  EXPECT_EQ(error_lines, static_cast<int>(bad.size()));
  EXPECT_EQ(lines.back(), format_result_line(7, expect));
}

TEST(StreamServer, LineCapBoundsOneLineOnly) {
  // A 16x16x3 input makes the cap (and a line at it) span several of the
  // reader's chunks.
  const QuantizedNet net = make_net(31, 16);
  const auto samples = make_samples(net, 2, 32);
  const std::int64_t numel = net.layers.front().in_shape.numel();

  ServeConfig cfg;
  ModelRegistry registry(1);
  registry.add_model("default", net);
  const std::size_t cap =
      Dispatcher(registry, cfg, kUnboundedQueue, -1, nullptr, {})
          .max_line_bytes();
  ASSERT_GT(cap, 16'384u);

  const auto padded = [&](std::int64_t id, std::size_t bytes) {
    std::string line = format_request_line(id, samples[0].data(), numel);
    line.resize(bytes, ' ');
    return line;
  };
  std::string in_text = padded(1, cap) + "\n";       // at the cap: served
  in_text += padded(2, cap + 1) + "\n";              // one over: refused
  in_text += std::string(3 * 16'384, 'x') + "\n";    // far over: refused
  // The last line has no newline; it is still served.
  in_text += format_request_line(3, samples[1].data(), numel);

  std::istringstream in(in_text);
  std::ostringstream out;
  StreamServer server(registry, cfg);
  const ServeStats stats = server.serve(in, out);

  const std::string too_long =
      "{\"error\":\"request line too long\",\"code\":\"malformed\","
      "\"retryable\":false}";
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(std::count(lines.begin(), lines.end(), too_long), 2);
  const std::string first =
      format_result_line(1, serial_result(net, samples[0]));
  const std::string last =
      format_result_line(3, serial_result(net, samples[1]));
  EXPECT_EQ(std::count(lines.begin(), lines.end(), first), 1);
  EXPECT_EQ(std::count(lines.begin(), lines.end(), last), 1);
  EXPECT_EQ(stats.responses, 2);
  EXPECT_EQ(stats.errors, 2);
}

TEST(RegistryInferBatch, ConcurrentClientsBitExactWithSerialPlanned) {
  const QuantizedNet net = make_net(5);
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  const auto samples = make_samples(net, kClients * kPerClient, 21);

  RequestQueue queue;
  MicroBatcher batcher(queue, {/*max_batch=*/5, /*max_wait_us=*/500});
  ModelRegistry reg(/*threads=*/3);
  reg.add_model("default", net);
  const auto model = reg.default_model();

  std::mutex results_mu;
  std::map<std::int64_t, QInferenceResult> results;
  std::thread consumer([&] {
    std::vector<Request> batch;
    std::vector<QInferenceResult> out;
    while (batcher.next_batch(batch)) {
      reg.infer_batch(*model, batch, out);
      std::lock_guard<std::mutex> lock(results_mu);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        results[batch[i].id] = out[i];
      }
    }
  });

  // Concurrent producers racing requests into the shared queue, in
  // interleaved bursts so micro-batches mix clients.
  std::vector<std::thread> producers;
  for (int c = 0; c < kClients; ++c) {
    producers.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int idx = c * kPerClient + i;
        Request r;
        r.id = idx;
        r.client = c;
        r.input = samples[static_cast<std::size_t>(idx)];
        ASSERT_TRUE(queue.push(std::move(r)));
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  consumer.join();

  ASSERT_EQ(results.size(), samples.size());
  for (int idx = 0; idx < kClients * kPerClient; ++idx) {
    const QInferenceResult expect =
        serial_result(net, samples[static_cast<std::size_t>(idx)]);
    const QInferenceResult& got = results[idx];
    ASSERT_EQ(got.predicted, expect.predicted);
    ASSERT_EQ(got.logits.size(), expect.logits.size());
    for (std::size_t k = 0; k < expect.logits.size(); ++k) {
      // Integer equality of the dequantized logits: bit-exact, no
      // tolerance, for every batch composition and lane count.
      ASSERT_EQ(got.logits[k], expect.logits[k]);
    }
  }
}

#ifndef _WIN32
TEST(EpollServer, UnixSocketRoundTripAndShutdown) {
  const QuantizedNet net = make_net(6);
  const auto samples = make_samples(net, 3, 31);
  const std::string path =
      "/tmp/mixq_serve_test_" + std::to_string(::getpid()) + ".sock";

  ServeStats stats;
  std::string server_error;
  std::thread server([&] {
    try {
      NetConfig cfg;
      cfg.engine.max_batch = 2;
      cfg.engine.max_wait_us = 500;
      cfg.unix_path = path;
      EpollServer epoll(net, cfg);
      stats = epoll.run(nullptr).engine;
    } catch (const std::exception& e) {
      server_error = e.what();
    }
  });

  // Connect (with retries while the listener comes up).
  int fd = -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, path.size());
  for (int attempt = 0; attempt < 200 && server_error.empty(); ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (fd < 0) {
    // Environment without unix-socket support: nothing to assert beyond
    // the server thread reporting the setup failure cleanly.
    server.join();
    ::unlink(path.c_str());
    EXPECT_FALSE(server_error.empty());
    return;
  }

  // A second client that connects and then idles: the daemon must still
  // exit cleanly on shutdown (its reader is unblocked, not joined-on
  // forever).
  int idle_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(idle_fd, 0);
  if (::connect(idle_fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(idle_fd);
    idle_fd = -1;
  }

  std::string out_text;
  const auto send_line = [&](const std::string& line) {
    const std::string buf = line + "\n";
    ASSERT_EQ(::send(fd, buf.data(), buf.size(), 0),
              static_cast<ssize_t>(buf.size()));
  };
  const auto read_lines = [&](std::size_t want) {
    char buf[4096];
    while (true) {
      std::size_t have = 0;
      for (const char ch : out_text) {
        if (ch == '\n') ++have;
      }
      if (have >= want) break;
      const auto n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out_text.append(buf, static_cast<std::size_t>(n));
    }
  };

  const std::int64_t numel = net.layers.front().in_shape.numel();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    send_line(format_request_line(static_cast<std::int64_t>(i),
                                  samples[i].data(), numel));
  }
  read_lines(samples.size());
  send_line("{\"cmd\":\"shutdown\"}");
  read_lines(samples.size() + 1);
  ::close(fd);
  server.join();  // must not hang despite the idle connection
  if (idle_fd >= 0) ::close(idle_fd);
  ASSERT_TRUE(server_error.empty());

  const auto lines = split_lines(out_text);
  ASSERT_EQ(lines.size(), samples.size() + 1);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const QInferenceResult expect = serial_result(net, samples[i]);
    EXPECT_EQ(lines[i],
              format_result_line(static_cast<std::int64_t>(i), expect));
  }
  EXPECT_EQ(lines.back(), "{\"ok\":\"shutdown\"}");
  EXPECT_EQ(stats.responses, static_cast<std::int64_t>(samples.size()));
}

/// Removes the one `{"stats":...}` line from `lines` and returns it parsed.
JsonValue take_stats_line(std::vector<std::string>& lines) {
  const auto it = std::find_if(lines.begin(), lines.end(), [](const auto& l) {
    return l.rfind("{\"stats\":", 0) == 0;
  });
  if (it == lines.end()) return JsonValue{};
  const JsonValue v = parse_json(*it);
  lines.erase(it);
  return v;
}

TEST(TransportParity, StdioAndUnixSocketAnswerAlike) {
  // One script through both transports of the one Dispatcher. info and
  // health come first, so no request is queued when health reports.
  const QuantizedNet net = make_net(7);
  const auto samples = make_samples(net, 5, 41);
  const std::int64_t numel = net.layers.front().in_shape.numel();
  std::vector<std::string> script = {
      "{\"cmd\":\"info\"}",
      "{\"cmd\":\"health\"}",
      "this is not json",
      "{\"id\":90,\"model\":\"nope\",\"input\":[1]}",
  };
  for (std::size_t i = 0; i < samples.size(); ++i) {
    script.push_back(format_request_line(static_cast<std::int64_t>(i),
                                         samples[i].data(), numel));
  }
  script.push_back("{\"cmd\":\"stats\"}");
  ServeConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 2;
  cfg.max_wait_us = 500;

  std::string text;
  for (const auto& line : script) text += line + "\n";
  std::istringstream in(text);
  std::ostringstream out;
  const ServeStats stdio = StreamServer(net, cfg).serve(in, out);
  std::vector<std::string> stdio_lines = split_lines(out.str());

  const std::string path =
      "/tmp/mixq_parity_test_" + std::to_string(::getpid()) + ".sock";
  NetConfig ncfg;
  ncfg.engine = cfg;
  ncfg.unix_path = path;
  EpollServer epoll(net, ncfg);  // bound and listening from here on
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, path.size());
  timeval timeout{};
  timeout.tv_sec = 30;  // a lost reply fails the test, never hangs it
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  NetStats socket;
  std::thread loop([&] { socket = epoll.run(nullptr); });
  std::string received;
  const auto read_lines = [&](std::size_t want) {
    char buf[4096];
    while (static_cast<std::size_t>(std::count(
               received.begin(), received.end(), '\n')) < want) {
      const auto n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      received.append(buf, static_cast<std::size_t>(n));
    }
  };
  const std::string wire = text + "{\"cmd\":\"shutdown\"}\n";
  const bool sent =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0 &&
      ::send(fd, wire.data(), wire.size(), 0) ==
          static_cast<ssize_t>(wire.size());
  if (sent) {
    read_lines(script.size() + 1);
  } else {
    epoll.request_drain();
  }
  ::close(fd);
  loop.join();
  ASSERT_TRUE(sent);
  std::vector<std::string> socket_lines = split_lines(received);
  ASSERT_EQ(socket_lines.size(), script.size() + 1);
  EXPECT_EQ(socket_lines.back(), "{\"ok\":\"shutdown\"}");
  socket_lines.pop_back();

  // The stats shapes differ on purpose: stdio is flat, the socket
  // transport nests the engine beside its connection counters.
  const JsonValue flat = take_stats_line(stdio_lines);
  const JsonValue* fs = flat.find("stats");
  ASSERT_TRUE(fs != nullptr && fs->is_object());
  EXPECT_TRUE(fs->find("requests") != nullptr &&
              fs->find("requests")->is_number());
  EXPECT_TRUE(fs->find("models") != nullptr && fs->find("models")->is_object());
  EXPECT_EQ(fs->find("engine"), nullptr);
  const JsonValue nested = take_stats_line(socket_lines);
  const JsonValue* ns = nested.find("stats");
  ASSERT_TRUE(ns != nullptr && ns->is_object());
  const JsonValue* engine = ns->find("engine");
  ASSERT_TRUE(engine != nullptr && engine->is_object());
  for (const char* key : {"requests", "mean_batch_fill", "latency_p50_us",
                          "shed"}) {
    EXPECT_TRUE(engine->find(key) != nullptr && engine->find(key)->is_number())
        << key;
  }
  EXPECT_TRUE(ns->find("models") != nullptr && ns->find("models")->is_object());

  // Everything else is the same multiset of reply lines.
  ASSERT_EQ(stdio_lines.size(), script.size() - 1);
  std::sort(stdio_lines.begin(), stdio_lines.end());
  std::sort(socket_lines.begin(), socket_lines.end());
  EXPECT_EQ(stdio_lines, socket_lines);
  EXPECT_EQ(stdio.requests, static_cast<std::int64_t>(samples.size()));
  EXPECT_EQ(stdio.responses, static_cast<std::int64_t>(samples.size()));
  EXPECT_EQ(stdio.errors, 2);
  EXPECT_EQ(socket.engine.requests, stdio.requests);
  EXPECT_EQ(socket.engine.responses, stdio.responses);
  EXPECT_EQ(socket.engine.errors, stdio.errors);
}
#endif  // !_WIN32

}  // namespace
}  // namespace mixq::serve
