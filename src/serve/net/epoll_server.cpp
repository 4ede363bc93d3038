#include "serve/net/epoll_server.hpp"

#ifndef _WIN32

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace mixq::serve {

// ---------------------------------------------------------------------------
// NetStats
// ---------------------------------------------------------------------------

std::string NetStats::json() const {
  std::string out = "{\"engine\":" + engine.json();
  out += ",\"accepted_conns\":" + std::to_string(accepted_conns);
  out += ",\"rejected_conns\":" + std::to_string(rejected_conns);
  out += ",\"idle_reaped\":" + std::to_string(idle_reaped);
  out += ",\"overflow_closed\":" + std::to_string(overflow_closed);
  out += ",\"dropped_conns\":" + std::to_string(dropped_conns);
  out += ",\"peak_conns\":" + std::to_string(peak_conns);
  out += "}";
  return out;
}

std::string NetStats::str() const {
  std::string s = engine.str();
  s += "connections: " + std::to_string(accepted_conns) + " accepted, " +
       std::to_string(rejected_conns) + " rejected, " +
       std::to_string(idle_reaped) + " idle-reaped, " +
       std::to_string(overflow_closed) + " overflow-closed, " +
       std::to_string(dropped_conns) + " dropped (peak " +
       std::to_string(peak_conns) + ")\n";
  return s;
}

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

namespace {

/// epoll user-data tags for the non-connection fds; connection ids start
/// above these.
constexpr std::uint64_t kTagTcpListen = 1;
constexpr std::uint64_t kTagUnixListen = 2;
constexpr std::uint64_t kTagMailbox = 3;
constexpr std::uint64_t kTagDrain = 4;
constexpr std::uint64_t kTagReloadSig = 5;
constexpr int kFirstConnId = 16;

/// Mailbox sentinels (Reply::client values below 0): thread-exit
/// notifications and results with no client to answer.
constexpr int kConnWorkerDone = -1;   ///< batch worker exited
constexpr int kConnControlDone = -2;  ///< reload control thread exited
constexpr int kConnLogOnly = -3;      ///< SIGHUP reload result -> the log

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// The process-global drain target of the installed SIGTERM/SIGINT
/// handler (one serving daemon per process; the latest install wins).
std::atomic<int> g_drain_eventfd{-1};

/// Likewise for SIGHUP -> reload-all-models.
std::atomic<int> g_reload_eventfd{-1};

void signal_eventfd(const std::atomic<int>& target) {
  const int fd = target.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const std::uint64_t one = 1;
    // write() is async-signal-safe; the result is irrelevant (a full
    // eventfd counter still leaves it readable).
    [[maybe_unused]] const auto r = ::write(fd, &one, sizeof(one));
  }
}

void drain_signal_handler(int) { signal_eventfd(g_drain_eventfd); }
void reload_signal_handler(int) { signal_eventfd(g_reload_eventfd); }

}  // namespace

struct EpollServer::Impl {
  ModelRegistry* reg{nullptr};
  std::unique_ptr<ModelRegistry> owned_reg;  ///< set by the net-based ctor
  NetConfig cfg;
  FaultInjector injector;

  int epoll_fd{-1};
  int tcp_listen_fd{-1};
  int unix_listen_fd{-1};
  int mailbox_efd{-1};
  int drain_efd{-1};
  int reload_efd{-1};
  std::string unix_path_bound;
  bool ran{false};

  explicit Impl(const NetConfig& c) : cfg(c), injector(c.faults) {}

  ~Impl() {
    close_if_open(tcp_listen_fd);
    close_if_open(unix_listen_fd);
    close_if_open(mailbox_efd);
    close_if_open(drain_efd);
    close_if_open(reload_efd);
    close_if_open(epoll_fd);
    if (!unix_path_bound.empty()) ::unlink(unix_path_bound.c_str());
  }
};

// ---------------------------------------------------------------------------
// Construction: bind + listen so clients can connect before run().
// ---------------------------------------------------------------------------

EpollServer::EpollServer(const runtime::QuantizedNet& net, NetConfig cfg)
    : impl_(new Impl(cfg)) {
  try {
    impl_->owned_reg = std::make_unique<ModelRegistry>(cfg.engine.threads);
    impl_->owned_reg->add_model("default", net);
    impl_->reg = impl_->owned_reg.get();
    init_sockets();
  } catch (...) {
    delete impl_;
    throw;
  }
}

EpollServer::EpollServer(ModelRegistry& registry, NetConfig cfg)
    : impl_(new Impl(cfg)) {
  impl_->reg = &registry;
  try {
    init_sockets();
  } catch (...) {
    delete impl_;
    throw;
  }
}

void EpollServer::init_sockets() {
  const NetConfig& cfg = impl_->cfg;
  ::signal(SIGPIPE, SIG_IGN);  // a dead client must never kill the daemon

  if (cfg.tcp_port < 0 && cfg.unix_path.empty()) {
    throw std::runtime_error("epoll serve: no listener configured");
  }

  {
    impl_->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (impl_->epoll_fd < 0) {
      throw std::runtime_error("epoll serve: epoll_create1 failed");
    }
    impl_->mailbox_efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    impl_->drain_efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    impl_->reload_efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (impl_->mailbox_efd < 0 || impl_->drain_efd < 0 ||
        impl_->reload_efd < 0) {
      throw std::runtime_error("epoll serve: eventfd failed");
    }

    const auto add_to_epoll = [&](int fd, std::uint64_t tag) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = tag;
      if (::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        throw std::runtime_error("epoll serve: epoll_ctl(ADD) failed");
      }
    };
    add_to_epoll(impl_->mailbox_efd, kTagMailbox);
    add_to_epoll(impl_->drain_efd, kTagDrain);
    add_to_epoll(impl_->reload_efd, kTagReloadSig);

    if (cfg.tcp_port >= 0) {
      const int fd = ::socket(AF_INET,
                              SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) throw std::runtime_error("epoll serve: socket() failed");
      impl_->tcp_listen_fd = fd;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(cfg.tcp_port));
      if (::inet_pton(AF_INET, cfg.tcp_bind.c_str(), &addr.sin_addr) != 1) {
        throw std::runtime_error("epoll serve: bad bind address " +
                                 cfg.tcp_bind);
      }
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        throw std::runtime_error("epoll serve: cannot bind " + cfg.tcp_bind +
                                 ":" + std::to_string(cfg.tcp_port));
      }
      if (::listen(fd, 128) != 0) {
        throw std::runtime_error("epoll serve: listen() failed");
      }
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
      }
      add_to_epoll(fd, kTagTcpListen);
    }

    if (!cfg.unix_path.empty()) {
      sockaddr_un addr{};
      if (cfg.unix_path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("epoll serve: socket path too long: " +
                                 cfg.unix_path);
      }
      const int fd = ::socket(AF_UNIX,
                              SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) throw std::runtime_error("epoll serve: socket() failed");
      impl_->unix_listen_fd = fd;
      addr.sun_family = AF_UNIX;
      cfg.unix_path.copy(addr.sun_path, cfg.unix_path.size());
      ::unlink(cfg.unix_path.c_str());
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        throw std::runtime_error("epoll serve: cannot bind " + cfg.unix_path);
      }
      impl_->unix_path_bound = cfg.unix_path;
      if (::listen(fd, 128) != 0) {
        throw std::runtime_error("epoll serve: listen() failed");
      }
      add_to_epoll(fd, kTagUnixListen);
    }
  }
}

EpollServer::~EpollServer() { delete impl_; }

void EpollServer::request_drain() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto r =
      ::write(impl_->drain_efd, &one, sizeof(one));
}

void EpollServer::install_signal_handlers() {
  g_drain_eventfd.store(impl_->drain_efd, std::memory_order_relaxed);
  g_reload_eventfd.store(impl_->reload_efd, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = drain_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction sh{};
  sh.sa_handler = reload_signal_handler;
  sigemptyset(&sh.sa_mask);
  sh.sa_flags = SA_RESTART;
  ::sigaction(SIGHUP, &sh, nullptr);
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

NetStats EpollServer::run(std::ostream* log) {
  Impl& im = *impl_;
  if (im.ran) {
    throw std::runtime_error("epoll serve: run() is one-shot");
  }
  im.ran = true;
  const NetConfig& cfg = im.cfg;

  ModelRegistry& reg = *im.reg;
  reg.set_fault_injector(&im.injector);  // arms the rtrunc/rexecerr/rdelay sites

  // -- worker/control -> loop mailbox ----------------------------------------
  std::mutex mailbox_mu;
  std::vector<Reply> mailbox;
  const auto post = [&](std::vector<Reply>& items) {
    {
      std::lock_guard<std::mutex> lock(mailbox_mu);
      for (auto& it : items) mailbox.push_back(std::move(it));
    }
    items.clear();
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto r =
        ::write(im.mailbox_efd, &one, sizeof(one));
  };
  const auto post_one = [&](int conn, std::string line) {
    std::vector<Reply> one;
    one.push_back({conn, std::move(line)});
    post(one);
  };

  // -- the serving core: admission + batch worker ----------------------------
  // Each batch's replies reach the loop in one mailbox post.
  Dispatcher core(reg, cfg.engine, cfg.queue_depth, cfg.retry_after_ms,
                  &im.injector, post);
  core.start([&] { post_one(kConnWorkerDone, {}); });

  // -- reload control thread ------------------------------------------------
  // {"cmd":"reload"} and SIGHUP run validate-then-swap OFF the event loop:
  // loading + plan compilation + the probe inference of a replacement
  // image can take longer than any client is willing to stall, and the
  // loop must keep serving both models throughout. Jobs are answered back
  // through the same mailbox as batch results (a reload holds one
  // in-flight slot on its connection, so graceful drain waits for it).
  struct CtlJob {
    int conn{kConnLogOnly};
    std::string model;
    std::string path;
  };
  std::mutex ctl_mu;
  std::condition_variable ctl_cv;
  std::deque<CtlJob> ctl_jobs;
  bool ctl_stop = false;
  const auto submit_reload = [&](int conn, std::string model,
                                 std::string path) {
    {
      std::lock_guard<std::mutex> lock(ctl_mu);
      ctl_jobs.push_back({conn, std::move(model), std::move(path)});
    }
    ctl_cv.notify_one();
  };
  const auto stop_control = [&] {
    {
      std::lock_guard<std::mutex> lock(ctl_mu);
      ctl_stop = true;
    }
    ctl_cv.notify_one();
  };
  std::thread control([&] {
    while (true) {
      CtlJob job;
      {
        std::unique_lock<std::mutex> lock(ctl_mu);
        ctl_cv.wait(lock, [&] { return ctl_stop || !ctl_jobs.empty(); });
        if (ctl_jobs.empty()) break;  // stop requested, queue drained
        job = std::move(ctl_jobs.front());
        ctl_jobs.pop_front();
      }
      post_one(job.conn, core.reload(job.model, job.path));
    }
    post_one(kConnControlDone, {});
  });

  // Connection-lifecycle counters: loop thread only, so no lock.
  NetStats net;
  const auto snapshot = [&] {
    NetStats s = net;
    s.engine = core.stats();
    s.engine.shed += s.rejected_conns;  // refused at the door
    return s;
  };

  // -- connection table -----------------------------------------------------
  struct Conn {
    int fd{-1};
    int id{-1};
    enum class State { kReading, kDraining } state{State::kReading};
    std::string rdbuf;
    std::size_t rd_off{0};
    std::size_t scan_off{0};  ///< where the search for '\n' resumes
    std::deque<std::string> outbox;
    std::size_t outbox_bytes{0};
    std::size_t wr_off{0};  ///< sent prefix of outbox.front()
    int in_flight{0};
    bool want_write{false};
    bool reading_armed{true};
    Clock::time_point last_active{Clock::now()};
  };
  std::unordered_map<int, Conn> conns;
  int next_conn_id = kFirstConnId;
  bool draining = false;
  bool worker_done = false;
  bool control_done = false;
  bool drain_acked = false;
  int drain_ack_conn = -1;
  Clock::time_point drain_deadline = Clock::time_point::max();

  const auto arm = [&](Conn& c) {
    epoll_event ev{};
    ev.events = (c.reading_armed ? (EPOLLIN | EPOLLRDHUP) : 0u) |
                (c.want_write ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<std::uint64_t>(c.id);
    ::epoll_ctl(im.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  };

  const auto close_conn = [&](int id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second.fd);  // implicitly removes it from the epoll set
    conns.erase(it);
  };

  // Flush as much outbox as the socket (and the fault injector) accepts.
  // Returns false when the connection died underneath the write.
  const auto flush_conn = [&](Conn& c) -> bool {
    while (!c.outbox.empty()) {
      const std::string& front = c.outbox.front();
      const std::size_t want = front.size() - c.wr_off;
      const std::size_t admissible = im.injector.admissible_write(want);
      const auto n = ::send(c.fd, front.data() + c.wr_off, admissible,
                            MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          c.want_write = true;
          arm(c);
          return true;
        }
        ++net.dropped_conns;
        return false;  // EPIPE / ECONNRESET: peer is gone
      }
      c.wr_off += static_cast<std::size_t>(n);
      c.outbox_bytes -= static_cast<std::size_t>(n);
      if (c.wr_off == front.size()) {
        c.outbox.pop_front();
        c.wr_off = 0;
      } else if (static_cast<std::size_t>(n) < want) {
        // Truncated (by the injector or the kernel): resume via EPOLLOUT
        // on a later wakeup -- the remainder is NOT lost, only delayed.
        c.want_write = true;
        arm(c);
        return true;
      }
    }
    if (c.want_write) {
      c.want_write = false;
      arm(c);
    }
    return true;
  };

  /// True when a draining connection has answered everything and owes the
  /// client no more bytes. One that lost its framing closes on its own; in
  /// a server-wide drain they close once the worker and control thread are
  /// done (the shutdown ack is still owed to one of them until then).
  const auto drained_idle = [&](const Conn& c) {
    return c.state == Conn::State::kDraining && c.outbox.empty() &&
           c.in_flight == 0 && (!draining || (worker_done && control_done));
  };

  // Queue one response line on a connection (bounded outbox -> a slow
  // client is disconnected, never allowed to hold server memory hostage),
  // then try to flush immediately. Returns false when the connection was
  // closed by the attempt.
  const auto queue_line = [&](Conn& c, const std::string& line) -> bool {
    if (c.outbox_bytes + line.size() + 1 > cfg.max_outbox_bytes) {
      ++net.overflow_closed;
      close_conn(c.id);
      return false;
    }
    std::string wire = line;
    wire.push_back('\n');
    c.outbox_bytes += wire.size();
    c.outbox.push_back(std::move(wire));
    if (!flush_conn(c)) {
      close_conn(c.id);
      return false;
    }
    if (drained_idle(c)) {
      close_conn(c.id);
      return false;
    }
    return true;
  };

  // Graceful drain: stop accepting, stop reading, answer what was
  // admitted, flush, close -- bounded by drain_timeout_ms.
  const auto start_drain = [&](int ack_conn) {
    if (draining) return;
    draining = true;
    drain_ack_conn = ack_conn;
    drain_deadline =
        Clock::now() + std::chrono::milliseconds(cfg.drain_timeout_ms);
    if (im.tcp_listen_fd >= 0) close_if_open(im.tcp_listen_fd);
    if (im.unix_listen_fd >= 0) close_if_open(im.unix_listen_fd);
    for (auto& [id, c] : conns) {
      c.state = Conn::State::kDraining;
      if (c.reading_armed) {
        c.reading_armed = false;
        arm(c);
      }
    }
    // The worker drains every admitted request and the control thread
    // every submitted reload, then both exit; new requests and reloads are
    // refused `shutting_down` from here on.
    core.close();
    stop_control();
  };

  // One protocol line from connection `c`. Returns false when the
  // connection was closed while answering.
  const auto handle_line = [&](Conn& c, std::string_view line) -> bool {
    Dispatcher::Handled h = core.handle_line(c.id, line);
    switch (h.action) {
      case Dispatcher::Action::kNone:
        return true;
      case Dispatcher::Action::kReply:
        return queue_line(c, h.reply);
      case Dispatcher::Action::kQueued:
        ++c.in_flight;
        return true;
      case Dispatcher::Action::kStats:
        return queue_line(c, core.stats_line(snapshot().json()));
      case Dispatcher::Action::kReload:
        // Handed to the control thread; the response arrives through the
        // mailbox. The in-flight slot makes graceful drain wait for it.
        ++c.in_flight;
        submit_reload(c.id, std::move(h.model), std::move(h.path));
        return true;
      case Dispatcher::Action::kShutdown:
        start_drain(c.id);
        return true;
    }
    return true;
  };

  // Split buffered bytes into lines; enforce the line-length bound
  // streaming-style (framing is lost past it, so the connection drains).
  const auto process_rdbuf = [&](Conn& c) -> bool {
    while (true) {
      // Resume where the last search stopped: a long line arrives in many
      // recv()s, and rescanning its prefix each time would be quadratic.
      const std::size_t nl = c.rdbuf.find('\n', c.scan_off);
      if (nl == std::string::npos) {
        c.scan_off = c.rdbuf.size();
        if (c.rdbuf.size() - c.rd_off > core.max_line_bytes()) {
          if (!queue_line(c, core.line_too_long())) return false;
          // Framing lost: answer what is in flight, then close.
          c.state = Conn::State::kDraining;
          c.reading_armed = false;
          arm(c);
          if (drained_idle(c)) {
            close_conn(c.id);
            return false;
          }
          return true;
        }
        if (c.rd_off > 0) {
          c.rdbuf.erase(0, c.rd_off);
          c.scan_off -= c.rd_off;
          c.rd_off = 0;
        }
        return true;
      }
      const std::string_view line(c.rdbuf.data() + c.rd_off, nl - c.rd_off);
      c.rd_off = nl + 1;
      c.scan_off = c.rd_off;
      if (!handle_line(c, line)) return false;
      const auto it = conns.find(c.id);
      if (it == conns.end()) return false;  // closed while answering
      if (!c.reading_armed) {
        // Drain started mid-buffer: whatever the client pipelined after
        // the shutdown/fatal line is intentionally not processed.
        return true;
      }
    }
  };

  const auto accept_loop = [&](int listen_fd, bool unix_domain) {
    while (listen_fd >= 0) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // EAGAIN, EMFILE, ...: nothing more to take this round
      }
      if (cfg.engine.max_conns > 0 &&
          conns.size() >= static_cast<std::size_t>(cfg.engine.max_conns)) {
        // Admission control at the door: answer and close; never a
        // connection object, never a reader, never unbounded state.
        const std::string line =
            format_error_line(ErrCode::kOverloaded,
                              "connection limit " +
                                  std::to_string(cfg.engine.max_conns) +
                                  " reached",
                              nullptr, cfg.retry_after_ms) +
            "\n";
        [[maybe_unused]] const auto r =
            ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
        ::close(fd);
        ++net.rejected_conns;
        continue;
      }
      if (!unix_domain) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      if (cfg.sndbuf_bytes > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg.sndbuf_bytes,
                     sizeof(cfg.sndbuf_bytes));
      }
      const int id = next_conn_id++;
      Conn c;
      c.fd = fd;
      c.id = id;
      c.last_active = Clock::now();
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.u64 = static_cast<std::uint64_t>(id);
      if (::epoll_ctl(im.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(id, std::move(c));
      ++net.accepted_conns;
      net.peak_conns = std::max(net.peak_conns,
                                static_cast<std::int64_t>(conns.size()));
    }
  };

  const auto drain_eventfd = [&](int fd) {
    std::uint64_t count = 0;
    while (::read(fd, &count, sizeof(count)) > 0) {
    }
  };

  if (log != nullptr) {
    if (bound_tcp_port_ >= 0) {
      *log << "mixq serve: listening on tcp " << cfg.tcp_bind << ":"
           << bound_tcp_port_ << "\n";
    }
    if (!im.unix_path_bound.empty()) {
      *log << "mixq serve: listening on unix " << im.unix_path_bound << "\n";
    }
    log->flush();
  }

  // -- the loop -------------------------------------------------------------
  std::vector<epoll_event> events(128);
  std::vector<int> scratch_ids;
  while (true) {
    // Exit: drain finished (worker + control done, every connection
    // flushed+closed) or the drain deadline passed (wedged clients are cut
    // loose).
    if (draining && worker_done && control_done) {
      if (!drain_acked && drain_ack_conn >= 0) {
        drain_acked = true;
        const auto it = conns.find(drain_ack_conn);
        if (it != conns.end()) queue_line(it->second, "{\"ok\":\"shutdown\"}");
      }
      // Close every connection that owes nothing more.
      scratch_ids.clear();
      for (auto& [id, c] : conns) {
        if (c.outbox.empty() && c.in_flight == 0) scratch_ids.push_back(id);
      }
      for (const int id : scratch_ids) close_conn(id);
      if (conns.empty()) break;
      if (Clock::now() >= drain_deadline) {
        scratch_ids.clear();
        for (auto& [id, c] : conns) scratch_ids.push_back(id);
        for (const int id : scratch_ids) close_conn(id);
        break;
      }
    }

    // Timeout: the nearest of idle-reap deadlines and the drain deadline,
    // coarsened to >= 10 ms so a storm of deadlines cannot busy-spin.
    int timeout_ms = -1;
    {
      Clock::time_point next = Clock::time_point::max();
      if (cfg.idle_timeout_ms > 0) {
        for (const auto& [id, c] : conns) {
          if (c.state == Conn::State::kReading && c.in_flight == 0 &&
              c.outbox.empty()) {
            next = std::min(next, c.last_active + std::chrono::milliseconds(
                                                      cfg.idle_timeout_ms));
          }
        }
      }
      if (draining) next = std::min(next, drain_deadline);
      if (next != Clock::time_point::max()) {
        const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                               next - Clock::now())
                               .count();
        timeout_ms = static_cast<int>(std::clamp<long long>(until, 10, 60'000));
      }
    }

    const int n = ::epoll_wait(im.epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      start_drain(-1);  // unrecoverable: drain what we can and exit
      continue;
    }

    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t ev = events[i].events;
      if (tag == kTagTcpListen) {
        accept_loop(im.tcp_listen_fd, /*unix_domain=*/false);
        continue;
      }
      if (tag == kTagUnixListen) {
        accept_loop(im.unix_listen_fd, /*unix_domain=*/true);
        continue;
      }
      if (tag == kTagDrain) {
        drain_eventfd(im.drain_efd);
        start_drain(-1);
        continue;
      }
      if (tag == kTagReloadSig) {
        drain_eventfd(im.reload_efd);
        // SIGHUP: re-read every model from its current backing path (the
        // "config changed under me" daemon contract). Ignored mid-drain.
        if (!draining) {
          for (const std::string& name : reg.names()) {
            submit_reload(kConnLogOnly, name, std::string());
          }
        }
        continue;
      }
      if (tag == kTagMailbox) {
        drain_eventfd(im.mailbox_efd);
        std::vector<Reply> batch;
        {
          std::lock_guard<std::mutex> lock(mailbox_mu);
          batch.swap(mailbox);
        }
        for (Reply& o : batch) {
          if (o.client == kConnWorkerDone) {
            worker_done = true;
            continue;
          }
          if (o.client == kConnControlDone) {
            control_done = true;
            continue;
          }
          if (o.client == kConnLogOnly) {
            // A SIGHUP-initiated reload has no client; its outcome goes to
            // the operator log.
            if (log != nullptr) {
              *log << "mixq serve: reload " << o.line << "\n";
              log->flush();
            }
            continue;
          }
          // Every reply to a client completes one in-flight request or
          // reload on its connection.
          const auto it = conns.find(o.client);
          if (it == conns.end()) continue;  // client went away; dropped
          Conn& c = it->second;
          --c.in_flight;
          if (!queue_line(c, o.line)) continue;  // closed while flushing
        }
        continue;
      }

      // -- connection event ------------------------------------------------
      const auto it = conns.find(static_cast<int>(tag));
      if (it == conns.end()) continue;  // already closed this round
      Conn& c = it->second;
      c.last_active = Clock::now();

      if ((ev & EPOLLOUT) != 0) {
        if (!flush_conn(c)) {
          close_conn(c.id);
          continue;
        }
        if (drained_idle(c)) {
          close_conn(c.id);
          continue;
        }
      }

      if ((ev & EPOLLIN) != 0 && c.reading_armed) {
        if (im.injector.should_drop_conn()) {
          // Injected mid-frame drop: the client sees a reset; the server
          // must shed all per-connection state without leaking.
          ++net.dropped_conns;
          close_conn(c.id);
          continue;
        }
        bool peer_closed = false;
        bool conn_dead = false;
        char buf[16384];
        while (true) {
          const auto r = ::recv(c.fd, buf, sizeof(buf), 0);
          if (r < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            conn_dead = true;
            break;
          }
          if (r == 0) {
            peer_closed = true;
            break;
          }
          c.rdbuf.append(buf, static_cast<std::size_t>(r));
          if (!process_rdbuf(c)) {
            conn_dead = true;
            break;
          }
          if (conns.find(static_cast<int>(tag)) == conns.end()) {
            conn_dead = true;
            break;
          }
          if (!c.reading_armed) break;  // drain started mid-read
        }
        if (conn_dead) continue;  // close_conn already ran (or will not
                                  // find the id again)
        if (peer_closed) {
          if (c.in_flight > 0) ++net.dropped_conns;
          close_conn(c.id);
          continue;
        }
      } else if ((ev & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0 &&
                 c.outbox.empty()) {
        if (c.in_flight > 0) ++net.dropped_conns;
        close_conn(c.id);
        continue;
      }
    }

    // Idle reaping: connections with nothing queued, nothing owed, and no
    // traffic inside the window are closed (a leaked client socket must
    // not pin server state forever).
    if (cfg.idle_timeout_ms > 0 && !draining) {
      const auto now = Clock::now();
      scratch_ids.clear();
      for (const auto& [id, c] : conns) {
        if (c.state == Conn::State::kReading && c.in_flight == 0 &&
            c.outbox.empty() &&
            now - c.last_active >=
                std::chrono::milliseconds(cfg.idle_timeout_ms)) {
          scratch_ids.push_back(id);
        }
      }
      for (const int id : scratch_ids) close_conn(id);
      net.idle_reaped += static_cast<std::int64_t>(scratch_ids.size());
    }
  }

  // -- teardown -------------------------------------------------------------
  core.drain();  // idempotent; covers abnormal exits from the loop
  stop_control();
  control.join();
  for (auto& [id, c] : conns) ::close(c.fd);
  conns.clear();
  close_if_open(im.tcp_listen_fd);
  close_if_open(im.unix_listen_fd);
  if (!im.unix_path_bound.empty()) {
    ::unlink(im.unix_path_bound.c_str());
    im.unix_path_bound.clear();
  }

  const NetStats out = snapshot();
  if (log != nullptr) {
    *log << "mixq serve: drained (" << out.engine.responses
         << " responses, " << out.engine.timeouts << " timeouts, "
         << out.engine.shed << " shed)\n";
  }
  return out;
}

}  // namespace mixq::serve

#endif  // !_WIN32
