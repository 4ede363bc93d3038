// `mixq serve` -- the batch inference daemon. Stdio by default (requests
// on stdin, responses on stdout, stats on stderr), or the fault-tolerant
// epoll socket transport with --tcp and/or --socket (both listeners on one
// event loop). Protocol and threading contract: serve/server.hpp;
// event-loop semantics: serve/net/.
#include <cstdio>
#include <iostream>

#include "cli/cli.hpp"
#include "runtime/flash_image.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

#ifndef _WIN32
#include "serve/net/epoll_server.hpp"
#endif

namespace mixq::cli {

namespace {

constexpr const char* kUsage =
    "usage: mixq serve [IMAGE] [--model NAME=IMAGE ...] [options]\n"
    "\n"
    "  A bare IMAGE is served as model \"default\". --model (repeatable)\n"
    "  adds named models; the first model given is the default one that\n"
    "  requests without a \"model\" field route to.\n"
    "\n"
    "  --model NAME=IMAGE  serve IMAGE as model NAME (repeatable)\n"
    "  --threads N         worker lanes (default 1, 0 = hardware)\n"
    "  --max-batch N       micro-batch limit: the worker takes up to N\n"
    "                      already-queued requests (default 8); no request\n"
    "                      waits for batch-mates\n"
    "  --max-wait-us N     accepted for compatibility (N >= 0) and ignored\n"
    "  --socket PATH       serve a unix-domain socket on the epoll loop\n"
    "  --tcp PORT          serve TCP on the epoll loop (0 = ephemeral;\n"
    "                      combines with --socket for both listeners)\n"
    "  --tcp-bind ADDR     TCP bind address (default 127.0.0.1)\n"
    "  --max-conns N       connection cap; excess accepts are answered\n"
    "                      `overloaded` and closed (default 256)\n"
    "  --queue-depth N     admission bound; past it requests are shed with\n"
    "                      `overloaded` + retry_after_ms (default 256)\n"
    "  --deadline-default N  deadline_ms stamped on requests that carry\n"
    "                      none (default 0 = no deadline)\n"
    "  --idle-timeout-ms N close idle connections (default 60000, 0 = never)\n"
    "  --drain-timeout-ms N graceful-drain bound on SIGTERM/shutdown\n"
    "                      (default 5000)\n"
    "  --fault-spec SPEC   fault injection, e.g. seed=7,drop=0.05,trunc=0.3\n"
    "                      (also via MIXQ_FAULT_SPEC; testing only)\n"
    "  --quiet             suppress the final stats summary on stderr\n"
    "\n"
    "protocol (newline-delimited JSON):\n"
    "  {\"id\":7,\"input\":[...H*W*C floats...]}\n"
    "      -> {\"id\":7,\"predicted\":3,\"logits\":[...]}\n"
    "  {\"id\":7,\"input\":[...],\"deadline_ms\":50}\n"
    "      -> the response, or a {\"code\":\"timeout\"} error if unexecuted\n"
    "         50 ms after arrival\n"
    "  {\"id\":7,\"model\":\"b\",\"input\":[...]}  route to model \"b\"\n"
    "  {\"cmd\":\"info\"} | {\"cmd\":\"stats\"} | {\"cmd\":\"shutdown\"}\n"
    "  {\"cmd\":\"health\"}                 per-model readiness probe\n"
    "  {\"cmd\":\"reload\",\"model\":\"b\",\"path\":\"new.img\"}\n"
    "      validate-then-swap hot reload (path defaults to the model's\n"
    "      current image); SIGHUP reloads every model in place\n"
    "errors: {\"error\":MSG,\"code\":malformed|timeout|overloaded|\n"
    "         shutting_down|internal|not_found|reload_failed,\n"
    "         \"retryable\":B[,\"retry_after_ms\":M]}\n";

}  // namespace

int cmd_serve(Args& args) {
  if (args.flag("--help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  serve::ServeConfig cfg;
  cfg.threads = static_cast<int>(args.int_opt_or("--threads", 1));
  cfg.max_batch = static_cast<int>(args.int_opt_or("--max-batch", 8));
  // Parsed and validated so existing command lines (the benchmark
  // package's among them) keep working; nothing reads the value.
  const std::int64_t max_wait_us = args.int_opt_or("--max-wait-us", 0);
  cfg.max_conns = static_cast<int>(args.int_opt_or("--max-conns", 256));
  cfg.default_deadline_ms = args.int_opt_or("--deadline-default", 0);
  const auto socket_path = args.opt("--socket");
  const std::int64_t tcp_port = args.int_opt_or("--tcp", -1);
  const std::string tcp_bind = args.opt_or("--tcp-bind", "127.0.0.1");
  const std::int64_t queue_depth = args.int_opt_or("--queue-depth", 256);
  const std::int64_t idle_ms = args.int_opt_or("--idle-timeout-ms", 60'000);
  const std::int64_t drain_ms = args.int_opt_or("--drain-timeout-ms", 5'000);
  const auto fault_spec = args.opt("--fault-spec");
  const bool quiet = args.flag("--quiet");
  const std::vector<std::string> model_specs = args.opt_all("--model");
  args.done();
  const auto pos = args.positionals();
  if (pos.size() > 1) throw UsageError("expected at most one IMAGE path");
  if (pos.empty() && model_specs.empty()) {
    throw UsageError("expected an IMAGE path or at least one --model");
  }
  if (cfg.max_batch < 1) throw UsageError("--max-batch must be >= 1");
  if (max_wait_us < 0) throw UsageError("--max-wait-us must be >= 0");
  if (cfg.max_conns < 1) throw UsageError("--max-conns must be >= 1");
  if (tcp_port > 65535) throw UsageError("--tcp must be a port in [0, 65535]");
  if (queue_depth < 1) throw UsageError("--queue-depth must be >= 1");
  if (drain_ms < 1) throw UsageError("--drain-timeout-ms must be >= 1");

  // The registry owns every served model (bare IMAGE = model "default",
  // listed first so it stays the default when --model entries follow).
  serve::ModelRegistry registry(cfg.threads);
  if (!pos.empty()) registry.add_model("default", pos[0]);
  for (const std::string& spec : model_specs) {
    const std::size_t eq = spec.find('=');
    if (eq == 0 || eq == std::string::npos || eq + 1 >= spec.size()) {
      throw UsageError("--model needs NAME=IMAGE, got \"" + spec + "\"");
    }
    registry.add_model(spec.substr(0, eq), spec.substr(eq + 1));
  }

  if (tcp_port >= 0 || socket_path) {
#ifdef _WIN32
    throw std::runtime_error("--tcp/--socket are not supported on this "
                             "platform");
#else
    serve::NetConfig ncfg;
    ncfg.engine = cfg;
    ncfg.tcp_port = static_cast<int>(tcp_port);
    ncfg.tcp_bind = tcp_bind;
    if (socket_path) ncfg.unix_path = *socket_path;
    ncfg.queue_depth = static_cast<std::size_t>(queue_depth);
    ncfg.idle_timeout_ms = idle_ms;
    ncfg.drain_timeout_ms = drain_ms;
    ncfg.faults = fault_spec ? serve::parse_fault_spec(*fault_spec)
                             : serve::fault_config_from_env();
    serve::EpollServer server(registry, ncfg);
    // SIGTERM/SIGINT -> graceful drain; SIGHUP -> reload every model
    server.install_signal_handlers();
    const serve::NetStats nstats = server.run(quiet ? nullptr : &std::cerr);
    if (!quiet) std::fputs(nstats.str().c_str(), stderr);
    return 0;
#endif
  }
  serve::StreamServer server(registry, cfg);
  // Unsynced, std::cin reads stdin in buffered runs; synced with C stdio
  // it hands the line reader one byte per call.
  std::ios::sync_with_stdio(false);
  const serve::ServeStats stats = server.serve(std::cin, std::cout);
  if (!quiet) std::fputs(stats.str().c_str(), stderr);
  return 0;
}

}  // namespace mixq::cli
