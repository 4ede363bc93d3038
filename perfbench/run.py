#!/usr/bin/env python3
"""End-to-end benchmark of mixq on the paper's MobileNetV1 deployments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the `mixq` daemon and
the benchmark's helper (`perfbench_tool`) from the sources next to this
directory into .bench_build/ (or $CARGO_TARGET_DIR) and generates the
workload models through the repository's own Figure 1 pipeline; later runs
reuse both. Each run generates its inputs from --seed, runs the workload
for --seconds, checks every response byte for byte, prints provenance and
every metric by name with its unit, and ends with one JSON line:
{"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With --trace 1 it
also replays the workload in-process with a span around every call into a
layer, writes the spans, and reports the per-layer metrics instead.

The load generator (this process) runs on one CPU and the program under
test on the others, so the two never compete for a core; an idle-priority
busy loop on each of the others keeps them from halting between requests.

Exit codes: 0 ok; 1 an output mismatched; 2 the program could not be built
or is not next to this directory; 3 the run was invalid (a daemon failed,
too few samples to support p99, or the load generator fell behind).
"""

import argparse
import ctypes
import gc
import hashlib
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
import traceback

import loadgen
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The paper's STM32H7 deployments (Alg. 1-2 plan, PC-ICN), 1000 classes.
# The weights come from a fixed seed: the deployed model is part of the
# workload's definition, the traffic comes from --seed.
MODELS = {
    "small": {"resolution": 128, "width": "0.25", "classes": 1000},
    "big": {"resolution": 224, "width": "0.75", "classes": 1000},
}
MODEL_SEED = 1
CALIBRATION_IMAGES = 2
SAMPLES = {"small": 32, "big": 8}  # distinct seeded inputs per model

# `mixq serve` flags: 2 lanes, so the daemon's loop thread, batch worker and
# extra lane get a core each beside the load generator's on 4 cores;
# --max-batch 8 and --max-wait-us 2000 are the defaults, passed explicitly
# so they are recorded.
DAEMON = {"threads": 2, "max_batch": 8, "max_wait_us": 2000}

# The TCP workload's open loop sends OPEN_REQUESTS at `rate`, enough for
# ten samples beyond p99; its closed loop gets the rest of --seconds. The
# two alternate in ROUNDS blocks each.
WORKLOADS = {
    "tcp_mbv1_128": {
        "kind": "tcp", "model": "small", "rate": 35.0, "conns": 4,
        "depth": 2, "idle_reloads": 32,
    },
    "engine_mbv1_224": {
        "kind": "engine", "model": "big", "latency_share": 0.6,
        "reloads": 20, "trace_rate": 5.0,
    },
}
COLD_STARTS = 15
OPEN_REQUESTS = 1012
ROUNDS = 8
WARMUP_SECONDS = 1.0  # unreported closed loop before the open loop
LATE_LIMIT_MS = 100.0  # generator lateness (p99) that invalidates a run
TRACE_SECONDS = 8.0  # open-loop prefix the traced replay re-runs
TRACE_REPS = 8  # even: reloads alternate v1/v2 and end on the served v2
TRACE_ITERS = 30

# Metric names and units: the benchmark's definition is their one source.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

# The load generator's CPU and the program's: disjoint when there are two.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = set(_CPUS[:1]) if len(_CPUS) > 1 else set(_CPUS)
SERVER_CPUS = set(_CPUS[1:]) if len(_CPUS) > 1 else set(_CPUS)


_libc = ctypes.CDLL(None)
PR_SET_PDEATHSIG = 1


def child_on(cpus):
    """A preexec_fn: the child runs on `cpus` and is killed if run.py dies,
    even by SIGKILL."""
    def setup():
        os.sched_setaffinity(0, cpus)
        _libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    return setup


# A virtual CPU that halts when idle wakes when the host gets to it, and on a
# busy host that takes long and varies. An open-loop request crosses daemon
# threads that each sleep between requests: on a 4-vCPU KVM guest (Xeon),
# in busy periods its p50 rose by up to 40% while the daemon's CPU time per
# request rose by 12%. So each server CPU runs this busy loop at the lowest
# priority (SCHED_IDLE) for the whole run. Any thread of the program preempts
# it at once, so a wakeup is a context switch in a running CPU.
SPINNER = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while True:
    pass
"""


class Invalid(Exception):
    """The run cannot produce a trustworthy result (exit 3)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- build and generate ------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure once, then (re)build the daemon and the helper."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "registry.hpp")):
        log("perfbench: the mixq sources are not next to perfbench/")
        sys.exit(2)
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(logf, "ab") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                with open(logf, "rb") as f:
                    log(f.read()[-4000:].decode(errors="replace"))
                log("perfbench: build failed")
                sys.exit(2)
    return (os.path.join(bdir, "perfbench_tool"),
            os.path.join(bdir, "mixq", "tools", "mixq"))


def tool_run(tool, *args):
    res = subprocess.run([tool, *map(str, args)], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE,
                         preexec_fn=child_on(SERVER_CPUS))
    if res.returncode != 0:
        log(res.stderr.decode(errors="replace"))
        if res.returncode == 4:
            log("perfbench: output mismatch in " + args[0])
            sys.exit(1)
        raise Invalid(f"perfbench_tool {args[0]} exited {res.returncode}")
    return res.stdout.decode()


def generate(tool, bdir, name, seed, rundir):
    """The model (cached per helper binary), its manifest, and this run's
    seeded inputs."""
    with open(tool, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:12]
    mdir = os.path.join(bdir, "models-" + key)
    os.makedirs(mdir, exist_ok=True)
    manifest = os.path.join(mdir, name + ".model.json")
    if not os.path.isfile(manifest):
        cfg = MODELS[name]
        tool_run(tool, "gen-model", "--name", name, "--resolution",
                 cfg["resolution"], "--width", cfg["width"], "--classes",
                 cfg["classes"], "--seed", MODEL_SEED, "--calib",
                 CALIBRATION_IMAGES, "--out", mdir)
    for v in ("v1", "v2"):
        shutil.copyfile(os.path.join(mdir, f"{name}.{v}.img"),
                        os.path.join(rundir, f"{name}.{v}.img"))
    tool_run(tool, "gen-inputs", "--image",
             os.path.join(rundir, name + ".v1.img"), "--count",
             SAMPLES[name], "--seed", seed, "--out",
             os.path.join(rundir, name))
    with open(manifest) as f:
        return json.load(f)


def read_lines(path):
    with open(path, "rb") as f:
        return f.read().split(b"\n")[:-1]


# -- provenance ----------------------------------------------------------------

def provenance(tool, args, wl):
    git = {"describe": "unknown (not a git checkout)", "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        desc = res.stdout.decode().strip()
        git = {"describe": desc, "dirty": desc.endswith("-dirty")}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git": git, "cpu": cpu, "nproc": os.cpu_count(),
        "isa": json.loads(tool_run(tool, "info")),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "rounds": ROUNDS, "daemon": DAEMON,
        "config": wl,
        "model": MODELS[wl["model"]], "model_seed": MODEL_SEED,
        "client_cpus": sorted(CLIENT_CPUS), "server_cpus": sorted(SERVER_CPUS),
    }


# -- the daemon ----------------------------------------------------------------

class Daemon:
    """A `mixq serve --tcp 0` child; stopped with {"cmd":"shutdown"} and
    reaped with wait4, which yields its CPU time. Daemons not yet reaped
    are in `Daemon.live`; main() kills them however a run ends."""

    live = []

    def __init__(self, mixq, image):
        self.argv = [mixq, "serve", image, "--tcp", "0",
                     "--threads", str(DAEMON["threads"]),
                     "--max-batch", str(DAEMON["max_batch"]),
                     "--max-wait-us", str(DAEMON["max_wait_us"])]
        self.proc = subprocess.Popen(self.argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE,
                                     preexec_fn=child_on(SERVER_CPUS))
        Daemon.live.append(self)
        self.port = self._read_port()

    def _read_port(self, timeout_s=60.0):
        buf = b""
        deadline = time.perf_counter() + timeout_s
        fd = self.proc.stderr.fileno()
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buf += chunk
            for line in buf.split(b"\n")[:-1]:  # complete lines only
                if line.startswith(b"mixq serve: listening on tcp "):
                    return int(line.rsplit(b":", 1)[1])
        raise Invalid("daemon did not start: " + buf.decode(errors="replace"))

    def peak_rss_kb(self):
        """The daemon's own peak resident set (VmHWM). Its ru_maxrss would
        also count run.py's memory, which the child shared until exec."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise Invalid("no VmHWM in the daemon's /proc status")

    def stop(self, conn):
        """Graceful shutdown over `conn`; returns the child's rusage."""
        answer = conn.request(b'{"cmd":"shutdown"}')
        if answer != b'{"ok":"shutdown"}':
            raise Invalid(f"shutdown answered {answer[:120]!r}")
        return self.wait()

    def wait(self, timeout_s=30.0):
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid == self.proc.pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.proc.stderr.close()
                Daemon.live.remove(self)
                if self.proc.returncode != 0:
                    raise Invalid(f"daemon exited {self.proc.returncode}")
                return ru
            time.sleep(0.005)
        raise Invalid("daemon did not exit after shutdown")

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stderr.close()
        Daemon.live.remove(self)


def cold_start(mixq, image, first_line, first_want):
    """Spawn a daemon and time it to its first correct inference response."""
    t0 = time.perf_counter()
    d = Daemon(mixq, image)
    conn = loadgen.Conn(d.port)
    got = conn.request(first_line)
    elapsed = time.perf_counter() - t0
    if got != first_want:
        log("perfbench: cold-start response mismatch")
        sys.exit(1)
    return d, conn, elapsed


# -- workloads -------------------------------------------------------------------

def run_tcp(name, wl, args, mixq, rundir):
    model = wl["model"]
    payloads = read_lines(os.path.join(rundir, model + ".requests"))
    expected = read_lines(os.path.join(rundir, model + ".expected"))
    image = os.path.join(rundir, model + ".v2.img")

    setup = []
    for i in range(COLD_STARTS):
        d, conn, elapsed = cold_start(mixq, image, payloads[0], expected[0])
        setup.append(elapsed)
        if i + 1 < COLD_STARTS:
            d.stop(conn)
            conn.close()

    samples = SAMPLES[model]
    schedule = loadgen.poisson_schedule(args.seed, wl["rate"], OPEN_REQUESTS,
                                        samples)
    client = None
    try:
        client = loadgen.Client(d.port, wl["conns"], payloads, expected)
        warm_phase = client.closed_loop(WARMUP_SECONDS, 1,
                                        random.Random(args.seed + 2), samples,
                                        name="warmup")
        # The open and closed loops alternate in ROUNDS blocks each, so both
        # sample the whole run and not one part of it each; each closed
        # block gets an equal share of the time the open blocks leave.
        end = time.perf_counter() + args.seconds - WARMUP_SECONDS
        open_phase = closed_phase = None
        rng = random.Random(args.seed + 1)
        blocks = loadgen.split_schedule(schedule, ROUNDS)
        for k, block in enumerate(blocks):
            open_phase = client.open_loop(block, open_phase)
            open_left = sum(b[-1][0] for b in blocks[k + 1:])
            closed_s = (end - time.perf_counter() - open_left) / (ROUNDS - k)
            closed_phase = client.closed_loop(max(0.5, closed_s), wl["depth"],
                                              rng, samples, closed_phase)
        stats = json.loads(client.conns[0].request(b'{"cmd":"stats"}'))
        reload_ms = []
        reload_failures = []
        paths = [os.path.join(rundir, model + v) for v in (".v1.img", ".v2.img")]
        for i in range(wl["idle_reloads"]):
            cmd = json.dumps({"cmd": "reload", "path": paths[i % 2]}).encode()
            t0 = time.perf_counter()
            got = client.conns[0].request(cmd)
            if got.startswith(b'{"ok":"reload"'):
                reload_ms.append((time.perf_counter() - t0) * 1e3)
            else:
                reload_failures.append(got[:200].decode(errors="replace"))
        mismatches = client.mismatch_examples
        peak_kb = d.peak_rss_kb()
        ru = d.stop(client.conns[0])
    finally:
        if client is not None:
            client.close()
        conn.close()

    if mismatches:
        for rid, got, want in mismatches:
            log(f"perfbench: response {rid} mismatch:\n  got  {got!r}\n"
                f"  want {want!r}")
        sys.exit(1)
    if reload_failures:
        raise Invalid("reload failed: " + reload_failures[0])
    if not metrics.tail_supported(open_phase.latency_ms, 99):
        raise Invalid(f"only {metrics.beyond(open_phase.latency_ms, 99)} "
                      "open-loop samples beyond p99; need 10")
    late_p99 = metrics.percentile(open_phase.late_ms, 99)
    if late_p99 > LATE_LIMIT_MS:
        raise Invalid(f"the load generator sent {late_p99:.1f} ms late at "
                      "p99: the arrivals were not the schedule's")

    phases = [warm_phase, open_phase, closed_phase]
    served = 1 + sum(p.ok for p in phases)  # + the cold-start probe
    cpu_s = ru.ru_utime + ru.ru_stime
    engine = stats["stats"]["engine"]
    return {
        "metrics": {
            "setup_s": metrics.median(setup),
            "throughput_rps": closed_phase.completed_in_window /
                              closed_phase.elapsed_s,
            "p50_ms": metrics.percentile(open_phase.latency_ms, 50),
            "reload_ms": metrics.pair_median(reload_ms),
            "cpu_ms_per_req": cpu_s * 1e3 / served,
            "peak_rss_mb": peak_kb / 1024,
        },
        "latency_ms": open_phase.latency_ms,
        "attempted": sum(p.attempted for p in phases) + COLD_STARTS,
        "failed": sum(p.failed for p in phases),
        "phases": [p.summary() for p in phases],
        "detail": {
            "setup_samples_s": setup,
            "open_elapsed_s": open_phase.elapsed_s,
            "closed_completed": closed_phase.completed_in_window,
            "reloads": len(reload_ms),
            "reload_samples_ms": reload_ms,
            "daemon_argv": d.argv,
        },
        "untraced": {
            "latency_mean_ms": metrics.mean(open_phase.latency_ms),
            "late_p99_ms": late_p99,
            "daemon_batch_fill": engine["mean_batch_fill"],
            "daemon_p50_ms": engine["latency_p50_us"] / 1e3,
            "daemon_shed": engine["shed"],
        },
        "schedule": schedule,
    }


def run_engine(name, wl, args, tool, rundir):
    model = wl["model"]
    out = tool_run(
        tool, "engine",
        "--image", os.path.join(rundir, model + ".v2.img"),
        "--alt-image", os.path.join(rundir, model + ".v1.img"),
        "--expected", os.path.join(rundir, model + ".expected"),
        "--input-seed", args.seed, "--threads", DAEMON["threads"],
        "--max-batch", DAEMON["max_batch"], "--seconds", args.seconds,
        "--latency-share", wl["latency_share"], "--rounds", ROUNDS,
        "--cold-starts", COLD_STARTS, "--reloads", wl["reloads"])
    e = json.loads(out)
    lat = e["latency_ms"]
    calls = len(lat) + e["batched"] // DAEMON["max_batch"]
    return {
        "metrics": {
            "setup_s": metrics.median(e["setup_s"]),
            "throughput_rps": e["batched"] / e["batched_s"],
            "p50_ms": metrics.percentile(lat, 50),
            "reload_ms": metrics.pair_median(e["reload_ms"]),
            "cpu_ms_per_req": e["cpu_ms_per_req"],
            "peak_rss_mb": e["peak_rss_kb"] / 1024,
        },
        "latency_ms": lat,
        "attempted": e["attempted"],
        "failed": 0,
        "phases": [{"phase": "engine", "attempted": e["attempted"],
                    "ok": e["attempted"] - e["mismatches"]}],
        "detail": {
            "setup_samples_s": e["setup_s"],
            "reload_samples_ms": e["reload_ms"],
            "batched": e["batched"],
        },
        "untraced": {
            "latency_mean_ms": metrics.mean(lat),
            "daemon_batch_fill": (len(lat) + e["batched"]) / calls,
            "daemon_p50_ms": metrics.percentile(lat, 50),
            "daemon_shed": 0,
        },
        "schedule": [],
    }


# -- traced replay ---------------------------------------------------------------

def run_trace(name, wl, args, tool, rundir, bdir, untraced, manifest):
    """Replay the workload in-process with spans; derive per-layer metrics."""
    tdir = os.path.join(bdir, "traces")
    os.makedirs(tdir, exist_ok=True)
    spans_path = os.path.join(tdir, f"{name}-seed{args.seed}.spans.jsonl")
    # The TCP workload replays its own open-loop prefix; the engine, which
    # has no protocol, replays its model's requests at a low fixed rate so
    # that every layer is measured on every workload.
    schedule = untraced["schedule"] or loadgen.poisson_schedule(
        args.seed, wl["trace_rate"], int(wl["trace_rate"] * TRACE_SECONDS),
        SAMPLES[wl["model"]])
    sched_path = os.path.join(rundir, "schedule.txt")
    with open(sched_path, "w") as f:
        for due, sample in schedule:
            if due > TRACE_SECONDS:
                break
            f.write(f"{int(due * 1e9)} {sample}\n")
    tool_run(tool, "trace", "--gen", rundir, "--model", wl["model"],
             "--threads", DAEMON["threads"], "--max-batch", DAEMON["max_batch"],
             "--max-wait-us", DAEMON["max_wait_us"], "--reps", TRACE_REPS,
             "--iters", TRACE_ITERS, "--spans", spans_path,
             "--schedule", sched_path)
    with open(spans_path) as f:
        spans = metrics.SpanSet([json.loads(line) for line in f])

    u = untraced["untraced"]
    m = {
        "loop.wait_ms": spans.mean_self_ms("loop.wait"),
        "protocol.parse_ms": spans.mean_self_ms("protocol.parse"),
        "protocol.parse_mb_s": spans.rate("protocol.parse", 1e-6),
        "protocol.format_us": spans.mean_self_ms("protocol.format") * 1e3,
        "batcher.wait_ms": spans.mean_self_ms("batcher.wait"),
        "batcher.fill": metrics.mean(
            [s["value"] for s in spans.named("batcher.batch")]),
        "registry.infer_ms_per_req": metrics.mean(
            [s["self_ns"] / s["value"] for s in spans.named("registry.infer")]
        ) / 1e6,
        "registry.add_model_ms": spans.mean_self_ms("registry.add_model"),
        "registry.reload_ms": spans.mean_self_ms("registry.reload"),
        "flash_image.load_ms": spans.mean_self_ms("flash_image.load"),
        "plan.compile_ms": spans.mean_self_ms("plan.compile"),
        "plan.arenas_ms": spans.mean_self_ms("plan.arenas"),
        "plan.probe_ms": spans.mean_self_ms("plan.probe"),
        "plan.infer_ms": spans.mean_self_ms("plan.infer"),
        # What the plan compiler chose, as gen-model recorded it.
        "plan.vnni_layers": manifest["vnni_layers"],
        "plan.arena_kb": manifest["arena_bytes"] / 1024,
        "parallel.speedup_2": spans.mean_self_ms("parallel.batch_1lane") /
                              spans.mean_self_ms("parallel.batch_lanes"),
        "daemon.batch_fill": u["daemon_batch_fill"],
        "daemon.p50_ms": u["daemon_p50_ms"],
        "daemon.shed": u["daemon_shed"],
    }
    # Per role, summed over that role's layers within one run_timed call.
    iters = len(spans.named("plan.timed"))
    for role in ("quantize", "conv0", "dw", "pw", "head"):
        m[f"plan.{role}_ms"] = spans.total_self_ms("plan." + role) / iters
        if role in ("conv0", "dw", "pw"):
            m[f"plan.{role}_macs_per_ns"] = spans.rate("plan." + role, 1e-9)

    # The untraced run's mean latency against the time the named layer spans
    # account for in the replay: per request on TCP (the rest is socket I/O
    # and the daemon's event loop), per batch-1 inference on the engine.
    if untraced["schedule"]:
        root, plain = "request", "request.untraced"
        m["client.late_p99_ms"] = u["late_p99_ms"]
    else:
        root, plain = "plan.timed", "plan.infer"
        m["client.late_p99_ms"] = metrics.percentile(
            [s["self_ns"] / 1e6 for s in spans.named("loop.wait")], 99)
    named_ms = spans.mean_children_ms(root)
    m["net.residual_ms"] = u["latency_mean_ms"] - named_ms
    m["trace.attributed_frac"] = named_ms / u["latency_mean_ms"]
    # Traced against untraced within the same replay: requests alternate on
    # TCP; run_timed against run_into on the engine.
    m["trace.overhead_ms"] = spans.mean_ms(root) - spans.mean_ms(plain)
    return m, spans_path


# -- main ------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    # Cycle-collector pauses would show up as load-generator lateness.
    gc.disable()

    bdir = build_dir()
    tool, mixq = build(bdir)
    os.sched_setaffinity(0, CLIENT_CPUS)
    rundir = os.path.join(bdir, "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    # A terminated run still stops what it started (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    spinners = []
    try:
        for cpu in sorted(SERVER_CPUS):
            spinners.append(subprocess.Popen([sys.executable, "-c", SPINNER],
                                             preexec_fn=child_on({cpu})))
        return measure(args, wl, tool, mixq, bdir, rundir)
    except Invalid as e:
        log(f"perfbench: invalid run: {e}")
        return 3
    except Exception:  # a lost connection, a timeout: no result either
        traceback.print_exc()
        log("perfbench: invalid run")
        return 3
    finally:
        for d in list(Daemon.live):
            d.kill()
        for p in spinners:
            p.kill()
            p.wait()
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, wl, tool, mixq, bdir, rundir):
    manifest = generate(tool, bdir, wl["model"], args.seed, rundir)
    print("provenance " + json.dumps(provenance(tool, args, wl)))
    print(f"model {wl['model']} " + json.dumps(manifest))

    if wl["kind"] == "engine":
        res = run_engine(args.workload, wl, args, tool, rundir)
    else:
        res = run_tcp(args.workload, wl, args, mixq, rundir)
    for p in res["phases"]:
        print("phase " + json.dumps(p))
    print("detail " + json.dumps(res["detail"]))
    # Printed but not in BENCHMARK.json: failed_frac is 0 on a healthy run
    # (the result line's attempted/failed counts carry it), and the tail
    # percentile, set by a handful of requests, moves between runs by more
    # than any bound the benchmark may set (at most a quarter of the median).
    failed_frac = res["failed"] / res["attempted"]
    print(f"failed_frac = {failed_frac:.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    lat = res["latency_ms"]
    tail = next((p for p in (99, 98, 95, 90)
                 if metrics.tail_supported(lat, p)), 50)
    print(f"p{tail}_ms = {metrics.percentile(lat, tail):.6g} ms ({len(lat)} "
          f"samples, {metrics.beyond(lat, tail)} beyond)")
    print_metrics("end_to_end", res["metrics"])

    values = res["metrics"]
    if args.trace:
        values, spans_path = run_trace(args.workload, wl, args, tool, rundir,
                                       bdir, res, manifest)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        print_metrics("per_layer", values)
    print(result_line(args.trace, res["attempted"], res["failed"], values))
    return 0


def print_metrics(group, values):
    for m in SPEC[group]:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")


def result_line(trace, attempted, failed, values):
    """The run's last line: every end-to-end metric (untraced) or every
    per-layer metric (traced), by name and unit from BENCHMARK.json."""
    group = "per_layer" if trace else "end_to_end"
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in SPEC[group]}
    return json.dumps({"correct": True, "attempted": attempted,
                       "failed": failed, "metrics": out})


if __name__ == "__main__":
    sys.exit(main())
