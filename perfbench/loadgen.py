"""Seeded load generator for the mixq TCP daemon.

One process, one thread, a few connections multiplexed with `selectors`.
Requests are the generator's pre-formatted protocol lines with the real id
spliced in; every response is compared byte for byte with the expected line
built the same way.

Phases:
  warm-up      a short closed loop whose latencies are not reported: the
               daemon's buffers and the connections' windows grow here,
               not in the first measured requests;
  open loop    requests leave at the times of a seeded Poisson schedule,
               round-robin over the connections; latency is timed from each
               request's scheduled time, and how late the generator itself
               issued each request is recorded. The generator busy-polls
               its sockets here, so a send never waits for a timer and a
               response never waits for the generator's CPU to wake;
  closed loop  each connection keeps `depth` requests outstanding for a
               fixed time; latency is timed from the send.
A phase can run in several blocks that add to one Phase's counts, so that
two phases alternate and each samples the whole run.
"""

import collections
import json
import random
import selectors
import socket
import time

ID_PREFIX = b'{"id":0,'


def poisson_schedule(seed, rate, count, samples):
    """`count` arrivals at `rate` per second: a list of (due_s, sample), due
    times measured from the phase start, samples uniform over `samples`
    distinct inputs. The same arguments always give the same schedule."""
    rng = random.Random(seed)
    out = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append((t, rng.randrange(samples)))
    return out


def split_schedule(schedule, blocks):
    """`schedule` cut into `blocks` runs of consecutive arrivals, each with
    due times measured from the previous block's last arrival, so that the
    blocks sent one after another keep every gap of the schedule."""
    bounds = [round(len(schedule) * k / blocks) for k in range(blocks + 1)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        base = schedule[lo - 1][0] if lo > 0 else 0.0
        out.append([(due - base, sample) for due, sample in schedule[lo:hi]])
    return out


class Phase:
    """Outcome counts of one phase; every request ends in exactly one."""

    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.ok = 0
        self.refused = 0
        self.timed_out = 0
        self.errored = 0
        self.unanswered = 0
        self.mismatched = 0
        self.latency_ms = []
        self.late_ms = []
        self.elapsed_s = 0.0
        self.completed_in_window = 0

    @property
    def failed(self):
        return self.refused + self.timed_out + self.errored + self.unanswered

    def check_accounting(self):
        total = (self.ok + self.mismatched + self.refused + self.timed_out +
                 self.errored + self.unanswered)
        if total != self.attempted:
            raise AssertionError(
                f"{self.name}: attempted {self.attempted} != outcomes {total}")

    def summary(self):
        return {"phase": self.name, "attempted": self.attempted,
                "ok": self.ok, "refused": self.refused,
                "timed_out": self.timed_out, "errored": self.errored,
                "unanswered": self.unanswered, "mismatched": self.mismatched}


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = collections.deque()
        self.inbuf = bytearray()
        self.outstanding = 0

    def flush(self):
        while self.out:
            try:
                n = self.sock.send(self.out[0])
            except BlockingIOError:
                return
            if n == len(self.out[0]):
                self.out.popleft()
            else:
                self.out[0] = self.out[0][n:]

    def lines(self):
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("daemon closed a connection")
        self.inbuf += data
        out = []
        while True:
            nl = self.inbuf.find(b"\n")
            if nl < 0:
                return out
            out.append(bytes(self.inbuf[:nl]))
            del self.inbuf[:nl + 1]

    def request(self, line, timeout_s=30.0):
        """Blocking round trip for control lines between phases."""
        self.out.append(memoryview(line + b"\n"))
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            self.flush()
            got = self.lines()
            if got:
                return got[0]
            time.sleep(0.0005)
        raise TimeoutError(f"no answer to {line[:40]!r}")

    def close(self):
        self.sock.close()


class Client:
    """The load generator. `payloads[s]` is the request line of sample s
    with the generator's id 0; `expected[s]` its response."""

    def __init__(self, port, conns, payloads, expected):
        self.conns = [Conn(port) for _ in range(conns)]
        self.req_tail = [p[len(ID_PREFIX):] for p in payloads]
        self.resp_tail = [e[len(ID_PREFIX):] for e in expected]
        self.sel = selectors.DefaultSelector()
        for c in self.conns:
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        self.next_id = 1
        self.pending = {}
        self.mismatch_examples = []

    def close(self):
        for c in self.conns:
            self.sel.unregister(c.sock)
            c.close()

    # -- request plumbing ----------------------------------------------------

    def issue(self, conn, sample, due, phase, now):
        rid = self.next_id
        self.next_id += 1
        head = b'{"id":%d,' % rid
        conn.out.append(memoryview(head + self.req_tail[sample] + b"\n"))
        conn.outstanding += 1
        self.pending[rid] = (conn, sample, due, phase)
        phase.attempted += 1
        phase.late_ms.append((now - due) * 1e3)
        conn.flush()
        self.watch(conn)

    def watch(self, conn):
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out
                                         else 0)
        self.sel.modify(conn.sock, events, conn)

    def answer(self, conn, line, now, on_done):
        rid = None
        if line.startswith(b'{"id":'):
            rid = int(line[6:line.index(b",")])
        elif line.startswith(b'{"error"'):
            rid = json.loads(line).get("id")
        entry = self.pending.pop(rid, None)
        if entry is None:
            raise RuntimeError(f"unsolicited line {line[:120]!r}")
        _, sample, due, phase = entry
        conn.outstanding -= 1
        if line.startswith(b'{"id":'):
            want = b'{"id":%d,' % rid + self.resp_tail[sample]
            if line == want:
                phase.ok += 1
                phase.latency_ms.append((now - due) * 1e3)
            else:
                phase.mismatched += 1
                if len(self.mismatch_examples) < 3:
                    self.mismatch_examples.append((rid, line[:160], want[:160]))
        else:
            code = json.loads(line).get("code")
            if code in ("overloaded", "shutting_down"):
                phase.refused += 1
            elif code == "timeout":
                phase.timed_out += 1
            else:
                phase.errored += 1
        on_done(conn, now)

    def pump(self, timeout_s, on_done):
        """Wait up to `timeout_s` for socket events and handle them."""
        for key, events in self.sel.select(timeout_s):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                conn.flush()
                self.watch(conn)
            if events & selectors.EVENT_READ:
                lines = conn.lines()
                now = time.perf_counter()
                for line in lines:
                    self.answer(conn, line, now, on_done)

    def drain(self, phase, grace_s, poll_s=0.01):
        """Wait for every outstanding request of `phase`; what is still
        missing after `grace_s` counts as unanswered."""
        deadline = time.perf_counter() + grace_s
        while any(e[3] is phase for e in self.pending.values()):
            if time.perf_counter() > deadline:
                for rid in [r for r, e in self.pending.items() if e[3] is phase]:
                    self.pending.pop(rid)
                    phase.unanswered += 1
                break
            self.pump(poll_s, lambda c, t: None)

    # -- phases ----------------------------------------------------------------

    def open_loop(self, schedule, phase=None, grace_s=10.0):
        """Send `schedule` (due times from the block's start) and wait for
        every answer; counts go to `phase`, a new one if None."""
        phase = phase or Phase("open")
        start = time.perf_counter() + 0.01
        i = 0
        while i < len(schedule):
            now = time.perf_counter()
            while i < len(schedule) and start + schedule[i][0] <= now:
                due, sample = schedule[i]
                conn = self.conns[phase.attempted % len(self.conns)]
                self.issue(conn, sample, start + due, phase, now)
                i += 1
                now = time.perf_counter()
            self.pump(0, lambda c, t: None)
        self.drain(phase, grace_s, poll_s=0)
        phase.elapsed_s += time.perf_counter() - start
        phase.check_accounting()
        return phase

    def closed_loop(self, seconds, depth, rng, samples, phase=None,
                    grace_s=10.0, name="closed"):
        """Keep `depth` requests outstanding per connection for `seconds`;
        counts go to `phase`, a new one called `name` if None."""
        phase = phase or Phase(name)
        start = time.perf_counter()
        end = start + seconds

        def refill(conn, now):
            while conn.outstanding < depth:
                self.issue(conn, rng.randrange(samples), now, phase, now)

        def done(conn, now):
            if now < end:
                phase.completed_in_window += 1
                refill(conn, now)

        for conn in self.conns:
            refill(conn, start)
        while time.perf_counter() < end:
            self.pump(min(0.05, max(0.0, end - time.perf_counter())), done)
        phase.elapsed_s += time.perf_counter() - start
        self.drain(phase, grace_s)
        phase.check_accounting()
        return phase
