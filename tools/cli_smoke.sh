#!/usr/bin/env bash
# End-to-end smoke of the mixq deployment CLI:
#
#   quantize -> inspect -> run -> serve
#
# on a tiny deterministic model, asserting that the daemon's responses are
# BYTE-identical to `mixq run --ndjson` on the same inputs, and that `run`
# itself is thread-count invariant. Run by CI (cli-smoke job) and by CTest
# (tools_cli_smoke).
#
# usage: cli_smoke.sh path/to/mixq [workdir]
set -euo pipefail

MIXQ="${1:?usage: cli_smoke.sh path/to/mixq [workdir]}"
DIR="${2:-$(mktemp -d)}"
# Only ever delete a directory this script created (marker file) or an
# empty one -- never an arbitrary pre-existing path the caller mistyped.
if [ -e "$DIR" ] && [ ! -f "$DIR/.mixq-cli-smoke" ] \
    && [ -n "$(ls -A "$DIR" 2>/dev/null)" ]; then
  echo "cli_smoke.sh: refusing to clobber non-empty $DIR (no .mixq-cli-smoke marker)" >&2
  exit 1
fi
rm -rf "$DIR"
mkdir -p "$DIR"
touch "$DIR/.mixq-cli-smoke"

echo "== quantize (train a tiny W4A4 PC+ICN model, emit the flash image)"
"$MIXQ" quantize --out "$DIR/model.img" \
  --hw 8 --channels 8 --blocks 2 --classes 4 \
  --wbits 4 --abits 4 --scheme pc-icn \
  --epochs 1 --train-size 96 --test-size 48 --seed 1 \
  --save-checkpoint "$DIR/model.ckpt"

echo "== quantize again from the checkpoint: image must be bit-identical"
"$MIXQ" quantize --out "$DIR/model2.img" \
  --hw 8 --channels 8 --blocks 2 --classes 4 \
  --wbits 4 --abits 4 --scheme pc-icn \
  --checkpoint "$DIR/model.ckpt" --seed 1 --train-size 96 --test-size 48 \
  --quiet
cmp "$DIR/model.img" "$DIR/model2.img"

echo "== inspect"
"$MIXQ" inspect "$DIR/model.img" --device stm32h7
"$MIXQ" inspect "$DIR/model.img" --json > "$DIR/inspect.json"
grep -q '"total_macs"' "$DIR/inspect.json"
grep -q '"qw":4' "$DIR/inspect.json"
# Host-executor attribution: every layer reports the kernel tier and the
# requant epilogue the plan chose, plus the arena footprint.
grep -q '"tier":"' "$DIR/inspect.json"
grep -q '"requant":"vector"\|"requant":"scalar"' "$DIR/inspect.json"
grep -q '"arena_bytes"' "$DIR/inspect.json"
# Plan weight memory: tiered layers keep only their kernel panels, so the
# compiled plan holds fewer weight bytes than one INT32 bank of the net's
# weights (4 bytes each) would.
wb=$(sed -n 's/.*"host":{[^}]*"weight_bytes":\([0-9]*\).*/\1/p' "$DIR/inspect.json")
wn=$(sed -n 's/.*"host":{[^}]*"weight_count":\([0-9]*\).*/\1/p' "$DIR/inspect.json")
test -n "$wb" && test -n "$wn" && test "$wb" -lt $((4 * wn))

echo "== MIXQ_NO_VNNI reads its value: 0 and empty keep the vnni tier, 1 drops it"
env -u MIXQ_NO_VNNI "$MIXQ" inspect "$DIR/model.img" --json > "$DIR/inspect_vnni.json"
if grep -q '"tier":"vnni"' "$DIR/inspect_vnni.json"; then
  for v in 0 ""; do
    MIXQ_NO_VNNI="$v" "$MIXQ" inspect "$DIR/model.img" --json > "$DIR/inspect_nv.json"
    grep -q '"tier":"vnni"' "$DIR/inspect_nv.json"
  done
  MIXQ_NO_VNNI=1 "$MIXQ" inspect "$DIR/model.img" --json > "$DIR/inspect_nv.json"
  if grep -q '"tier":"vnni"' "$DIR/inspect_nv.json"; then
    echo "MIXQ_NO_VNNI=1 left a layer on the vnni tier" >&2
    exit 1
  fi
else
  echo "   (this build or host has no vnni tier: skipped)"
fi

echo "== run (planned/SIMD inference on deterministic synthetic inputs)"
"$MIXQ" run "$DIR/model.img" --input synthetic:8 --seed 7 \
  --ndjson --emit-requests "$DIR/requests.ndjson" > "$DIR/run.ndjson"
test "$(wc -l < "$DIR/run.ndjson")" = 8
test "$(wc -l < "$DIR/requests.ndjson")" = 8

echo "== run with 2 threads: output must be byte-identical"
"$MIXQ" run "$DIR/model.img" --input synthetic:8 --seed 7 --threads 2 \
  --ndjson > "$DIR/run_t2.ndjson"
cmp "$DIR/run.ndjson" "$DIR/run_t2.ndjson"

echo "== quantize --compress (entropy-coded v2 image, per-layer scheme)"
# Per-layer granularity concentrates the trained codes into few symbols,
# so at least one layer genuinely picks the huffman codec here (per-channel
# scaling would leave everything on the raw fallback). Training is
# deterministic under a pinned seed, so the raw and compressed images
# below carry the SAME weights despite separate training runs.
"$MIXQ" quantize --out "$DIR/plain.img" \
  --hw 8 --channels 16 --blocks 2 --classes 4 \
  --wbits 4 --abits 4 --scheme pl-icn \
  --epochs 1 --train-size 96 --test-size 48 --seed 1 --quiet
"$MIXQ" quantize --out "$DIR/packed.img" --compress \
  --hw 8 --channels 16 --blocks 2 --classes 4 \
  --wbits 4 --abits 4 --scheme pl-icn \
  --epochs 1 --train-size 96 --test-size 48 --seed 1 --quiet

echo "== quantize --compress is deterministic: rerun must be bit-identical"
"$MIXQ" quantize --out "$DIR/packed2.img" --compress \
  --hw 8 --channels 16 --blocks 2 --classes 4 \
  --wbits 4 --abits 4 --scheme pl-icn \
  --epochs 1 --train-size 96 --test-size 48 --seed 1 --quiet
cmp "$DIR/packed.img" "$DIR/packed2.img"

echo "== inspect reports the v2 codec split and compression ratio"
"$MIXQ" inspect "$DIR/packed.img" --json > "$DIR/inspect_v2.json"
grep -q '"version":2' "$DIR/inspect_v2.json"
grep -q '"codec":"huffman"' "$DIR/inspect_v2.json"
grep -q '"codec":"raw"' "$DIR/inspect_v2.json"
grep -q '"compression_ratio"' "$DIR/inspect_v2.json"
grep -q '"decode_us"' "$DIR/inspect_v2.json"

echo "== compressed inference is byte-identical to the raw image"
"$MIXQ" run "$DIR/plain.img" --input synthetic:8 --seed 7 --ndjson \
  > "$DIR/run_plain.ndjson"
"$MIXQ" run "$DIR/packed.img" --input synthetic:8 --seed 7 --ndjson \
  > "$DIR/run_packed.ndjson"
cmp "$DIR/run_plain.ndjson" "$DIR/run_packed.ndjson"

echo "== run --mmap (zero-copy load): still byte-identical"
"$MIXQ" run "$DIR/packed.img" --input synthetic:8 --seed 7 --ndjson --mmap \
  > "$DIR/run_mmap.ndjson"
cmp "$DIR/run_plain.ndjson" "$DIR/run_mmap.ndjson"
"$MIXQ" run "$DIR/plain.img" --input synthetic:8 --seed 7 --ndjson --mmap \
  > "$DIR/run_mmap_v1.ndjson"
cmp "$DIR/run_plain.ndjson" "$DIR/run_mmap_v1.ndjson"

echo "== serve (stdio daemon): responses must be byte-identical to run"
"$MIXQ" serve "$DIR/model.img" --max-batch 4 --max-wait-us 500 --quiet \
  < "$DIR/requests.ndjson" > "$DIR/serve.ndjson"
cmp "$DIR/run.ndjson" "$DIR/serve.ndjson"

echo "== serve with a different batching config: still byte-identical"
"$MIXQ" serve "$DIR/model.img" --max-batch 1 --max-wait-us 0 --threads 2 \
  --quiet < "$DIR/requests.ndjson" > "$DIR/serve_b1.ndjson"
cmp "$DIR/run.ndjson" "$DIR/serve_b1.ndjson"

echo "== serve handles protocol garbage without dying"
{
  echo 'this is not json'
  echo '{"id":0}'
  head -n 1 "$DIR/requests.ndjson"
  echo '{"cmd":"stats"}'
  echo '{"cmd":"shutdown"}'
} | "$MIXQ" serve "$DIR/model.img" --quiet > "$DIR/serve_err.ndjson"
grep -c '"error"' "$DIR/serve_err.ndjson" | grep -qx 2
head -n 1 "$DIR/run.ndjson" | cmp - <(grep '"predicted"' "$DIR/serve_err.ndjson")
grep -q '"stats"' "$DIR/serve_err.ndjson"
grep -q '"ok":"shutdown"' "$DIR/serve_err.ndjson"

# Wait for background server $1 (log file $2) to exit and return its exit
# status, but for at most 30 s after its stop signal (a shutdown line or a
# SIGTERM). A server still running then has hung: print its signal state,
# each thread's kernel wait channel and its log tail, SIGKILL it and fail.
wait_server() {
  local pid="$1" log="$2" state
  for _ in $(seq 1 300); do
    # `ps` reports a zombie as Z: exited, not yet reaped by `wait`.
    state=$(ps -o stat= -p "$pid" 2>/dev/null || true)
    case "$state" in "" | Z*) break ;; esac
    sleep 0.1
  done
  case "$state" in
    "" | Z*) wait "$pid"; return ;;
  esac
  echo "cli_smoke.sh: server $pid still running 30 s after its stop signal" >&2
  grep '^Sig\|^ShdPnd' "/proc/$pid/status" >&2 || true
  for task in /proc/"$pid"/task/*; do
    [ -d "$task" ] || continue
    echo "  thread ${task##*/} $(cat "$task/comm" 2>/dev/null):" \
      "wchan=$(cat "$task/wchan" 2>/dev/null)" >&2
  done
  echo "--- last lines of $log" >&2
  tail -n 20 "$log" >&2 || true
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  return 1
}

if command -v python3 >/dev/null 2>&1; then
  echo "== serve --tcp (epoll front-end): round trip byte-identical to run"
  "$MIXQ" serve "$DIR/model.img" --tcp 0 --max-batch 4 --max-wait-us 500 \
    2> "$DIR/tcp1.log" &
  SRV=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*listening on tcp 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$DIR/tcp1.log" | head -n 1)
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  test -n "$PORT"
  PY_RC=0
  python3 - "$PORT" "$DIR/requests.ndjson" "$DIR/tcp.ndjson" <<'PYEOF' || PY_RC=$?
import socket, sys
port, req_path, out_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
reqs = open(req_path, "rb").read().splitlines()
s = socket.create_connection(("127.0.0.1", port), timeout=30)
f = s.makefile("rwb")
for r in reqs:
    f.write(r + b"\n")
f.write(b'{"cmd":"shutdown"}\n')
f.flush()
with open(out_path, "wb") as out:
    for _ in reqs:
        line = f.readline()
        assert b'"predicted"' in line, line
        out.write(line)
ack = f.readline()
assert ack.rstrip() == b'{"ok":"shutdown"}', ack
assert f.readline() == b""  # clean close after the drain
s.close()
PYEOF
  if [ "$PY_RC" -ne 0 ]; then
    kill "$SRV" 2>/dev/null || true
    wait_server "$SRV" "$DIR/tcp1.log" || true
    exit "$PY_RC"
  fi
  wait_server "$SRV" "$DIR/tcp1.log"
  cmp "$DIR/run.ndjson" "$DIR/tcp.ndjson"

  echo "== serve --tcp: SIGTERM mid-stream drains admitted work, exit 0"
  "$MIXQ" serve "$DIR/model.img" --tcp 0 --max-batch 4 --max-wait-us 500 \
    2> "$DIR/tcp2.log" &
  SRV=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*listening on tcp 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$DIR/tcp2.log" | head -n 1)
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  test -n "$PORT"
  PY_RC=0
  python3 - "$PORT" "$SRV" "$DIR/requests.ndjson" "$DIR/tcp_term.ndjson" \
    <<'PYEOF' || PY_RC=$?
import os, signal, socket, sys
port, srv_pid = int(sys.argv[1]), int(sys.argv[2])
req_path, out_path = sys.argv[3], sys.argv[4]
reqs = open(req_path, "rb").read().splitlines()
s = socket.create_connection(("127.0.0.1", port), timeout=30)
f = s.makefile("rwb")
for r in reqs:
    f.write(r + b"\n")
f.write(b'{"cmd":"stats"}\n')
f.flush()
# Responses may interleave with the stats line (the batch worker races
# the loop's read of the final TCP segment), so classify as they arrive.
responses = []
while True:
    line = f.readline()
    assert line, "connection closed before the stats response"
    if b'"stats"' in line:
        # Proves every request line sent before it was admitted.
        assert b'"requests":%d' % len(reqs) in line, line
        break
    assert b'"predicted"' in line, line
    responses.append(line)
os.kill(srv_pid, signal.SIGTERM)  # drain NOW, with work still in flight
while len(responses) < len(reqs):
    line = f.readline()
    assert b'"predicted"' in line, line or b"<dropped by drain>"
    responses.append(line)
assert f.readline() == b""  # server closed the connection after flushing
s.close()
with open(out_path, "wb") as out:
    out.writelines(responses)
PYEOF
  if [ "$PY_RC" -ne 0 ]; then
    kill "$SRV" 2>/dev/null || true
    wait_server "$SRV" "$DIR/tcp2.log" || true
    exit "$PY_RC"
  fi
  wait_server "$SRV" "$DIR/tcp2.log"
  cmp "$DIR/run.ndjson" "$DIR/tcp_term.ndjson"

  echo "== serve --socket (unix socket, epoll loop): byte-identical to run"
  SOCK="$DIR/serve.sock"
  "$MIXQ" serve "$DIR/model.img" --socket "$SOCK" --max-batch 4 \
    --max-wait-us 500 2> "$DIR/unix.log" &
  SRV=$!
  for _ in $(seq 1 100); do
    grep -qF "listening on unix $SOCK" "$DIR/unix.log" && break
    sleep 0.1
  done
  grep -qF "listening on unix $SOCK" "$DIR/unix.log"
  PY_RC=0
  python3 - "$SOCK" "$DIR/requests.ndjson" "$DIR/unix.ndjson" <<'PYEOF' || PY_RC=$?
import socket, sys
path, req_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
reqs = open(req_path, "rb").read().splitlines()[:4]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(30)
s.connect(path)
f = s.makefile("rwb")
for r in reqs:
    f.write(r + b"\n")
f.flush()
with open(out_path, "wb") as out:
    for _ in reqs:
        line = f.readline()
        assert b'"predicted"' in line, line
        out.write(line)
f.write(b'{"cmd":"shutdown"}\n')
f.flush()
ack = f.readline()
assert ack == b'{"ok":"shutdown"}\n', ack
s.close()
PYEOF
  if [ "$PY_RC" -ne 0 ]; then
    kill "$SRV" 2>/dev/null || true
    wait_server "$SRV" "$DIR/unix.log" || true
    exit "$PY_RC"
  fi
  wait_server "$SRV" "$DIR/unix.log"  # exit status 0, or set -e fails the smoke
  head -n 4 "$DIR/run.ndjson" | cmp - "$DIR/unix.ndjson"
  test ! -e "$SOCK"  # the drained daemon removed its socket file
else
  echo "== serve --tcp/--socket smoke skipped: python3 not available"
fi

echo "== train a second model (different seed) for the hot-swap round trip"
"$MIXQ" quantize --out "$DIR/model_b.img" \
  --hw 8 --channels 8 --blocks 2 --classes 4 \
  --wbits 4 --abits 4 --scheme pc-icn \
  --epochs 1 --train-size 96 --test-size 48 --seed 2 --quiet
"$MIXQ" run "$DIR/model_b.img" --input synthetic:8 --seed 7 --ndjson \
  > "$DIR/run_b.ndjson"
# The whole hot-swap check rests on A and B being distinguishable.
if cmp -s "$DIR/run.ndjson" "$DIR/run_b.ndjson"; then
  echo "cli_smoke.sh: seed 1 and seed 2 models answer identically?!" >&2
  exit 1
fi

echo "== serve: hot-swap reload mid-stream (A answers, swap, B answers)"
# Requests admitted before the reload line are pinned to the old
# generation; everything after routes to the new one. The reload ack may
# interleave with in-flight responses, so classify by line kind.
{
  head -n 4 "$DIR/requests.ndjson"
  echo "{\"cmd\":\"reload\",\"model\":\"default\",\"path\":\"$DIR/model_b.img\"}"
  tail -n 4 "$DIR/requests.ndjson"
  echo '{"cmd":"health"}'
  echo '{"cmd":"shutdown"}'
} | "$MIXQ" serve "$DIR/model.img" --max-batch 4 --max-wait-us 500 --quiet \
  > "$DIR/hotswap.ndjson"
grep '"predicted"' "$DIR/hotswap.ndjson" > "$DIR/hotswap_results.ndjson"
{ head -n 4 "$DIR/run.ndjson"; tail -n 4 "$DIR/run_b.ndjson"; } \
  | cmp - "$DIR/hotswap_results.ndjson"
grep -q '"ok":"reload".*"generation":2' "$DIR/hotswap.ndjson"
grep -q '"health":{"status":"ok"' "$DIR/hotswap.ndjson"
grep -q '"reloads_ok":1' "$DIR/hotswap.ndjson"

echo "== serve: a hostile replacement image is refused and A keeps serving"
CORPUS="$(cd "$(dirname "$0")/.." && pwd)/tests/corpus/flash"
if [ -f "$CORPUS/bad_crc.img" ]; then
  BAD="$CORPUS/bad_crc.img"
else
  head -c 1200 "$DIR/model.img" > "$DIR/bad.img"  # torn copy
  BAD="$DIR/bad.img"
fi
{
  echo "{\"cmd\":\"reload\",\"model\":\"default\",\"path\":\"$BAD\"}"
  head -n 1 "$DIR/requests.ndjson"
  echo '{"cmd":"shutdown"}'
} | "$MIXQ" serve "$DIR/model.img" --quiet > "$DIR/badswap.ndjson"
grep -q '"code":"reload_failed"' "$DIR/badswap.ndjson"
head -n 1 "$DIR/run.ndjson" | cmp - <(grep '"predicted"' "$DIR/badswap.ndjson")

echo "== serve --model: named multi-model routing (and not_found)"
{
  head -n 1 "$DIR/requests.ndjson"
  head -n 1 "$DIR/requests.ndjson" | sed 's/{"id":0,/{"id":0,"model":"b",/'
  head -n 1 "$DIR/requests.ndjson" | sed 's/{"id":0,/{"id":0,"model":"nope",/'
  echo '{"cmd":"shutdown"}'
} | "$MIXQ" serve --model a="$DIR/model.img" --model b="$DIR/model_b.img" \
  --quiet > "$DIR/multi.ndjson"
grep '"predicted"' "$DIR/multi.ndjson" \
  | cmp - <(head -n 1 "$DIR/run.ndjson"; head -n 1 "$DIR/run_b.ndjson")
grep -q '"code":"not_found"' "$DIR/multi.ndjson"

echo "== CSV inputs round-trip through run (2 samples of 8*8*3 floats)"
awk 'BEGIN { for (i = 0; i < 2; i++) { line = ""; for (j = 0; j < 192; j++) line = line (j ? "," : "") ((i * 192 + j) % 7 / 7.0); print line } }' \
  > "$DIR/inputs.csv"
"$MIXQ" run "$DIR/model.img" --input "csv:$DIR/inputs.csv" --ndjson \
  > "$DIR/run_csv.ndjson"
test "$(wc -l < "$DIR/run_csv.ndjson")" = 2

echo "cli smoke: OK"
