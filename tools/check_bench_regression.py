#!/usr/bin/env python3
"""Perf-regression gate for the tracked runtime benchmark.

Diffs a freshly measured BENCH_runtime.json against the committed baseline:

  * HARD FAIL (exit 1) on semantic drift -- a changed workload string, a
    changed total or per-layer static MAC count, a changed layer
    structure, a layer that the baseline ran on a kernel tier (vnni,
    s8-panel, u8s16) falling back to the scalar int64 loops (tier "-"),
    or one that the baseline requantized with its vector table falling to
    the scalar epilogue ("requant": "vector" -> "scalar"). Both decisions
    are proofs over the layer's widths and parameters alone, so they fail
    on any host; both are perf cliffs the timing noise could mask. These
    are correctness/accounting regressions: the benchmark must keep
    measuring the same work the same way.
    (Bit-exactness failures already hard-fail earlier: bench_runtime exits
    non-zero on them.)
  * WARN ONLY on timing -- CI runners are too noisy for wall-clock hard
    gates. A planned-path slowdown beyond --warn-pct emits a GitHub
    ::warning annotation and a table, but exits 0; so does any layer whose
    macs_per_ns fell by more than --warn-pct (named by index, kind and
    tier, so the warning points at the row that moved). The batch-throughput
    sweep's thread-scaling comparison is skipped entirely (not warned)
    when either measurement is flagged "limited_by_host": a 1-vCPU runner
    cannot demonstrate scaling, and warning about it is noise.

With --serve, additionally (or instead) validates a BENCH_serve.json
produced by bench_serve: the epoll saturation sweep must be present with
its full schema (shed counts, shed_rate, p50/p99/p999), every point must
carry exact=true (bit-exactness under overload), and the per-point
accounting must balance (sent == ok + shed + timeouts -- an unbalanced
row means a request was silently dropped). A "reload" section (from
bench_serve --reload-sweep) is gated the same way when present: zero
lost requests, exact=true under continuous hot-swap, every reload
acknowledged and landed; its p99 impact is warn-only like all timing.
These are HARD gates: unlike wall-clock timing they are load-bearing
correctness claims.

With --image, additionally (or instead) validates a BENCH_image.json
produced by bench_image: the schema must be complete, decode_bit_exact
must be true (compressed and mmap loads reproduce the raw image's weight
codes and logits exactly), and the whole-image compression ratio must
hold the floor (--min-ratio, default 1.25) -- the entropy coder earning
its place in the format is a tracked claim, not a hope. Load times are
warn-only: a compressed-mmap cold start slower than the raw streaming
load gets a ::warning, never a failure.

Every input that git tracks is a committed baseline and must record clean
provenance (git_dirty: false): numbers measured from a dirty tree are not
attributable to any revision, so such a baseline HARD FAILS. Fresh runs
outside the repository are not checked.

usage: check_bench_regression.py BASELINE FRESH [--warn-pct 30]
       check_bench_regression.py [BASELINE FRESH] --serve BENCH_serve.json
       check_bench_regression.py [BASELINE FRESH] --image BENCH_image.json
"""

import argparse
import json
import os
import subprocess
import sys


def fail(msg: str) -> None:
    print(f"::error::perf-regression: {msg}")
    sys.exit(1)


def load(path: str) -> dict:
    """Reads a bench JSON; a committed one must carry clean provenance."""
    with open(path) as f:
        doc = json.load(f)
    try:
        tracked = subprocess.run(
            ["git", "ls-files", "--error-unmatch", "--",
             os.path.basename(path)],
            cwd=os.path.dirname(os.path.abspath(path)),
            capture_output=True).returncode == 0
    except OSError:  # no git: nothing here can be a committed baseline
        tracked = False
    if tracked and doc.get("git_dirty") is not False:
        fail(f"{path}: committed baseline records git="
             f"{doc.get('git', '?')!r} git_dirty={doc.get('git_dirty')}; "
             f"numbers from a dirty (or unrecorded) tree are not "
             f"attributable -- re-measure from a clean checkout of the code "
             f"commit and commit the refresh")
    return doc


def check_serve(path: str) -> None:
    """Hard-gate the bench_serve saturation section's schema + invariants."""
    serve = load(path)
    sat = serve.get("saturation")
    if not isinstance(sat, list) or not sat:
        fail(f"{path}: missing or empty \"saturation\" section -- the "
             f"epoll front-end sweep did not run")
    required = ("conns", "sent", "ok", "shed", "timeouts", "shed_rate",
                "p50_us", "p99_us", "p999_us", "samples_per_s", "exact")
    any_shed = False
    for i, pt in enumerate(sat):
        missing = [k for k in required if k not in pt]
        if missing:
            fail(f"{path}: saturation[{i}] is missing fields: "
                 f"{', '.join(missing)}")
        if pt["exact"] is not True:
            fail(f"{path}: saturation[{i}] (conns={pt['conns']}) reports "
                 f"exact={pt['exact']}: served responses diverged from the "
                 f"serial planned path under load")
        answered = pt["ok"] + pt["shed"] + pt["timeouts"]
        if answered != pt["sent"]:
            fail(f"{path}: saturation[{i}] (conns={pt['conns']}) accounting "
                 f"does not balance: sent={pt['sent']} but "
                 f"ok+shed+timeouts={answered} -- a request was silently "
                 f"dropped")
        if not 0.0 <= pt["shed_rate"] <= 1.0:
            fail(f"{path}: saturation[{i}] shed_rate={pt['shed_rate']} "
                 f"outside [0, 1]")
        if pt["ok"] > 0 and not (0.0 <= pt["p50_us"] <= pt["p99_us"]
                                 <= pt["p999_us"]):
            fail(f"{path}: saturation[{i}] latency percentiles are not "
                 f"monotone: p50={pt['p50_us']} p99={pt['p99_us']} "
                 f"p999={pt['p999_us']}")
        any_shed = any_shed or pt["shed"] > 0
    if not any_shed:
        print("::warning::saturation sweep never shed a request; the "
              "queue-depth setting no longer saturates this host and the "
              "overload path went unexercised")
    conns = ", ".join(str(pt["conns"]) for pt in sat)
    print(f"serve saturation schema ok: {len(sat)} points (conns {conns}), "
          f"accounting balanced, exact=true throughout")

    reload = serve.get("reload")
    if reload is None:
        print("::warning::no \"reload\" section in the serve JSON; run "
              "bench_serve with --reload-sweep to gate hot-swap behavior")
        return
    required = ("requests", "reloads_attempted", "reloads_ok", "lost",
                "exact", "baseline", "hot_swap", "p99_delta_pct")
    missing = [k for k in required if k not in reload]
    if missing:
        fail(f"{path}: reload section is missing fields: "
             f"{', '.join(missing)}")
    for pass_name in ("baseline", "hot_swap"):
        sub = reload[pass_name]
        sub_missing = [k for k in ("p50_us", "p99_us", "samples_per_s")
                       if k not in sub]
        if sub_missing:
            fail(f"{path}: reload.{pass_name} is missing fields: "
                 f"{', '.join(sub_missing)}")
        if not 0.0 <= sub["p50_us"] <= sub["p99_us"]:
            fail(f"{path}: reload.{pass_name} percentiles are not monotone: "
                 f"p50={sub['p50_us']} p99={sub['p99_us']}")
    if reload["exact"] is not True:
        fail(f"{path}: reload sweep reports exact={reload['exact']}: a "
             f"response diverged from the serial planned path while the "
             f"model was being hot-swapped")
    if reload["lost"] != 0:
        fail(f"{path}: reload sweep lost {reload['lost']} requests -- a "
             f"hot swap dropped admitted work")
    if reload["reloads_attempted"] < 1:
        fail(f"{path}: reload sweep performed no reloads; the hot-swap "
             f"path went unexercised")
    if reload["reloads_ok"] != reload["reloads_attempted"]:
        fail(f"{path}: only {reload['reloads_ok']} of "
             f"{reload['reloads_attempted']} reloads landed (same-shape "
             f"good image: all must)")
    delta = reload["p99_delta_pct"]
    if delta > 100.0:
        print(f"::warning::hot-swap reloads inflate serving p99 by "
              f"{delta:.0f}% ({reload['baseline']['p99_us']:.0f} us -> "
              f"{reload['hot_swap']['p99_us']:.0f} us); timing is "
              f"warn-only, but the swap path may be contending with the "
              f"hot path")
    print(f"reload sweep ok: {reload['reloads_ok']} hot swaps under "
          f"{reload['requests']} requests, nothing lost, bit-exact, "
          f"p99 {reload['baseline']['p99_us']:.0f} -> "
          f"{reload['hot_swap']['p99_us']:.0f} us ({delta:+.0f}%)")


def check_image(path: str, min_ratio: float) -> None:
    """Hard-gate a bench_image JSON: schema, bit-exactness, ratio floor."""
    img = load(path)
    required = ("workload", "format_version", "image_bytes_raw",
                "image_bytes_compressed", "compression_ratio",
                "weight_raw_bytes", "weight_stored_bytes", "coded_layers",
                "total_layers", "decode_bit_exact", "load_ms", "layers")
    missing = [k for k in required if k not in img]
    if missing:
        fail(f"{path}: missing fields: {', '.join(missing)}")
    load_keys = ("raw_stream", "compressed_stream", "raw_mmap",
                 "compressed_mmap", "cold_start_plan_stream",
                 "cold_start_plan_mmap")
    missing = [k for k in load_keys if k not in img["load_ms"]]
    if missing:
        fail(f"{path}: load_ms is missing fields: {', '.join(missing)}")
    if img["decode_bit_exact"] is not True:
        fail(f"{path}: decode_bit_exact={img['decode_bit_exact']}: the "
             f"compressed or mmap load path no longer reproduces the raw "
             f"image")
    ratio = img["compression_ratio"]
    if ratio < min_ratio:
        fail(f"{path}: compression ratio {ratio:.3f} fell below the "
             f"{min_ratio:.2f} floor on the tracked workload -- the "
             f"entropy coder regressed (raw {img['image_bytes_raw']} B, "
             f"compressed {img['image_bytes_compressed']} B)")
    # Cross-check the ratio against the byte counts it claims to summarize.
    derived = img["image_bytes_raw"] / max(1, img["image_bytes_compressed"])
    if abs(derived - ratio) > 0.01:
        fail(f"{path}: compression_ratio {ratio:.3f} does not match "
             f"image_bytes_raw/image_bytes_compressed = {derived:.3f}")
    if img["coded_layers"] < 1:
        fail(f"{path}: no layer chose the huffman codec on the tracked "
             f"workload; the per-layer selection logic regressed")
    stored = sum(l["stored_bytes"] for l in img["layers"])
    if stored != img["weight_stored_bytes"]:
        fail(f"{path}: per-layer stored_bytes sum {stored} != "
             f"weight_stored_bytes {img['weight_stored_bytes']}")
    # --- load times: warn-only, CI wall clocks are noisy -----------------
    lm = img["load_ms"]
    if lm["compressed_mmap"] > 2.0 * max(1e-9, lm["raw_stream"]):
        print(f"::warning::compressed-mmap cold start "
              f"({lm['compressed_mmap']:.2f} ms) is more than 2x the raw "
              f"streaming load ({lm['raw_stream']:.2f} ms); the zero-copy "
              f"path stopped paying for itself (warn-only)")
    print(f"image bench ok: {ratio:.3f}x compression "
          f"({img['coded_layers']}/{img['total_layers']} layers huffman), "
          f"decode bit-exact, mmap cold start "
          f"{lm['cold_start_plan_mmap']:.2f} ms vs streaming "
          f"{lm['cold_start_plan_stream']:.2f} ms")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--warn-pct", type=float, default=30.0,
                    help="warn when planned_ns regresses more than this")
    ap.add_argument("--serve", metavar="BENCH_SERVE_JSON",
                    help="also hard-gate a bench_serve saturation JSON")
    ap.add_argument("--image", metavar="BENCH_IMAGE_JSON",
                    help="also hard-gate a bench_image flash-image JSON")
    ap.add_argument("--min-ratio", type=float, default=1.25,
                    help="--image: minimum whole-image compression ratio")
    args = ap.parse_args()

    if args.serve:
        check_serve(args.serve)
    if args.image:
        check_image(args.image, args.min_ratio)
    if args.baseline is None and args.fresh is None:
        if not (args.serve or args.image):
            ap.error("nothing to check: pass BASELINE FRESH and/or "
                     "--serve/--image")
        return
    if args.baseline is None or args.fresh is None:
        ap.error("BASELINE and FRESH must be given together")

    base = load(args.baseline)
    fresh = load(args.fresh)

    # --- hard gates: the benchmark must still measure the same work -----
    if base["workload"] != fresh["workload"]:
        fail(f"workload changed: {base['workload']!r} -> {fresh['workload']!r}")
    if base["total_macs"] != fresh["total_macs"]:
        fail(f"total MAC count drifted: {base['total_macs']} -> "
             f"{fresh['total_macs']}")
    base_layers = base["layers"]
    fresh_layers = fresh["layers"]
    if len(base_layers) != len(fresh_layers):
        fail(f"layer count drifted: {len(base_layers)} -> {len(fresh_layers)}")
    for i, (bl, fl) in enumerate(zip(base_layers, fresh_layers)):
        if bl["kind"] != fl["kind"]:
            fail(f"layer {i} kind drifted: {bl['kind']} -> {fl['kind']}")
        if bl["macs"] != fl["macs"]:
            fail(f"layer {i} ({bl['kind']}) MACs drifted: "
                 f"{bl['macs']} -> {fl['macs']}")
        # Fallback gate: a layer the baseline ran on any kernel tier must
        # not drop to the scalar int64 loops ("-"). A tier needs only the
        # acc32 proof, which is ISA-independent, so this fails on any host.
        bt, ft = bl.get("tier"), fl.get("tier")
        if bt in ("vnni", "s8-panel", "u8s16") and ft == "-":
            fail(f"layer {i} ({bl['kind']}) fell back from the {bt} tier to "
                 f"the int64 loops (tier -): the acc32 proof regressed")
        # Epilogue gate: a layer the baseline requantized through its vector
        # table must not fall to the scalar requantize(); the table's
        # exactness proof is ISA-independent too.
        if bl.get("requant") == "vector" and fl.get("requant") == "scalar":
            fail(f"layer {i} ({bl['kind']}) fell from the vector requant "
                 f"epilogue to the scalar one: the table's exactness proof "
                 f"regressed")
        # Kernel-tier gate: a layer the baseline ran on the VNNI tier must
        # not silently drop to a slower tier when the fresh host still
        # reports VNNI capability -- that is a plan-selection regression,
        # not timing noise. On a non-VNNI host the drop is the expected
        # capability fallback and only noted. The s8-panel -> u8s16 drop is
        # host-independent (the pair-sum proof is a function of the weights
        # alone), so it always fails.
        rank = {"vnni": 3, "s8-panel": 2, "u8s16": 1, "-": 0}
        if bt is not None and ft is not None and bt != ft:
            fresh_vnni_host = fresh.get("simd", {}).get("vnni_host", False)
            if bt == "vnni" and rank.get(ft, 0) < 3:
                if fresh_vnni_host:
                    fail(f"layer {i} ({bl['kind']}) silently dropped from "
                         f"the vnni tier to {ft} on a VNNI-capable host: "
                         f"the tier selection regressed")
                print(f"note: layer {i} ({bl['kind']}) runs {ft} instead of "
                      f"vnni (host lacks AVX-512 VNNI; expected fallback)")
            elif bt == "s8-panel" and ft == "u8s16":
                fail(f"layer {i} ({bl['kind']}) dropped from the s8-panel "
                     f"tier to u8s16: the pair-sum eligibility proof "
                     f"regressed")
            elif rank.get(ft, 0) > rank.get(bt, 0):
                print(f"note: layer {i} ({bl['kind']}) upgraded "
                      f"{bt} -> {ft}; commit the fresh baseline to lock it "
                      f"in")
    n_tiered = sum(1 for fl in fresh_layers if fl.get("tier", "-") != "-")
    n_vector = sum(1 for fl in fresh_layers if fl.get("requant") == "vector")
    print(f"MAC accounting unchanged: {fresh['total_macs']} MACs over "
          f"{len(fresh_layers)} layers ({n_tiered} on a kernel tier, "
          f"{n_vector} with the vector requant epilogue)")

    # --- timing: report, warn past threshold, never fail ----------------
    rows = []
    for key in ("reference_ns", "planned_ns"):
        b = base["end_to_end"][key]
        fr = fresh["end_to_end"][key]
        delta = (fr - b) / b * 100.0 if b else 0.0
        rows.append((key, b, fr, delta))
    print(f"{'path':<14} {'baseline ms':>12} {'fresh ms':>12} {'delta':>8}")
    for key, b, fr, delta in rows:
        print(f"{key:<14} {b / 1e6:>12.3f} {fr / 1e6:>12.3f} {delta:>+7.1f}%")
    print(f"baseline git: {base.get('git', '?')}  simd: "
          f"{base.get('simd', {}).get('active', '?')}")
    print(f"fresh git:    {fresh.get('git', '?')}  simd: "
          f"{fresh.get('simd', {}).get('active', '?')}")

    base_isa = base.get("simd", {}).get("active", "?")
    fresh_isa = fresh.get("simd", {}).get("active", "?")
    _, planned_base, planned_fresh, planned_delta = rows[-1]
    if base_isa != fresh_isa:
        print(f"timing comparison skipped: baseline ISA ({base_isa}) != "
              f"fresh ISA ({fresh_isa}); wall-clock numbers are not "
              f"comparable across kernel sets")
    elif planned_delta > args.warn_pct:
        print(f"::warning::planned path is {planned_delta:.1f}% slower than "
              f"the committed baseline ({planned_base / 1e6:.3f} ms -> "
              f"{planned_fresh / 1e6:.3f} ms); timing is warn-only, but take a "
              f"look if this persists across runs")
    else:
        print(f"planned-path timing within budget "
              f"({planned_delta:+.1f}% vs baseline, warn at "
              f"+{args.warn_pct:.0f}%)")

    # --- per-layer throughput: warn-only, names the row that moved ------
    if base_isa == fresh_isa:
        slowed = 0
        for i, (bl, fl) in enumerate(zip(base_layers, fresh_layers)):
            b, fr = bl.get("macs_per_ns", 0.0), fl.get("macs_per_ns", 0.0)
            if b <= 0 or (b - fr) / b * 100.0 <= args.warn_pct:
                continue
            slowed += 1
            bt, ft = bl.get("tier", "-"), fl.get("tier", "-")
            tier = bt if bt == ft else f"{bt} -> {ft}"
            print(f"::warning::layer {i} ({fl['kind']}, tier {tier}) fell "
                  f"from {b:.2f} to {fr:.2f} MACs/ns "
                  f"({(fr - b) / b * 100.0:+.1f}%, warn at "
                  f"-{args.warn_pct:.0f}%); timing is warn-only")
        if slowed == 0:
            print(f"per-layer MACs/ns within budget ({len(fresh_layers)} "
                  f"layers, warn at -{args.warn_pct:.0f}%)")

    # --- batch-throughput thread scaling: warn-only, host-aware --------
    base_bt = base.get("batch_throughput", {})
    fresh_bt = fresh.get("batch_throughput", {})
    if not base_bt.get("sweep") or not fresh_bt.get("sweep"):
        print("thread-scaling comparison skipped: no sweep data")
        return
    if base_bt.get("limited_by_host") or fresh_bt.get("limited_by_host"):
        print("thread-scaling comparison skipped: sweep flagged "
              "limited_by_host (single-vCPU runner cannot demonstrate "
              "multi-thread speedup)")
        return
    if base_isa != fresh_isa:
        print("thread-scaling comparison skipped: ISA mismatch")
        return
    base_by_t = {p["threads"]: p for p in base_bt["sweep"]}
    for pt in fresh_bt["sweep"]:
        bp = base_by_t.get(pt["threads"])
        if bp is None or pt["threads"] == 1:
            continue
        b_sp = bp.get("speedup_vs_1", 0.0)
        f_sp = pt.get("speedup_vs_1", 0.0)
        if b_sp > 0 and f_sp < 0.75 * b_sp:
            print(f"::warning::infer_batch at {pt['threads']} threads scales "
                  f"{f_sp:.2f}x vs baseline {b_sp:.2f}x; timing is "
                  f"warn-only, but take a look if this persists")
        else:
            print(f"thread scaling at {pt['threads']} threads: "
                  f"{f_sp:.2f}x (baseline {b_sp:.2f}x)")


if __name__ == "__main__":
    main()
