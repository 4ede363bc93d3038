"""Tests of the benchmark's own parts: the percentile helper, the seeded
schedule, the workload generator and the result line.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The generator test needs a built
perfbench_tool (any run of run.py builds one into .bench_build/ or
$CARGO_TARGET_DIR) and is skipped when there is none.
"""

import filecmp
import json
import os
import re
import subprocess
import tempfile
import unittest

import loadgen
import metrics
import run


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(metrics.percentile(range(1, 101), 99), 99.01)
        self.assertEqual(metrics.percentile([7.5], 99), 7.5)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_pair_median_ignores_alternation(self):
        # Two formats, 10 and 30 ms, in either order and with an odd tail.
        self.assertEqual(metrics.pair_median([10, 30] * 4), 20)
        self.assertEqual(metrics.pair_median([30, 10, 10, 30, 11]), 20)
        self.assertEqual(metrics.pair_median([10, 30, 12, 30, 10, 34]), 21)

    def test_samples_beyond_p99(self):
        self.assertEqual(metrics.beyond(range(1, 1001), 99), 10)
        self.assertTrue(metrics.tail_supported(range(1, 1001), 99))
        self.assertEqual(metrics.beyond(range(1, 501), 99), 5)
        self.assertFalse(metrics.tail_supported(range(1, 501), 99))
        # Ties at the top are not beyond the percentile they define.
        self.assertFalse(metrics.tail_supported([3.0] * 5000, 99))
        self.assertFalse(metrics.tail_supported([], 99))


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = loadgen.poisson_schedule(7, 42.0, 500, 32)
        self.assertEqual(a, loadgen.poisson_schedule(7, 42.0, 500, 32))
        self.assertNotEqual(a, loadgen.poisson_schedule(8, 42.0, 500, 32))

    def test_rate_and_samples(self):
        rate, count = 50.0, 20000
        sched = loadgen.poisson_schedule(3, rate, count, 32)
        self.assertEqual(len(sched), count)
        dues = [due for due, _ in sched]
        self.assertEqual(dues, sorted(dues))
        self.assertAlmostEqual(count / dues[-1], rate, delta=rate * 0.03)
        self.assertEqual({sample for _, sample in sched}, set(range(32)))

    def test_blocks_keep_every_arrival_and_gap(self):
        sched = loadgen.poisson_schedule(5, 35.0, 1012, 32)
        blocks = loadgen.split_schedule(sched, 8)
        self.assertEqual(len(blocks), 8)
        self.assertEqual(sum(len(b) for b in blocks), len(sched))
        # Laid end to end, the blocks give back the schedule.
        joined, base = [], 0.0
        for b in blocks:
            joined += [(base + due, sample) for due, sample in b]
            base = joined[-1][0]
        for (due, sample), (want_due, want_sample) in zip(joined, sched):
            self.assertAlmostEqual(due, want_due, places=9)
            self.assertEqual(sample, want_sample)


class SpanSetTest(unittest.TestCase):
    def test_self_time_and_attribution(self):
        spans = metrics.SpanSet([
            {"name": "request", "t0": 0, "t1": 10_000_000, "parent": -1},
            {"name": "protocol.parse", "t0": 0, "t1": 6_000_000, "parent": 0},
            {"name": "registry.infer", "t0": 7_000_000, "t1": 9_000_000,
             "parent": 0},
        ])
        self.assertEqual(spans.mean_ms("request"), 10.0)
        self.assertEqual(spans.mean_self_ms("request"), 2.0)
        self.assertEqual(spans.mean_children_ms("request"), 8.0)
        self.assertEqual(spans.mean_self_ms("protocol.parse"), 6.0)


@unittest.skipUnless(os.path.isfile(os.path.join(run.build_dir(),
                                                 "perfbench_tool")),
                     "perfbench_tool is not built")
class GeneratorTest(unittest.TestCase):
    """Same flags, byte-identical images, manifests and inputs."""

    TOOL = os.path.join(run.build_dir(), "perfbench_tool")

    def gen(self, out, input_seed):
        subprocess.run([self.TOOL, "gen-model", "--name", "m",
                        "--resolution", "32", "--width", "0.25",
                        "--classes", "10", "--seed", "5", "--calib", "1",
                        "--out", out], check=True)
        subprocess.run([self.TOOL, "gen-inputs", "--image",
                        os.path.join(out, "m.v2.img"), "--count", "3",
                        "--seed", str(input_seed), "--out",
                        os.path.join(out, "m")], check=True)

    def test_deterministic(self):
        files = ["m.v1.img", "m.v2.img", "m.model.json", "m.requests",
                 "m.expected"]
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b, \
                tempfile.TemporaryDirectory() as c:
            self.gen(a, 11)
            self.gen(b, 11)
            self.gen(c, 12)
            for name in files:
                self.assertTrue(filecmp.cmp(os.path.join(a, name),
                                            os.path.join(b, name),
                                            shallow=False), name)
            self.assertFalse(filecmp.cmp(os.path.join(a, "m.requests"),
                                         os.path.join(c, "m.requests"),
                                         shallow=False))
            with open(os.path.join(a, "m.model.json")) as f:
                manifest = json.load(f)
        for key in ("act_cuts", "weight_cuts", "ro_bytes", "rw_peak_bytes",
                    "huffman_layers"):
            self.assertIn(key, manifest)
        for layer in manifest["layers"]:
            for key in ("qx", "qw", "qy", "tier", "codec"):
                self.assertIn(key, layer)


class ResultLineTest(unittest.TestCase):
    """The benchmark's definition and its output agree."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_definition_within_limits(self):
        spec = run.SPEC
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200, w["name"])

    def check(self, trace, group):
        spec = run.SPEC[group]
        values = {m["name"]: 1.5 for m in spec}
        out = json.loads(run.result_line(trace, 12, 0, values))
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(out["correct"], True)
        self.assertEqual((out["attempted"], out["failed"]), (12, 0))
        self.assertEqual(out["metrics"],
                         {m["name"]: {"value": 1.5, "unit": m["unit"]}
                          for m in spec})

    def test_untraced_line_carries_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_line_carries_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(KeyError):
            run.result_line(0, 1, 0, {"setup_s": 1.0})


if __name__ == "__main__":
    unittest.main()
