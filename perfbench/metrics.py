"""Sample statistics and span reduction for run.py.

Percentiles use linear interpolation between closest ranks (the "linear"
method of numpy.percentile), so a percentile of n samples is defined for
every n >= 1.
"""

import math


def percentile(samples, p):
    """The p-th percentile (0 <= p <= 100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    s = sorted(samples)
    rank = (len(s) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def beyond(samples, p):
    """How many samples lie strictly above the p-th percentile."""
    cut = percentile(samples, p)
    return sum(1 for x in samples if x > cut)


def tail_supported(samples, p, need=10):
    """True when at least `need` samples lie beyond the p-th percentile,
    the rule for reporting that percentile at all."""
    return len(samples) > 0 and beyond(samples, p) >= need


def median(samples):
    return percentile(samples, 50)


def pair_median(samples):
    """Median of the means of consecutive pairs (s0, s1), (s2, s3), ...
    Reloads alternate between two image formats whose loaders differ in
    cost; a plain median of such samples jumps from one format's values to
    the other's, a median over pairs does not."""
    return median([(a + b) / 2 for a, b in zip(samples[0::2], samples[1::2])])


def mean(samples):
    return sum(samples) / len(samples) if samples else 0.0


class SpanSet:
    """Spans of one traced run, as written by `perfbench_tool trace`: one
    JSON object per span (name, t0/t1 in ns, parent index, request id,
    value). Each span gains `self_ns`, its time not covered by children."""

    def __init__(self, spans):
        self.spans = spans
        covered = [0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                covered[s["parent"]] += s["t1"] - s["t0"]
        for s, c in zip(spans, covered):
            s["self_ns"] = (s["t1"] - s["t0"]) - c

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def mean_ms(self, name):
        """Mean duration of the spans called `name`, in ms."""
        return mean([s["t1"] - s["t0"] for s in self.named(name)]) / 1e6

    def mean_self_ms(self, name):
        """Mean self time of the spans called `name`, in ms."""
        return mean([s["self_ns"] for s in self.named(name)]) / 1e6

    def mean_children_ms(self, name):
        """Mean time the children of the spans called `name` cover, in ms."""
        return mean([s["t1"] - s["t0"] - s["self_ns"]
                     for s in self.named(name)]) / 1e6

    def total_self_ms(self, name):
        """Summed self time of the spans called `name`, in ms."""
        return sum(s["self_ns"] for s in self.named(name)) / 1e6

    def rate(self, name, scale):
        """Sum of `value` over total self time (in s), times `scale`."""
        spans = self.named(name)
        ns = sum(s["self_ns"] for s in spans)
        return sum(s["value"] for s in spans) * scale / (ns / 1e9) if ns else 0.0
