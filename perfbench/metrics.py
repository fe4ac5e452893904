"""Arithmetic of the repository benchmark: from the raw samples that
crowder_perfbench prints to the metrics run.py reports.

Pure functions only, so perfbench/tests/test_metrics.py can check every rule
without building the program.
"""

import math
import statistics
from fractions import Fraction

# Percentiles a latency tail is reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

# Every ratio the benchmark prints, with the two metrics it is computed from.
# Both bases are printed beside the ratio.
RATIOS = {
    "similarity.verify_yield": ("similarity.candidate_pairs", "similarity.pair_verifications"),
    "exec.join_parallel_speedup": ("similarity.serial_join_s", "similarity.join_s"),
    "hitgen.pairs_per_hit": ("similarity.candidate_pairs", "hitgen.hits"),
    "shard.cpu_max_over_min": ("shard.worker_cpu_max_s", "shard.worker_cpu_min_s"),
    "shard.replicas_per_owned": ("shard.replica_records", "shard.owned_records"),
    "trace.covered_share": ("trace.covered_s", "trace.repetition_s"),
    "error_rate": ("failed", "attempted"),
}

# Spans whose self time (summed within one traced repetition) is a metric.
SPAN_METRICS = {
    "driver.Start": "core.driver_start_s",
    "driver.Step": "core.driver_step_s",
    "crowd.Post": "crowd.post_s",
    "crowd.Poll": "crowd.poll_s",
    "core.resolve": "core.resolve_s",
}


def median(values):
    """Median of a non-empty sample list."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def ratio(numerator, denominator):
    """numerator / denominator, or 0.0 when the base is zero (the layer did
    not run on this workload)."""
    return numerator / denominator if denominator else 0.0


def rate(count, seconds):
    """Work per second: `count` items over `seconds` of wall time."""
    if seconds <= 0:
        raise ValueError("rate over a non-positive time")
    return count / seconds


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule: the value at rank
    ceil(p/100 * n) (1-based) of the ascending samples."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(n, p) - 1]


def _rank(n, p):
    # Exact decimal arithmetic: 99.9 / 100 * 1000 is 999.0000000000001 in
    # binary floating point, which would round the rank up past 999.
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n, p):
    """How many of n samples rank strictly above the p-th percentile."""
    return n - _rank(n, p)


def highest_percentile(n):
    """The highest ladder percentile with at least MIN_SAMPLES_BEYOND samples
    beyond it, or None when even the median has too few."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def percentile(samples, p):
    """The p-th percentile, refusing one with fewer than MIN_SAMPLES_BEYOND
    samples beyond it (such a tail is one unlucky sample, not a percentile)."""
    n = len(samples)
    if samples_beyond(n, p) < MIN_SAMPLES_BEYOND:
        raise ValueError(
            "p%g needs %d samples beyond it; %d samples give %d"
            % (p, MIN_SAMPLES_BEYOND, n, samples_beyond(n, p)))
    return nearest_rank(sorted(samples), p)


def latency_summary(samples):
    """p50, p99 and the highest reportable percentile, with the sample count."""
    ordered = sorted(samples)
    top = highest_percentile(len(ordered))
    return {
        "count": len(ordered),
        "p50": percentile(ordered, 50.0),
        "p99": percentile(ordered, 99.0),
        "top_percentile": top,
        "top_value": nearest_rank(ordered, top) if top is not None else None,
    }


def digest_failures(reps, reference):
    """Finished repetitions whose output digest differs from `reference`.
    (A repetition that did not finish is already a failed operation.)"""
    return sum(1 for r in reps if r["status"] == "OK" and r["digest"] != reference)


def account(raw):
    """(attempted, failed) over everything one invocation did: the program's
    own operations (repetitions, inserts, queries, reference checks) plus one
    output comparison per repetition against the first finished one. A non-OK
    status, an output mismatch and a query error each count once."""
    reps = raw["reps"]
    finished = [r["digest"] for r in reps if r["status"] == "OK"]
    reference = finished[0] if finished else None
    attempted = raw["attempted"] + len(reps)
    failed = raw["failed"] + digest_failures(reps, reference)
    return attempted, failed


def self_times(events):
    """Self time (seconds) per span: its duration minus the part of that
    interval its child spans cover. `events` are Chrome trace events whose
    args carry the span id and its parent's id. Children never overlap one
    another (spans of one thread nest), so the covered part is the sum of the
    children's durations, clipped to the parent."""
    by_id = {e["args"]["id"]: e for e in events}
    covered = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent in by_id:
            covered[parent] = covered.get(parent, 0.0) + e["dur"]
    out = {}
    for span_id, e in by_id.items():
        out[span_id] = max(0.0, e["dur"] - covered.get(span_id, 0.0)) / 1e6
    return out


def span_metrics(events):
    """Per traced repetition (trace `run`): self time summed by span name,
    plus the repetition's wall time and its uncovered remainder. Returns
    {run: {name: seconds}}; the root span is reported as `repetition`
    (duration) and `repetition.self` (the remainder no child span covers)."""
    selfs = self_times(events)
    runs = {}
    for e in events:
        run = runs.setdefault(e["args"]["run"], {})
        seconds = selfs[e["args"]["id"]]
        if e["name"] == "repetition":
            run["repetition"] = run.get("repetition", 0.0) + e["dur"] / 1e6
            run["repetition.self"] = run.get("repetition.self", 0.0) + seconds
        else:
            run[e["name"]] = run.get(e["name"], 0.0) + seconds
    return runs
