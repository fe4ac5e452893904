#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, every metric by
name with its unit, and a check of every workload's output.

    python3 perfbench/run.py --workload batch-sparse --seed 1 --seconds 15 --trace 0

Run from the repository root. It builds the library, the shard worker and
the benchmark driver (perfbench/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR (default .bench_build), runs one workload through
crowder_perfbench, and prints a metric table followed, as the last line, by
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones, from a traced run whose Chrome trace is written next to the build.
Workloads, metrics and the layer table are described in perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

WORKLOADS = ("batch-sparse", "batch-dense", "serve-ingest", "shard-machine")

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "hits": "count",
    "crowd_cost_usd": "USD",
    "cluster_f1": "ratio",
}

PER_LAYER = {
    "error_rate": "ratio",
    "data.generate_s": "s",
    "text.tokenize_s": "s",
    "text.tokens": "count",
    "similarity.join_s": "s",
    "similarity.join_cpu_s": "s",
    "similarity.pair_verifications": "count",
    "similarity.candidate_pairs": "count",
    "similarity.verify_yield": "ratio",
    "similarity.serial_join_s": "s",
    "exec.join_parallel_speedup": "ratio",
    "core.machine_pass_s": "s",
    "core.hit_gen_s": "s",
    "core.crowd_s": "s",
    "core.aggregate_s": "s",
    "core.driver_start_s": "s",
    "core.driver_step_s": "s",
    "core.stream_spilled_bytes": "bytes",
    "core.vote_spilled_bytes": "bytes",
    "core.boundary_spilled_bytes": "bytes",
    "core.crowd_partitions": "count",
    "core.cluster_index_s": "s",
    "core.cluster_context_s": "s",
    "core.resolve_s": "s",
    "hitgen.hits": "count",
    "hitgen.pairs_per_hit": "ratio",
    "crowd.rounds": "count",
    "crowd.assignments": "count",
    "crowd.post_s": "s",
    "crowd.poll_s": "s",
    "crowd.round_p50_us": "us",
    "aggregate.dawid_skene_s": "s",
    "aggregate.em_iterations": "count",
    "aggregate.votes": "count",
    "aggregate.vote_visits": "count",
    "eval.pr_curve_s": "s",
    "eval.best_f1": "ratio",
    "shard.plan_ms": "ms",
    "shard.ship_ms": "ms",
    "shard.gather_ms": "ms",
    "shard.worker_cpu_max_s": "s",
    "shard.worker_cpu_min_s": "s",
    "shard.cpu_max_over_min": "ratio",
    "shard.owned_records": "count",
    "shard.replica_records": "count",
    "shard.replicas_per_owned": "ratio",
    "shard.verifications": "count",
    "serve.insert_busy_s": "s",
    "serve.candidates": "count",
    "serve.index_rebuilds": "count",
    "serve.rounds": "count",
    "serve.hits_posted": "count",
    "serve.epochs_published": "count",
    "serve.finish_s": "s",
    "serve.queries": "count",
    "serve.query_generator_late_ms": "ms",
    "serve.insert_p50_us": "us",
    "serve.insert_p99_us": "us",
    "serve.insert_samples": "count",
    "serve.query_p50_us": "us",
    "serve.query_p99_us": "us",
    "serve.query_samples": "count",
    "trace.repetition_s": "s",
    "trace.covered_s": "s",
    "trace.uncovered_s": "s",
    "trace.covered_share": "ratio",
    "trace.overhead_s": "s",
}

PROGRAM_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configures and builds the benchmark package; returns the paths of the
    driver and the shard worker binaries."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4",
         "--target", "crowder_perfbench", "crowder_shardd"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return (os.path.join(build_dir, "crowder_perfbench"),
            os.path.join(build_dir, "crowder", "tools", "crowder_shardd"))


def run_program(args, binary, shardd, trace_out, env):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--shardd", shardd, "--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=PROGRAM_TIMEOUT_S, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("crowder_perfbench exited with %d" % done.returncode)
    return json.loads(lines[-1])


def timed(raw, traced):
    """Finished repetitions, traced or untraced."""
    return [r for r in raw["reps"] if r["traced"] == traced and r["status"] == "OK"]


def end_to_end(raw):
    reps = timed(raw, traced=False)
    if raw["workload"] == "serve-ingest":
        # The service's throughput is what ingest sustains.
        records_per_s = m.rate(raw["records"], m.median([r["ingest_s"] for r in reps]))
    else:
        records_per_s = m.rate(raw["records"], m.median([r["wall_s"] for r in reps]))
    q = raw["quality"]
    return {
        "setup_s": m.median(raw["setup_s"]),
        "records_per_s": records_per_s,
        "cpu_s": m.median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": m.median([r["peak_rss_mb"] for r in reps]),
        "hits": q["hits"],
        "crowd_cost_usd": q["crowd_cost_usd"],
        "cluster_f1": q["cluster_f1"],
    }


def per_layer(raw, events, attempted, failed):
    values = {name: 0.0 for name in PER_LAYER}
    for name, samples in raw["layers"].items():
        values[name] = m.median(samples)
    values["data.generate_s"] = m.median(raw["generate_s"])
    values["eval.best_f1"] = raw["quality"].get("best_f1", 0.0)
    values["aggregate.vote_visits"] = values["aggregate.votes"] * values["aggregate.em_iterations"]
    values["failed"], values["attempted"] = failed, attempted

    for kind in ("insert", "query"):
        samples = raw[kind + "_us"]
        if samples:
            summary = m.latency_summary(samples)
            values["serve.%s_p50_us" % kind] = summary["p50"]
            values["serve.%s_p99_us" % kind] = summary["p99"]
            values["serve.%s_samples" % kind] = summary["count"]

    runs = m.span_metrics(events)
    if runs:
        for span, metric in m.SPAN_METRICS.items():
            values[metric] = m.median([run.get(span, 0.0) for run in runs.values()])
        traced = [run for run in runs.values() if "repetition" in run]
        values["trace.repetition_s"] = m.median([run["repetition"] for run in traced])
        values["trace.uncovered_s"] = m.median([run["repetition.self"] for run in traced])
        values["trace.covered_s"] = m.median(
            [run["repetition"] - run["repetition.self"] for run in traced])
        values["trace.overhead_s"] = (m.median([r["wall_s"] for r in timed(raw, True)]) -
                                      m.median([r["wall_s"] for r in timed(raw, False)]))

    for name, (numerator, denominator) in m.RATIOS.items():
        values[name] = m.ratio(values[numerator], values[denominator])
    return {name: values[name] for name in PER_LAYER}, runs


def print_table(raw, values, units, runs):
    print("workload %s: %d records, seed %s, %d repetitions" % (
        raw["workload"], raw["records"], raw["seed"], len(raw["reps"])))
    print("  repetition wall s: %s" % ", ".join(
        "%.3f%s" % (r["wall_s"], " (traced)" if r["traced"] else "")
        for r in raw["reps"]))
    if not raw["peak_rss_per_rep"]:
        print("  note: /proc/self/clear_refs unavailable; peak RSS spans the whole process")
    for check in raw["checks"]:
        print("  check %-70s %s" % (check["name"],
                                    "ok" if check["ok"] else "FAILED " + check["detail"]))
    for name, value in values.items():
        print("  %-34s %16.6g %s" % (name, value, units[name]))
    for name, (numerator, denominator) in m.RATIOS.items():
        if name in values:
            print("  ratio %s = %s / %s" % (name, numerator, denominator))
    for kind in ("insert", "query"):
        samples = raw[kind + "_us"]
        if samples:
            s = m.latency_summary(samples)
            print("  %s latency: p50 %.1f us, p99 %.1f us, highest tail p%g %.1f us "
                  "(%d samples)" % (kind, s["p50"], s["p99"], s["top_percentile"],
                                    s["top_value"], s["count"]))
    if runs:
        print("  self time per span, median over %d traced repetitions:" % len(runs))
        names = sorted({name for run in runs.values() for name in run})
        for name in names:
            print("    %-26s %10.4f s" % (name, m.median([run.get(name, 0.0)
                                                          for run in runs.values()])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no crowder sources next to %s; run from a full checkout" % HERE)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    trace_out = os.path.join(build_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
    # Streaming spill files (core/spill.h) and compiler temporaries go under
    # $TMPDIR; keep them inside the build tree.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary, shardd = build(build_dir, env)
        raw = run_program(args, binary, shardd, trace_out, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        log("perfbench:", error)
        return 1

    attempted, failed = m.account(raw)
    correct = failed == 0 and all(c["ok"] for c in raw["checks"])
    if args.trace:
        with open(trace_out) as f:
            events = json.load(f)["traceEvents"]
        values, runs = per_layer(raw, events, attempted, failed)
        units = PER_LAYER
    else:
        values, runs, units = end_to_end(raw), {}, END_TO_END
    print_table(raw, values, units, runs)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
