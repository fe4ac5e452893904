"""Tests for the benchmark's own arithmetic (perfbench/metrics.py and the
metric assembly in perfbench/run.py).

    python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import metrics as m  # noqa: E402
import run  # noqa: E402


def rep(wall, digest="d1", traced=False, status="OK", cpu=1.0, rss=10.0, ingest=0.0):
    return {"run": 0, "traced": traced, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": rss, "ingest_s": ingest, "digest": digest, "status": status}


def raw_report(reps, workload="batch-sparse", attempted=None, failed=0, **extra):
    raw = {
        "workload": workload, "seed": 1, "records": 1000, "reps": reps,
        "attempted": len(reps) if attempted is None else attempted, "failed": failed,
        "checks": [], "generate_s": [0.3, 0.1, 0.2], "setup_s": [0.4, 0.2, 0.3],
        "quality": {"hits": 10, "crowd_cost_usd": 2.5, "cluster_f1": 0.8, "best_f1": 0.9},
        "insert_us": [], "query_us": [], "layers": {}, "peak_rss_per_rep": True,
    }
    raw.update(extra)
    return raw


def span(span_id, name, start, dur, parent=-1, run_id=2):
    return {"name": name, "ph": "X", "ts": start, "dur": dur,
            "args": {"id": span_id, "parent": parent, "run": run_id}}


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(m.highest_percentile(19))  # p50 leaves 9 beyond
        self.assertEqual(m.highest_percentile(20), 50.0)
        self.assertEqual(m.highest_percentile(100), 90.0)
        self.assertEqual(m.highest_percentile(999), 90.0)
        self.assertEqual(m.highest_percentile(1000), 99.0)
        self.assertEqual(m.highest_percentile(10000), 99.9)
        self.assertEqual(m.highest_percentile(100000), 99.99)

    def test_samples_beyond_counts_ranks_above(self):
        self.assertEqual(m.samples_beyond(1000, 99.0), 10)
        self.assertEqual(m.samples_beyond(1000, 99.9), 1)
        self.assertEqual(m.samples_beyond(1, 50.0), 0)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(m.nearest_rank(values, 50.0), 50)
        self.assertEqual(m.nearest_rank(values, 99.0), 99)
        self.assertEqual(m.nearest_rank(values, 0.0), 1)

    def test_percentile_refuses_a_thin_tail(self):
        with self.assertRaises(ValueError):
            m.percentile(list(range(999)), 99.0)
        self.assertEqual(m.percentile(list(range(1000)), 99.0), 989)

    def test_summary_states_sample_count_and_top_percentile(self):
        samples = [float(v) for v in range(10000, 0, -1)]  # order must not matter
        s = m.latency_summary(samples)
        self.assertEqual(s["count"], 10000)
        self.assertEqual(s["p50"], 5000.0)
        self.assertEqual(s["p99"], 9900.0)
        self.assertEqual(s["top_percentile"], 99.9)
        self.assertEqual(s["top_value"], 9990.0)


class RateTest(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(m.rate(100, 2.0), 50.0)
        with self.assertRaises(ValueError):
            m.rate(100, 0.0)

    def test_records_per_s_uses_median_of_untraced_repetitions(self):
        reps = [rep(1.0), rep(2.0), rep(4.0), rep(0.1, traced=True), rep(0.2, status="Internal")]
        metrics = run.end_to_end(raw_report(reps))
        self.assertEqual(metrics["records_per_s"], 1000 / 2.0)

    def test_serve_throughput_divides_by_ingest_time(self):
        reps = [rep(3.0, ingest=2.0), rep(3.0, ingest=1.0), rep(3.0, ingest=4.0)]
        metrics = run.end_to_end(raw_report(reps, workload="serve-ingest"))
        self.assertEqual(metrics["records_per_s"], 1000 / 2.0)

    def test_setup_is_the_median_of_the_setups(self):
        metrics = run.end_to_end(raw_report([rep(1.0)]))
        self.assertEqual(metrics["setup_s"], 0.3)

    def test_end_to_end_metrics_are_never_zero(self):
        metrics = run.end_to_end(raw_report([rep(1.0), rep(1.5)]))
        self.assertEqual(set(metrics), set(run.END_TO_END))
        self.assertTrue(all(value > 0 for value in metrics.values()))


class ErrorAccountingTest(unittest.TestCase):
    def test_clean_run(self):
        raw = raw_report([rep(1.0), rep(1.0), rep(1.0)], attempted=7)
        self.assertEqual(m.account(raw), (10, 0))

    def test_failed_repetition_counts_once(self):
        # The program already counted the failed repetition.
        reps = [rep(1.0), rep(1.0, digest="", status="IOError: spill"), rep(1.0)]
        raw = raw_report(reps, attempted=3, failed=1)
        self.assertEqual(m.account(raw), (6, 1))

    def test_query_errors_count_against_attempted(self):
        raw = raw_report([rep(1.0)], workload="serve-ingest", attempted=501, failed=3)
        attempted, failed = m.account(raw)
        self.assertEqual((attempted, failed), (502, 3))
        layers, _ = run.per_layer(raw, [], attempted, failed)
        self.assertAlmostEqual(layers["error_rate"], 3 / 502)

    def test_reference_is_the_first_finished_repetition(self):
        reps = [rep(1.0, digest="", status="Internal"), rep(1.0, digest="x"), rep(1.0, "x")]
        self.assertEqual(m.account(raw_report(reps, failed=1)), (6, 1))


class PerturbedDigestTest(unittest.TestCase):
    def test_a_perturbed_digest_fails_the_output_check(self):
        digests = ["9f2c0000aa11bb22"] * 4
        clean = raw_report([rep(1.0, d) for d in digests])
        self.assertEqual(m.account(clean)[1], 0)
        perturbed = list(digests)
        perturbed[2] = perturbed[2][:-1] + "3"
        raw = raw_report([rep(1.0, d) for d in perturbed])
        self.assertEqual(m.account(raw)[1], 1)

    def test_perturbed_reference_fails_every_other_repetition(self):
        reps = [rep(1.0, "bad"), rep(1.0, "good"), rep(1.0, "good")]
        self.assertEqual(m.account(raw_report(reps))[1], 2)


class RatioTest(unittest.TestCase):
    def test_every_ratio_has_its_bases_printed(self):
        for name, (numerator, denominator) in m.RATIOS.items():
            self.assertIn(name, run.PER_LAYER)
            for base in (numerator, denominator):
                self.assertTrue(base in run.PER_LAYER or base in ("failed", "attempted"),
                                "%s: base %s is not printed" % (name, base))

    def test_ratios_are_computed_from_their_bases(self):
        layers = {
            "similarity.candidate_pairs": [50.0], "similarity.pair_verifications": [1000.0],
            "similarity.serial_join_s": [6.0], "similarity.join_s": [2.0],
            "hitgen.hits": [5.0], "shard.worker_cpu_max_s": [3.0],
            "shard.worker_cpu_min_s": [0.5], "shard.replica_records": [30.0],
            "shard.owned_records": [20.0],
        }
        raw = raw_report([rep(1.0)], layers=layers)
        values, _ = run.per_layer(raw, [], 10, 1)
        self.assertEqual(values["similarity.verify_yield"], 0.05)
        self.assertEqual(values["exec.join_parallel_speedup"], 3.0)
        self.assertEqual(values["hitgen.pairs_per_hit"], 10.0)
        self.assertEqual(values["shard.cpu_max_over_min"], 6.0)
        self.assertEqual(values["shard.replicas_per_owned"], 1.5)
        self.assertEqual(values["error_rate"], 0.1)

    def test_ratio_over_a_zero_base_is_zero(self):
        self.assertEqual(m.ratio(5.0, 0.0), 0.0)

    def test_table_prints_each_ratio_with_its_base(self):
        raw = raw_report([rep(1.0)])
        values, runs = run.per_layer(raw, [], 1, 0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.print_table(raw, values, run.PER_LAYER, runs)
        for name, (numerator, denominator) in m.RATIOS.items():
            self.assertIn("ratio %s = %s / %s" % (name, numerator, denominator), out.getvalue())


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        events = [
            span(0, "repetition", 0, 100e6),
            span(1, "driver.Start", 0, 60e6, parent=0),
            span(2, "driver.Step", 70e6, 20e6, parent=0),
            span(3, "driver.Step", 95e6, 1e6, parent=0),
        ]
        selfs = m.self_times(events)
        self.assertAlmostEqual(selfs[0], 19.0)
        self.assertAlmostEqual(selfs[1], 60.0)
        runs = m.span_metrics(events)
        self.assertAlmostEqual(runs[2]["repetition"], 100.0)
        self.assertAlmostEqual(runs[2]["repetition.self"], 19.0)
        self.assertAlmostEqual(runs[2]["driver.Step"], 21.0)
        # Self times account for the repetition exactly.
        total = sum(v for k, v in runs[2].items() if k != "repetition")
        self.assertAlmostEqual(total, runs[2]["repetition"])

    def test_traced_metrics_and_overhead(self):
        events = [span(0, "repetition", 0, 2e6), span(1, "driver.Start", 0, 1.5e6, parent=0)]
        reps = [rep(1.9), rep(2.0, traced=True), rep(2.1)]
        values, _ = run.per_layer(raw_report(reps), events, 4, 0)
        self.assertAlmostEqual(values["core.driver_start_s"], 1.5)
        self.assertAlmostEqual(values["trace.uncovered_s"], 0.5)
        self.assertAlmostEqual(values["trace.covered_share"], 0.75)
        self.assertAlmostEqual(values["trace.overhead_s"], 0.0)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_run_py_prints(self):
        with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({e["name"]: e["unit"] for e in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({e["name"]: e["unit"] for e in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
