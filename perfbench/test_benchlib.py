"""Tests of the benchmark's own logic (perfbench/benchlib.py, run.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest
from pathlib import Path

import benchlib
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


class MetricNameTest(unittest.TestCase):
    def test_accepts_repo_style_names(self):
        for name in ("setup_s", "serve.round_p50_ms", "algo.LCLL-H.run_s",
                     "1x", "a" * 64):
            self.assertEqual(benchlib.validate_metric_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", ".lead", "-lead", "has space", "slash/name",
                     "a" * 65, "uniçode", None, 3):
            with self.assertRaises(ValueError):
                benchlib.validate_metric_name(name)

    def test_benchmark_json_names_are_valid_and_unique(self):
        names = [m["name"] for group in ("end_to_end", "per_layer")
                 for m in SPEC[group]]
        for name in names:
            benchlib.validate_metric_name(name)
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class TailTest(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        samples = list(range(100, 0, -1))  # unsorted input
        t = benchlib.tail(samples)
        self.assertEqual(t.count, 100)
        self.assertEqual(sum(1 for s in samples if s > t.value), 10)
        self.assertAlmostEqual(t.percentile, 90.0)

    def test_smallest_sample_set(self):
        t = benchlib.tail(range(11))
        self.assertEqual(t.value, 0)
        self.assertAlmostEqual(t.percentile, 100.0 / 11)
        self.assertEqual(t.count, 11)
        self.assertIsNone(benchlib.tail(range(10)))
        self.assertIsNone(benchlib.tail([]))

    def test_ties_count_by_position(self):
        t = benchlib.tail([5.0] * 30)
        self.assertEqual(t.value, 5.0)
        self.assertAlmostEqual(t.percentile, 100.0 * 20 / 30)

    def test_infinite_failures_push_the_tail(self):
        samples = [1.0] * 20 + [math.inf] * 11
        self.assertEqual(benchlib.tail(samples).value, math.inf)


class OpenLoopTest(unittest.TestCase):
    def test_latency_runs_from_the_scheduled_time(self):
        # Due at 1.0 s, sent 5 ms late, acked at 1.010 s: 10 ms, not 5.
        records = [(1.0, 1.005, 1.010, True)]
        self.assertAlmostEqual(benchlib.open_loop_latencies_ms(records)[0],
                               10.0)
        self.assertAlmostEqual(benchlib.generator_lateness_ms(records)[0],
                               5.0)

    def test_failed_requests_miss_every_limit(self):
        records = [(1.0, 1.0, -1.0, False), (2.0, 2.0, 2.5, False)]
        self.assertEqual(benchlib.open_loop_latencies_ms(records),
                         [math.inf, math.inf])

    def test_round_latency_needs_every_push(self):
        rounds = [
            [1.0, 1.02, 100, 100, False, 3.0],  # complete: 20 ms
            [2.0, 2.01, 100, 99, False, 3.0],   # one push missing
            [3.0, -1.0, 0, 0, False, 3.0],      # nothing subscribed
        ]
        latencies = benchlib.serve_round_latencies_ms(rounds)
        self.assertEqual(len(latencies), 2)
        self.assertAlmostEqual(latencies[0], 20.0)
        self.assertEqual(latencies[1], math.inf)


class FailureTest(unittest.TestCase):
    def test_counts_add_up_by_kind(self):
        f = benchlib.Failures()
        self.assertIsNone(f.share())
        f.add("a", 10, 1)
        f.add("a", 10, 0)
        f.add("b", 0, 2)
        self.assertEqual(f.attempted, 20)
        self.assertEqual(f.failed, 3)
        self.assertAlmostEqual(f.share(), 0.15)
        with self.assertRaises(ValueError):
            f.add("c", -1, 0)

    def test_sim_accounting(self):
        raw = {"iterations": [], "calls": [[0, 0, 1.0, 1, 1, 1.0]] * 12,
               "checks": {"rounds_checked": 3012, "oracle_mismatches": 2,
                          "nondeterministic_replays": 1,
                          "arrangement_replays": 6,
                          "arrangement_mismatches": 1}}
        f = benchlib.failures(raw)
        self.assertEqual(f.attempted, 3012 + 12 + 6)
        self.assertEqual(f.failed, 4)
        self.assertEqual(f.kinds["arrangement_mismatch"], (6, 1))

    def test_serve_accounting(self):
        checks = {"subscribes_ok": 95, "unsubscribes_ok": 2,
                  "requests_refused": 1, "requests_sent": 100,
                  "pushes_expected": 1000, "pushes_missing": 3,
                  "pushes_surplus": 0, "pushes_incorrect": 1,
                  "replay_answers": 50, "replay_mismatches": 0,
                  "closed_connections": 0, "stalled": False}
        f = benchlib.failures({"checks": checks})
        # refused 1 + unanswered 2 + missing 3 + incorrect 1
        self.assertEqual(f.failed, 7)
        self.assertEqual(f.attempted, 100 + 1000 + 50 + 1)


class NullTest(unittest.TestCase):
    def test_unavailable_is_null_never_zero(self):
        for value in (None, 0, -1, float("nan"), float("inf"), ""):
            self.assertIsNone(benchlib.nullable(value))
        self.assertEqual(benchlib.nullable(4), 4)
        self.assertEqual(benchlib.nullable("GNU 12"), "GNU 12")
        self.assertIs(benchlib.nullable(False), False)

    def test_provenance_writes_null_for_what_is_missing(self):
        p = run.provenance({"compiler": "unknown", "build_type": ""})
        self.assertIsNone(p["compiler"])
        self.assertIsNone(p["build_type"])
        self.assertIsNone(p["cycles"])
        self.assertIsNone(p["instructions"])
        self.assertNotIn(0, [v for v in p.values() if v is not False])


class SpanTest(unittest.TestCase):
    # name, parent, thread, start, end
    SPANS = [
        ["bench.iteration", -1, 0, 0.0, 10.0],
        ["core.build", 0, 0, 1.0, 3.0],
        ["algo.IQ.run", 0, 0, 4.0, 9.0],
        ["net.probe", -1, 1, 20.0, 21.0],
    ]

    def test_self_time_subtracts_children(self):
        own = benchlib.self_times(self.SPANS)
        self.assertAlmostEqual(own["bench"], 3.0)
        self.assertAlmostEqual(own["core"], 2.0)
        self.assertAlmostEqual(own["algo"], 5.0)
        self.assertAlmostEqual(own["net"], 1.0)

    def test_windows_clip_spans(self):
        own = benchlib.self_times(self.SPANS, windows=[(2.0, 5.0)])
        self.assertAlmostEqual(own["core"], 1.0)
        self.assertAlmostEqual(own["algo"], 1.0)
        self.assertAlmostEqual(own["bench"], 1.0)
        self.assertAlmostEqual(own.get("net", 0.0), 0.0)

    def test_coverage_ignores_bench_spans(self):
        self.assertAlmostEqual(
            benchlib.coverage(self.SPANS, [(0.0, 10.0)]), 0.7)
        self.assertIsNone(benchlib.coverage(self.SPANS, []))

    def test_cpu_charged_span_counts_only_its_work(self):
        # A 10 s poll that used 2 s of CPU: the wait comes first, so only
        # its last 2 s are busy, for self time and for coverage alike.
        spans = [["serve.poll_once", -1, 0, 0.0, 10.0, 2.0],
                 ["bench.client.pump", -1, 1, 0.0, 10.0, 1.0],
                 ["serve.tick_round", -1, 0, 10.0, 11.0, -1.0]]
        own = benchlib.self_times(spans)
        self.assertAlmostEqual(own["serve"], 3.0)
        self.assertAlmostEqual(own["bench"], 1.0)
        self.assertAlmostEqual(benchlib.coverage(spans, [(0.0, 12.0)]),
                               3.0 / 12.0)
        self.assertAlmostEqual(
            benchlib.self_times(spans, windows=[(0.0, 9.0)])["serve"], 1.0)

    def test_union_length_merges_overlaps(self):
        self.assertAlmostEqual(
            benchlib.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]), 4.0)


class SimMetricsTest(unittest.TestCase):
    def test_capacity_counts_every_protocols_rounds(self):
        # iterations: traced, wall s, node rounds, answered rounds (all
        # protocols), CPU s; calls: traced, protocol, wall s, node rounds,
        # rounds, CPU s
        raw = {"setup": [[False, 1.0]],
               "iterations": [[False, 2.0, 600, 1506, 2.0],
                              [True, 1.0, 1, 1, 1.0]],
               "calls": [[0, p, 0.5, 100, 251, 0.5] for p in range(6)],
               "results": [{"hotspot_mj": 1.0, "packets": 2.0}] * 6,
               "peak_rss_kb": 2048}
        values, _ = benchlib.sim_end_to_end(raw)
        self.assertAlmostEqual(values["serve.capacity_rounds_per_s"], 753.0)
        self.assertAlmostEqual(values["sim_node_rounds_per_s"], 300.0)
        self.assertAlmostEqual(values["serve.round_p50_ms"], 500.0 / 251)
        self.assertAlmostEqual(values["sim_hotspot_mj_per_round"], 6.0)

    def test_host_time_is_cpu_time_and_wall_is_reported(self):
        # Half the wall time was stolen: the gated figures use CPU time.
        raw = {"setup": [[False, 1.0]],
               "iterations": [[False, 4.0, 600, 1506, 2.0]],
               "calls": [[0, p, 1.0, 100, 250, 0.5] for p in range(6)],
               "results": [{"hotspot_mj": 1.0, "packets": 2.0}] * 6,
               "peak_rss_kb": 2048}
        values, _ = benchlib.sim_end_to_end(raw)
        self.assertAlmostEqual(values["sim_node_rounds_per_s"], 300.0)
        self.assertAlmostEqual(values["sim_node_rounds_per_wall_s"], 150.0)
        self.assertAlmostEqual(values["serve.capacity_rounds_per_s"], 753.0)
        self.assertAlmostEqual(values["serve.round_p50_ms"], 2.0)


class OverheadTest(unittest.TestCase):
    def test_sign_follows_direction(self):
        self.assertAlmostEqual(
            benchlib.overhead_pct("sim_node_rounds_per_s", 100.0, 90.0), 10.0)
        self.assertAlmostEqual(
            benchlib.overhead_pct("serve.round_p50_ms", 10.0, 11.0), 10.0)
        self.assertIsNone(benchlib.overhead_pct("setup_s", 0.0, 1.0))


if __name__ == "__main__":
    unittest.main()
