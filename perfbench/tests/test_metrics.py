"""Self-tests for the benchmark's metric rules and its output contract.

  python3 -m unittest discover -s perfbench/tests
"""

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import metrics  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(HERE), "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def rung(rate, latency, lag=None, backlog=(0, 0), refused=0, mismatched=0,
         answered=None):
    lag = lag if lag is not None else [0.01] * len(latency)
    return {"rate": rate, "seconds": 1.0, "sent": len(latency),
            "answered": len(latency) if answered is None else answered,
            "refused": refused, "mismatched": mismatched,
            "backlog_start": backlog[0], "backlog_end": backlog[1],
            "latency_ms": latency, "lag_ms": lag}


class TailTest(unittest.TestCase):
    def test_too_few_samples(self):
        self.assertIsNone(metrics.tail([]))
        self.assertIsNone(metrics.tail([1.0] * 10))

    def test_exactly_ten_beyond(self):
        values = [float(x) for x in range(1, 12)]  # 11 samples
        self.assertEqual(metrics.tail(values), (1.0, 9.0, 11))
        values = [float(x) for x in range(100, 0, -1)]  # unsorted, 100
        value, pct, count = metrics.tail(values)
        self.assertEqual((value, pct, count), (90.0, 90.0, 100))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_percentile_is_nearest_rank(self):
        values = [float(x) for x in range(1, 101)]
        self.assertEqual(metrics.percentile(values, 99), 99.0)
        self.assertEqual(metrics.percentile(values, 50), 50.0)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)
        self.assertIsNone(metrics.percentile([], 99))


class SloTest(unittest.TestCase):
    fast = [1.0] * 200
    slow = [1.0] * 190 + [50.0] * 10  # p99 50 ms

    def test_highest_rate_meeting_the_limit(self):
        ladder = [rung(100, self.fast), rung(200, self.fast),
                  rung(400, self.slow), rung(800, self.fast)]
        self.assertEqual(metrics.slo_rps(ladder), 200)

    def test_growing_backlog_misses(self):
        ladder = [rung(100, self.fast), rung(200, self.fast, backlog=(3, 60))]
        self.assertEqual(metrics.slo_rps(ladder), 100)
        self.assertIn("backlog", metrics.rung_verdict(ladder[1])["reason"])
        ok = rung(200, self.fast, backlog=(3, 3 + metrics.BACKLOG_LIMIT))
        self.assertTrue(metrics.rung_verdict(ok)["meets"])

    def test_no_rate_qualifies(self):
        self.assertEqual(metrics.slo_rps([rung(100, self.slow),
                                          rung(200, self.slow)]), 0)
        self.assertEqual(metrics.slo_rps([]), 0)

    def test_refused_or_unanswered_requests_miss(self):
        self.assertEqual(metrics.slo_rps([rung(100, self.fast, refused=1)]), 0)
        self.assertEqual(metrics.slo_rps([rung(100, self.fast, mismatched=1)]),
                         0)
        self.assertEqual(metrics.slo_rps([rung(100, self.fast, answered=199)]),
                         0)

    def test_invalid_rung_neither_qualifies_nor_ends_the_walk(self):
        late = rung(200, self.fast, lag=[5.0] * 200)
        verdict = metrics.rung_verdict(late)
        self.assertFalse(verdict["valid"])
        self.assertFalse(verdict["meets"])
        ladder = [rung(100, self.fast), late, rung(400, self.fast)]
        self.assertEqual(metrics.slo_rps(ladder), 400)
        self.assertEqual(metrics.slo_rps([late]), 0)


class FailedShareTest(unittest.TestCase):
    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(metrics.failed_share(0, 0), 1.0)

    def test_share(self):
        self.assertEqual(metrics.failed_share(0, 50), 0.0)
        self.assertEqual(metrics.failed_share(5, 50), 0.1)


class ExactTest(unittest.TestCase):
    def test_equal_sequences_pass(self):
        checks = [{"name": "a", "a": [123002, 122961], "b": [123002, 122961]}]
        self.assertEqual(metrics.exact_failures(checks), [])

    def test_any_drift_fails(self):
        checks = [{"name": "drift", "a": [123002, 122961],
                   "b": [123002, 122962]},
                  {"name": "short", "a": [1, 2], "b": [1]},
                  {"name": "empty", "a": [], "b": []}]
        self.assertEqual(metrics.exact_failures(checks),
                         ["drift", "short", "empty"])


class ContractTest(unittest.TestCase):
    """run.py emits exactly the metrics BENCHMARK.json names."""

    def raw(self, workload):
        segment = rung(1000, [0.5] * 600)
        return {"workload": workload, "stamps": {}, "attempted": 30,
                "failed": 0, "errors": [], "setup_s": [0.01, 0.02, 0.03],
                "unit_ms": [float(x) for x in range(1, 31)],
                "throughput_per_s": 4.0, "mesh_steps": 300, "mesh_units": 30,
                "peak_rss_mb": 100.0, "layers": {"hmos.build_ms": 3.0},
                "absent": {}, "notes": {}, "exact": [],
                "reference": [segment] * 5, "ladder": [segment]}

    def report(self, raw, trace):
        args = argparse.Namespace(seed=1, seconds=1.0, trace=trace)
        with contextlib.redirect_stdout(io.StringIO()):
            return run.report(raw, args, 4, "test")

    def test_end_to_end_names(self):
        for workload in run.WORKLOADS:
            values, _ = run.end_to_end(self.raw(workload))
            self.assertTrue(set(run.END_TO_END) <= set(values), workload)
            self.assertTrue(all(v for v in values.values()), workload)
            result = self.report(self.raw(workload), 0)
            self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
            self.assertTrue(result["correct"])

    def test_failures_make_the_run_incorrect(self):
        raw = self.raw("pram-step")
        raw["exact"] = [{"name": "drift", "a": [1], "b": [2]}]
        result = self.report(raw, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_per_layer_names(self):
        for workload in run.WORKLOADS:
            values, notes = run.per_layer(self.raw(workload))
            self.assertEqual(set(values), set(run.PER_LAYER), workload)
            result = self.report(self.raw(workload), 1)
            self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
            missing = [k for k, v in values.items() if v == 0]
            self.assertTrue(all(k in notes for k in missing), workload)


if __name__ == "__main__":
    unittest.main()
