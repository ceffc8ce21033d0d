#!/usr/bin/env python3
"""Zero-dependency self-test of compare.py: python3 bench/e2e/test_compare.py"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BOUNDS = {"step_s": (0.10, "lower", "s"), "glups": (0.10, "higher", "GLUPS")}


def record(workload, step_s, failed=0, trace=0, self_test=False):
    return {"schema": compare.SCHEMA, "workload": workload, "trace": trace,
            "self_test": self_test, "attempted": 100, "failed": failed,
            "metrics": {"step_s": {"value": step_s, "unit": "s"},
                        "glups": {"value": 1.0 / step_s, "unit": "GLUPS"}}}


def runs(workload, values, **kw):
    return [record(workload, v, **kw) for v in values]


def verdicts(base, new):
    return {(w, m): v for w, m, _, _, _, _, _, v in
            compare.compare(base, new, BOUNDS)}


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


class VerdictTest(unittest.TestCase):
    def test_same_runs_are_unchanged(self):
        v = verdicts(runs("a", STEADY), runs("a", STEADY))
        self.assertEqual(v[("a", "step_s")], "unchanged")
        self.assertEqual(v[("a", "glups")], "unchanged")
        self.assertEqual(v[("a", "fail_frac")], "unchanged")

    def test_small_drift_within_bound_is_unchanged(self):
        v = verdicts(runs("a", STEADY), runs("a", [x * 1.05 for x in STEADY]))
        self.assertEqual(v[("a", "step_s")], "unchanged")

    def test_slower_beyond_bound_regresses_both_directions(self):
        v = verdicts(runs("a", STEADY), runs("a", [x * 1.3 for x in STEADY]))
        self.assertEqual(v[("a", "step_s")], "regressed")
        self.assertEqual(v[("a", "glups")], "regressed")

    def test_faster_beyond_spread_improves(self):
        v = verdicts(runs("a", STEADY), runs("a", [x * 0.8 for x in STEADY]))
        self.assertEqual(v[("a", "step_s")], "improved")
        self.assertEqual(v[("a", "glups")], "improved")

    def test_wide_spread_is_unresolved(self):
        noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
        v = verdicts(runs("a", STEADY), runs("a", noisy))
        self.assertEqual(v[("a", "step_s")], "unresolved")

    def test_wide_spread_but_every_run_better_improves(self):
        noisy = [0.5, 0.9, 0.6, 0.85, 0.7, 0.55, 0.88, 0.65, 0.8, 0.75]
        v = verdicts(runs("a", STEADY), runs("a", noisy))
        self.assertEqual(v[("a", "step_s")], "improved")

    def test_more_failed_checks_regress(self):
        v = verdicts(runs("a", STEADY), runs("a", STEADY, failed=1))
        self.assertEqual(v[("a", "fail_frac")], "regressed")

    def test_workloads_compare_separately(self):
        base = runs("a", STEADY) + runs("b", STEADY)
        new = runs("a", STEADY) + runs("b", [x * 1.3 for x in STEADY])
        v = verdicts(base, new)
        self.assertEqual(v[("a", "step_s")], "unchanged")
        self.assertEqual(v[("b", "step_s")], "regressed")

    def test_spread_matches_statistics_quantiles(self):
        med, q1, q3, rel = compare.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))
        self.assertAlmostEqual(rel, 1.0)


class FilesTest(unittest.TestCase):
    def test_loads_only_timed_runs_and_reads_bounds(self):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            files = {"a-trace0-seed1.json": record("a", 1.0),
                     "a-trace1-seed1.json": record("a", 1.0, trace=1),
                     "a-trace0-seed2.json": record("a", 1.0, self_test=True),
                     "trace_a.json": {"traceEvents": []}}
            for name, rec in files.items():
                (d / name).write_text(json.dumps(rec))
            (d / "junk-seed3.json").write_text("not json")
            self.assertEqual(len(compare.load_results(d)), 1)
            bench = d / "BENCHMARK.json"
            bench.write_text(json.dumps({"end_to_end": [
                {"name": "step_s", "unit": "s", "better": "lower",
                 "bound": 0.1}]}))
            self.assertEqual(compare.load_bounds(bench),
                             {"step_s": (0.1, "lower", "s")})
            self.assertEqual(compare.main([str(d), str(d), "--benchmark",
                                           str(bench)]), 0)

    def test_repository_benchmark_bounds_load(self):
        bounds = compare.load_bounds(compare.DEFAULT_BENCHMARK)
        self.assertIn("step_s", bounds)
        self.assertIn("setup_s", bounds)


if __name__ == "__main__":
    unittest.main()
