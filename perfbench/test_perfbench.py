"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench        (or: python3 -m unittest discover -s perfbench)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402

TINY = {"seconds": 0, "scale": 0.05, "setup_runs": 1}


def _config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TinyRuns(unittest.TestCase):
    def test_every_metric_present_and_nothing_fails(self):
        config = _config()
        names = {
            False: [m["name"] for m in config["end_to_end"]],
            True: [m["name"] for m in config["per_layer"]],
        }
        for workload in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    report = run.measure(ROOT, workload, 1, trace=trace, **TINY)
                    self.assertTrue(report["correct"])
                    self.assertEqual(report["failed"], 0)
                    self.assertGreater(report["attempted"], 0)
                    self.assertEqual(sorted(report["metrics"]), sorted(names[trace]))
                    if trace:
                        self.assertEqual(report["child"]["digest_traced"], report["child"]["digest"])
                    else:
                        self.assertTrue(all(v > 0 for v in report["metrics"].values()))

    def test_seeds_change_inputs_not_metric_set(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = run.measure(ROOT, workload, 1, trace=False, **TINY)
                b = run.measure(ROOT, workload, 2, trace=False, **TINY)
                self.assertEqual(sorted(a["metrics"]), sorted(b["metrics"]))
                self.assertNotEqual(a["child"]["digest"], b["child"]["digest"])

    def test_same_seed_same_inputs(self):
        a = run.generate(ROOT, "requests-mixed", 5, 0.05)
        b = run.generate(ROOT, "requests-mixed", 5, 0.05)
        self.assertEqual(a, b)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        config = _config()
        self.assertEqual([w["name"] for w in config["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in config["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in config["per_layer"]], tracing.LAYER_METRICS)

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as empty:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "long-period",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_tracer_restores_bindings(self):
        from cuntzfrac import cfe, words

        before = (cfe.cfe_periodic, words.failure_function)
        with tracing.Tracer():
            self.assertIsNot(cfe.cfe_periodic, before[0])
        self.assertEqual((cfe.cfe_periodic, words.failure_function), before)


if __name__ == "__main__":
    unittest.main()
