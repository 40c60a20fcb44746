"""Tests of the campaign benchmark itself, at a tiny size.

    cd campaignbench && python3 -m unittest -v test_campaignbench

They build the benchmark (.bench_build/ at the checkout root) if needed,
then run every workload's shape shrunk to a few hundred nodes through both
modes: result schema, metric names, replayed rows against run_job's, and
the CSV checks.
"""
import json
import math
import re
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics are named after the src/ module they time; "bench" is
# the benchmark's own overhead.
LAYERS = {"models", "graph", "churn", "protocols", "observe", "engine",
          "bench"}
TINY_SEED = 7


def tiny_spec(workload):
    path = run.BENCH_DIR / "workloads" / f"{workload}.json"
    spec = json.loads(path.read_text())
    spec["n"] = [400]
    spec["replications"] = 2
    return spec


class MetricNames(unittest.TestCase):
    def test_names_follow_the_grammar(self):
        bench = run.load_benchmark()
        names = [m["name"] for section in ("end_to_end", "per_layer")
                 for m in bench[section]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for section in ("end_to_end", "per_layer"):
            for metric in bench[section]:
                self.assertRegex(metric["unit"], UNIT)

    def test_per_layer_names_start_with_their_module(self):
        for metric in run.load_benchmark()["per_layer"]:
            self.assertIn(metric["name"].split(".")[0], LAYERS)

    def test_workloads_agree(self):
        listed = {w["name"] for w in run.load_benchmark()["workloads"]}
        files = {p.stem for p in (run.BENCH_DIR / "workloads").glob("*.json")}
        self.assertEqual(listed, set(run.WORKLOADS))
        self.assertEqual(listed, files)


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def measure(self, workload, trace, pin=None):
        return run.measure(f"tiny-{workload}", tiny_spec(workload), TINY_SEED,
                           0, trace, run.WORKLOADS[workload]["threads"], pin)

    def check_schema(self, result, section):
        self.assertEqual(
            set(result), {"workload", "seed", "trace", "threads", "correct",
                          "attempted", "failed", "failed_frac", "problems",
                          "metrics", "env", "raw"})
        self.assertEqual(
            set(result["env"]), {"nproc", "llc", "compiler", "git_sha",
                                 "source_sha1", "spec"})
        self.assertEqual(result["env"]["spec"]["seed"], TINY_SEED)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"]
                    for m in run.load_benchmark()[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], expected[name])
            self.assertIsInstance(metric["value"], (int, float))
            self.assertTrue(math.isfinite(metric["value"]), name)
        json.dumps(result)  # the result file is plain JSON

    def test_untraced_runs_are_correct(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.measure(workload, 0)
                self.check_schema(result, "end_to_end")
                self.assertTrue(result["correct"], result["problems"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_replay_equals_run_job(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.measure(workload, 1)
                self.check_schema(result, "per_layer")
                self.assertEqual(result["raw"]["rows_mismatched"], 0)
                self.assertTrue(result["raw"]["csv_equal"])
                self.assertTrue(result["correct"], result["problems"])

    def test_wrong_pin_fails_every_job(self):
        result = self.measure("resilience", 0, pin="0" * 16)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
