#!/usr/bin/env python3
"""Tests for the benchmark itself, on a small corpus (1/50 scale, 2 days).

    python3 perfbench/test_perfbench.py

- Every workload prints every end-to-end metric untraced and every
  per-layer metric traced, all finite, with the gate passing.
- A perturbed model or a corrupted corpus trips the correctness gate:
  the run fails, "correct" is false and "failed" counts the damage.
- A directory holding only BENCHMARK.json and perfbench/ fails without
  printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--scale", "0.02", "--days", "2"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, extra=(), cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), *SMALL, *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


class SmokeTest(unittest.TestCase):
    def check_metrics(self, workload, trace, declared):
        code, result, out = run(workload, trace)
        self.assertEqual(code, 0, out)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            # Each metric is also printed for people, with its sample count.
            self.assertRegex(out, rf"metric {m['name']} = .* \(n=\d+\)")

    def test_every_end_to_end_metric_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 0, SPEC["end_to_end"])

    def test_every_per_layer_metric_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 1, SPEC["per_layer"])

    def test_end_to_end_metrics_are_never_zero(self):
        _, result, _ = run("serve_hourly_7d")
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)


class GateTest(unittest.TestCase):
    def assert_gate_trips(self, inject):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, inject=inject):
                code, result, out = run(workload, 0, ["--inject", inject])
                self.assertNotEqual(code, 0, out)
                self.assertFalse(result["correct"], out)
                self.assertGreater(result["failed"], 0, out)
                self.assertIn("error_rate = ", out)
                self.assertNotIn("error_rate = 0 ", out)

    def test_perturbed_model_trips_gate(self):
        self.assert_gate_trips("model")

    def test_corrupted_corpus_trips_gate(self):
        self.assert_gate_trips("corpus")


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_build")
                if os.path.isdir(os.path.join(ROOT, ".bench_build"))
                else None) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            code, result, _ = run(WORKLOADS[0], cwd=bare, env=env)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
