#!/usr/bin/env python3
"""Tests for the benchmark itself (not part of `dune runtest`).

    python3 perfbench/test_bench.py

Runs the benchmark at --scale tiny from the repository root: every metric
BENCHMARK.json names must appear with its unit, planted faults must end
as failed operations rather than a crash or a hang, nothing may be left
behind, and a directory holding only the benchmark must fail cleanly.
"""

import json
import os
import shutil
import subprocess
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = ["cold-analyze", "release-stream", "fleet-mixed"]
TIMEOUT_S = 170


def run(*args, cwd=ROOT):
    cmd = SPEC["command"] + list(args)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def tiny(workload, trace=0, plant=None, seed=7):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny"]
    return run(*args + (["--plant", plant] if plant else []))


def lapis_processes():
    out = subprocess.run(["ps", "-eo", "stat=,args="], capture_output=True, text=True).stdout
    return [l for l in out.splitlines()
            if not l.startswith("Z") and (".bench_build/" in l)]


class Benchmark(unittest.TestCase):
    def assert_clean(self):
        self.assertEqual(lapis_processes(), [])
        self.assertFalse(os.path.exists(os.path.join(ROOT, ".bench_work")))

    def assert_metrics(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        for m in listed:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        self.assertEqual(len(result["metrics"]), len(listed))

    def test_every_metric_on_every_workload(self):
        # fleet-mixed is not listed in BENCHMARK.json but prints the same metrics
        workloads = [w["name"] for w in SPEC["workloads"]]
        self.assertIn("fleet-mixed", WORKLOADS)
        self.assertLessEqual(set(workloads), set(WORKLOADS))
        for w in WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    code, result, err = tiny(w, trace)
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assert_metrics(result, listed)
                    if trace == 0:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                    self.assert_clean()

    def test_wrong_fleet_answer_is_a_failure(self):
        code, result, _ = tiny("fleet-mixed", plant="wrong-answer")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assert_clean()

    def test_killed_shard_is_a_failure_not_a_hang(self):
        code, result, _ = tiny("fleet-mixed", plant="kill-shard")
        self.assertNotEqual(code, 0)
        self.assertGreater(result["failed"], 0)
        self.assert_clean()

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(d, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", "0", cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
