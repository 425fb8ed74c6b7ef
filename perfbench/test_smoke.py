#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/test_smoke.py

Runs every workload at tiny size (run.py --smoke) in both modes and
asserts that each run is correct, emits every metric BENCHMARK.json names
for its mode with the right unit, and passed every output check recorded
in its run file.  Takes about a minute after the first build.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n"
                             f"{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        result = run(workload, trace)
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(len(result["metrics"]), len(want))
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        path = os.path.join(ROOT, ".bench_build", "runs",
                            f"{workload}-seed3-trace{trace}.json")
        with open(path) as f:
            record = json.load(f)
        checks = record["run"]["checks"]
        self.assertTrue(checks)
        for name, c in checks.items():
            self.assertTrue(c["ok"], f"{workload}: check {name} failed")
        self.assertIn("host", record["run"]["record"])
        if trace:
            self.assertTrue(record["spans"])

    def test_protocol(self):
        self.check("protocol", 0)
        self.check("protocol", 1)

    def test_service(self):
        self.check("service", 0)
        self.check("service", 1)

    def test_live(self):
        self.check("live", 0)
        self.check("live", 1)


if __name__ == "__main__":
    unittest.main()
