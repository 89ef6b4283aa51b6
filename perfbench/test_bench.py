#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size, in both modes.

    python3 perfbench/test_bench.py

Run from the root of a flowsched checkout.  For each workload of
BENCHMARK.json and each of --trace 0 and 1, it checks that the last line of
output is the result object, that the output checks passed with no failed
operation, and that every metric BENCHMARK.json names for that mode is
printed, with its unit, and no other.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out


class TinyRuns(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    out = run(w["name"], trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    last = out.stdout.strip().splitlines()[-1]
                    res = json.loads(last)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], out.stderr)
                    self.assertEqual(res["failed"], 0, out.stderr)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, v in res["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)
                    if trace == 0:
                        for name, v in res["metrics"].items():
                            self.assertGreater(v["value"], 0, name)

    def test_same_seed_same_outputs(self):
        # The repeat guard keeps the deterministic figures of this build and
        # seed between runs, so a second run fails if any of them drifted.
        for _ in range(2):
            out = run("offline-solve", 0)
            self.assertEqual(out.returncode, 0, out.stderr)
            self.assertTrue(json.loads(out.stdout.strip().splitlines()[-1])["correct"],
                            out.stderr)


if __name__ == "__main__":
    unittest.main()
