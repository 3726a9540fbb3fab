#!/usr/bin/env python3
"""Tests for bench_compare.py.  Run: python3 -m unittest discover -s tools"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "bench_compare.py")

BENCH = {
    "bench": "fig07_per_dataset",
    "provenance": {"git_sha": "abc"},
    "summary": {"scale": 0.05, "threads": 2, "wall_ms": 812.5},
    "rows": [
        {"dataset": "twitter", "policy": "s3fifo", "size": "large", "miss_ratio": 0.125,
         "requests": 40000, "elapsed_ms": 12.0},
        {"dataset": "twitter", "policy": "lru", "size": "large", "miss_ratio": 0.25,
         "requests": 40000, "elapsed_ms": 9.5},
        # Rows with the same label are paired in file order.
        {"dataset": "msr", "policy": "fifo", "threads": 1, "throughput_mops": 3.0,
         "write_amplification": 1.5},
        {"dataset": "msr", "policy": "fifo", "threads": 2, "throughput_mops": 5.0,
         "write_amplification": 1.5},
    ],
}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def run_compare(self, base, new):
        paths = []
        for name, doc in (("base.json", base), ("new.json", new)):
            path = os.path.join(self.dir.name, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        return subprocess.run([sys.executable, SCRIPT] + paths, capture_output=True, text=True)

    def test_identical_files_pass(self):
        result = self.run_compare(BENCH, BENCH)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("every deterministic field equal", result.stdout)

    def test_timing_fields_may_differ(self):
        new = copy.deepcopy(BENCH)
        new["summary"]["wall_ms"] = 400.0
        new["rows"][0]["elapsed_ms"] = 99.0
        new["rows"][2]["throughput_mops"] = 7.0
        result = self.run_compare(BENCH, new)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("summary.wall_ms: 812.5 -> 400 (-50.8%)", result.stdout)

    def test_flipped_miss_ratio_fails(self):
        new = copy.deepcopy(BENCH)
        new["rows"][1]["miss_ratio"] = 0.2500001
        result = self.run_compare(BENCH, new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("policy=lru", result.stderr)
        self.assertIn("miss_ratio", result.stderr)

    def test_missing_row_fails(self):
        new = copy.deepcopy(BENCH)
        del new["rows"][0]
        result = self.run_compare(BENCH, new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("row missing from NEW", result.stderr)
        self.assertIn("policy=s3fifo", result.stderr)

    def test_different_benches_are_a_usage_error(self):
        new = copy.deepcopy(BENCH)
        new["bench"] = "flash"
        self.assertEqual(self.run_compare(BENCH, new).returncode, 2)

    def test_different_scales_are_a_usage_error(self):
        base = copy.deepcopy(BENCH)
        base["provenance"]["bench_scale"] = 1
        new = copy.deepcopy(base)
        new["provenance"]["bench_scale"] = 0.05
        result = self.run_compare(base, new)
        self.assertEqual(result.returncode, 2)
        self.assertIn("different scales", result.stderr)
        # A file that records no scale (older than the field) still compares.
        self.assertEqual(self.run_compare(BENCH, new).returncode, 0)


if __name__ == "__main__":
    unittest.main()
