#!/usr/bin/env python3
"""Smoke test of scripts/perfbench_ab.py against stub benchmark checkouts.

Each stub checkout holds a perfbench/run.py that prints a canned result
line for the seed it is given, plus a BENCHMARK.json naming the metrics.
The test checks the interleaved order, the per-pair report and the exit
codes.  Run directly or through ctest (PerfbenchAbScript):

    python3 tests/perfbench_ab_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perfbench_ab.py"

STUB_RUN = """\
import argparse, json, os, sys
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
parser.add_argument("--seconds")
parser.add_argument("--trace")
args = parser.parse_args()
with open(os.environ["AB_ORDER_LOG"], "a") as log:
    log.write(f"{{args.seed}} {side}\\n")
print("perfbench: stub progress line")
print(json.dumps({{
    "correct": {correct}, "attempted": 10, "failed": 0,
    "metrics": {{
        "run_s": {{"value": {run_s} + 0.01 * args.seed, "unit": "s"}},
        "peak_rss_mb": {{"value": {rss}, "unit": "MB"}},
    }},
}}))
"""

BENCHMARK = {
    "end_to_end": [
        {"name": "run_s", "better": "lower"},
        {"name": "peak_rss_mb", "better": "lower"},
    ],
}


def make_checkout(root, side, run_s, rss, correct=True):
    checkout = Path(root) / side
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB_RUN.format(
        side=side, run_s=run_s, rss=rss, correct="True" if correct else "False"))
    (checkout / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return checkout


class PerfbenchAbTest(unittest.TestCase):
    def run_ab(self, root, base, new, seeds="1,2,3"):
        order_log = Path(root) / "order.log"
        order_log.write_text("")
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(base), str(new),
             "--workload", "fig4-flat", "--seeds", seeds, "--seconds", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, AB_ORDER_LOG=str(order_log)))
        return proc, order_log.read_text().split("\n")[:-1]

    def test_interleaves_and_counts_wins(self):
        with tempfile.TemporaryDirectory() as root:
            base = make_checkout(root, "base", run_s=1.0, rss=50.0)
            new = make_checkout(root, "new", run_s=0.7, rss=40.0)
            proc, order = self.run_ab(root, base, new)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            # Even pairs run base first, odd pairs new first.
            self.assertEqual(order, ["1 base", "1 new", "2 new", "2 base",
                                     "3 base", "3 new"])
            self.assertIn("run_s        new won 3/3", proc.stdout)
            self.assertIn("peak_rss_mb  new won 3/3", proc.stdout)
            # Seed 1: 0.71 / 1.01.
            self.assertIn("new/base  0.703", proc.stdout)
            self.assertIn("median change -29.4%", proc.stdout)

    def test_slower_candidate_loses(self):
        with tempfile.TemporaryDirectory() as root:
            base = make_checkout(root, "base", run_s=1.0, rss=50.0)
            new = make_checkout(root, "new", run_s=1.5, rss=50.0)
            proc, _ = self.run_ab(root, base, new, seeds="4,5")
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertIn("run_s        new won 0/2", proc.stdout)

    def test_incorrect_result_fails(self):
        with tempfile.TemporaryDirectory() as root:
            base = make_checkout(root, "base", run_s=1.0, rss=50.0)
            new = make_checkout(root, "new", run_s=0.7, rss=40.0,
                                correct=False)
            proc, _ = self.run_ab(root, base, new, seeds="1")
            self.assertEqual(proc.returncode, 1)
            self.assertIn("new: correct is false", proc.stdout)

    def test_missing_run_script_is_a_usage_error(self):
        with tempfile.TemporaryDirectory() as root:
            base = make_checkout(root, "base", run_s=1.0, rss=50.0)
            proc, _ = self.run_ab(root, base, Path(root) / "absent")
            self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
