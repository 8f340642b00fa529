#!/usr/bin/env python3
"""Smoke test of scripts/perfbench_ab.py against stub benchmark checkouts.

Each stub checkout holds a perfbench/run.py that prints a canned result
line for the seed it is given, plus a BENCHMARK.json naming the metrics
and their bounds.  The test checks the interleaved order, the per-pair
report, each verdict and the exit codes.  Run directly or through ctest (PerfbenchAbScript):

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
run_s = {run_s!r}
run_s = run_s[args.seed] if isinstance(run_s, dict) else run_s + 0.01 * args.seed
print("perfbench: stub progress line")
print(json.dumps({{
    "correct": {correct}, "attempted": 10, "failed": 0,
    "metrics": {{
        "run_s": {{"value": run_s, "unit": "s"}},
        "peak_rss_mb": {{"value": {rss}, "unit": "MB"}},
    }},
}}))
"""

BENCHMARK = {
    "end_to_end": [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.25},
    ],
}


def make_checkout(root, side, run_s, rss, correct=True):
    """A stub checkout; `run_s` is a base value (plus 0.01 per seed) or a
    {seed: value} dict."""
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
            self.assertIn("run_s        verdict: gain", proc.stdout)
            self.assertIn("peak_rss_mb  verdict: gain", proc.stdout)

    def test_slower_candidate_loses(self):
        with tempfile.TemporaryDirectory() as root:
            base = make_checkout(root, "base", run_s=1.0, rss=50.0)
            new = make_checkout(root, "new", run_s=1.5, rss=50.0)
            proc, _ = self.run_ab(root, base, new, seeds="4,5")
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertIn("run_s        new won 0/2", proc.stdout)
            # 50% slower is beyond the 0.25 bound; equal memory is not.
            self.assertIn("run_s        verdict: regression", proc.stdout)
            self.assertIn("peak_rss_mb  verdict: no change", proc.stdout)

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        seeds = range(1, 11)
        base_run_s = {seed: 1.0 + 0.01 * seed for seed in seeds}
        for losses, expected in ((1, "gain"), (2, "no change")):
            with self.subTest(losses=losses), \
                    tempfile.TemporaryDirectory() as root:
                new_run_s = {seed: 0.5 if seed <= 10 - losses else 2.0
                             for seed in seeds}
                base = make_checkout(root, "base", run_s=base_run_s, rss=50.0)
                new = make_checkout(root, "new", run_s=new_run_s, rss=50.0)
                proc, _ = self.run_ab(root, base, new,
                                      seeds=",".join(map(str, seeds)))
                self.assertEqual(proc.returncode, 0,
                                 proc.stdout + proc.stderr)
                self.assertIn(f"run_s        new won {10 - losses}/10",
                              proc.stdout)
                self.assertIn(f"run_s        verdict: {expected}",
                              proc.stdout)

    def test_base_spread_wider_than_bound_is_unresolved(self):
        with tempfile.TemporaryDirectory() as root:
            # BASE IQR/median 1.5/2.5 > 0.25; NEW 4% slower in the median.
            base = make_checkout(root, "base", rss=50.0,
                                 run_s={1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0})
            new = make_checkout(root, "new", rss=50.0,
                                run_s={1: 1.1, 2: 2.1, 3: 3.1, 4: 4.1})
            proc, _ = self.run_ab(root, base, new, seeds="1,2,3,4")
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertIn("run_s        verdict: unresolved", proc.stdout)
            self.assertIn("peak_rss_mb  verdict: no change", proc.stdout)

    def test_wide_spread_with_every_new_run_better_is_no_change(self):
        with tempfile.TemporaryDirectory() as root:
            # BASE IQR 2.325 over median 1.15: too wide for a gain of 0.25,
            # but every NEW run beats every BASE run.
            base = make_checkout(root, "base", rss=50.0,
                                 run_s={1: 1.0, 2: 1.1, 3: 1.2, 4: 10.0})
            new = make_checkout(root, "new", rss=50.0,
                                run_s={1: 0.9, 2: 0.9, 3: 0.9, 4: 0.9})
            proc, _ = self.run_ab(root, base, new, seeds="1,2,3,4")
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertIn("run_s        new won 4/4", proc.stdout)
            self.assertIn("run_s        verdict: no change", proc.stdout)

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
