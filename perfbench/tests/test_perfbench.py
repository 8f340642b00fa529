"""Tests of the repository benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark (as perfbench/run.py does), runs its C++ self-test,
checks BENCHMARK.json against the names the benchmark emits by running every
workload briefly in both modes (about a minute and a half), and checks that
the benchmark refuses to run without the library sources.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_benchmark(workload, trace, seconds="1", cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", seconds, "--trace", trace],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


class BenchmarkJsonTest(unittest.TestCase):
    def test_parses_with_the_required_keys(self):
        bench = load_benchmark()
        self.assertEqual(
            set(bench), {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"})
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertIn(m["better"], ("higher", "lower"))

    def test_names_and_units_match_the_pattern(self):
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"]["unit"], "s")
        self.assertEqual(bounds["setup_s"]["better"], "lower")
        self.assertEqual(bounds["setup_s"]["bound"],
                         max(m["bound"] for m in bounds.values()))


class SelfTest(unittest.TestCase):
    def test_cpp_selftest_passes(self):
        out = run.build(run.build_dir())
        result = subprocess.run([str(out / "perfbench_selftest")],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=60)
        self.assertEqual(result.returncode, 0, result.stderr)


class EmissionTest(unittest.TestCase):
    """Every workload emits exactly the metrics BENCHMARK.json names."""

    def check(self, trace, key):
        bench = load_benchmark()
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                result = run_benchmark(w["name"], trace)
                self.assertEqual(result.returncode, 0, result.stderr[-3000:])
                line = json.loads(result.stdout.strip().splitlines()[-1])
                self.assertEqual(set(line),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(line["correct"], result.stderr[-3000:])
                self.assertEqual(line["failed"], 0)
                self.assertGreaterEqual(line["attempted"], 1)
                emitted = {k: v["unit"] for k, v in line["metrics"].items()}
                self.assertEqual(emitted, expected)
                if trace == "0":
                    for k, v in line["metrics"].items():
                        self.assertGreater(v["value"], 0, k)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        self.check("0", "end_to_end")

    def test_traced_run_emits_every_per_layer_metric(self):
        self.check("1", "per_layer")


class OutsideCheckoutTest(unittest.TestCase):
    def test_refuses_without_the_library_sources(self):
        # A scratch directory inside the build root keeps the test's files
        # within the checkout.
        scratch = run.build_dir()
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = run_benchmark("fig4-flat", "0", cwd=tmp)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn("{", result.stdout)


if __name__ == "__main__":
    unittest.main()
