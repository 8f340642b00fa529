#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig4-flat --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The first call configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus the driver)
into .bench_build/perfbench; later calls rebuild incrementally.  The last
line of stdout is the run's JSON result; build output and progress go to
stderr.  With --trace 1 the recorded spans are also written to
.bench_build/perfbench/spans/<workload>-seed<seed>.json.

Exits 2 without a result when the library sources are missing (a directory
holding only the benchmark), 1 when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Seconds one measurement may take before it is stopped; the build of a
# fresh checkout happens before this clock starts.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    """The build root is $CARGO_TARGET_DIR when set (relative paths resolve
    against the checkout root), else .bench_build."""
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark; returns the binary dir."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target",
         "vrl_perfbench", "perfbench_selftest"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "core" / "vrl_system.hpp").is_file():
        log(f"library sources not found under {ROOT / 'src'}; "
            "run from a full checkout")
        return 2
    try:
        out = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    command = [str(out / "vrl_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(spans / f"{args.workload}-seed{args.seed}.json")]
    # subprocess.run kills and reaps the child when the timeout expires.
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if result.returncode != 0:
        log(f"benchmark exited with {result.returncode}")
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
