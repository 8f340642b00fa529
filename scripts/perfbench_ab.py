#!/usr/bin/env python3
"""Interleaved A/B comparison of the repository benchmark on two checkouts.

    python3 scripts/perfbench_ab.py BASE NEW --workload fig4-flat \\
        [--workload ddr4-audited ...] [--seeds 1,2,3,4,5] [--seconds 20]

BASE and NEW are checkout roots, each holding perfbench/run.py.  For every
workload and seed the script runs the benchmark once in each checkout,
alternating which side goes first (even pairs BASE first, odd pairs NEW
first), so slow drift of a shared host lands on both sides alike.  Each
run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` from the checkout root; its last stdout line is the JSON
result.

The metrics compared are the end-to-end metrics that BASE's
BENCHMARK.json declares (name, "better" direction and relative "bound"),
or every metric in the results when BASE has none.  Per pair it prints
each metric on both sides and the NEW/BASE ratio; per workload and metric
it then prints the pairs NEW won, the median paired change, each side's
median and quartiles, BASE's interquartile range (IQR), and one verdict:

  gain        NEW won at least 9/10 of the pairs (ties count for neither)
              and its median is better than BASE's by more than BASE's IQR;
  regression  NEW's median is worse than BASE's by more than the bound;
  unresolved  BASE's IQR/median is wider than the bound and not every NEW
              run beats every BASE run;
  no change   otherwise.

The first rule that holds is the verdict.  A metric without a bound can
only read gain or no change.

Exit code: 0 when every run produced a result with ``correct: true`` and
no failed operation, 1 otherwise (a failed run, a missing result or a
failed check on either side), 2 on bad arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def end_to_end_metrics(checkout):
    """{name: (better, bound or None)} from the checkout's BENCHMARK.json,
    or None."""
    path = Path(checkout) / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return {m["name"]: (m.get("better", "lower"), m.get("bound"))
            for m in doc.get("end_to_end", [])}


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; returns (result dict or None, error text)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError as err:
        return None, f"unparsable result line: {err}"


def quartiles(values):
    """(q1, median, q3) by linear interpolation; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def beats(value, other, better):
    """Whether `value` is strictly better than `other`."""
    return value < other if better == "lower" else value > other


def verdict(base, new, better, bound):
    """One metric's verdict from its paired BASE and NEW values (pair i of
    each list is one seed); see the module docstring for the rules."""
    wins = sum(1 for b, n in zip(base, new) if beats(n, b, better))
    base_q1, base_median, base_q3 = quartiles(base)
    new_median = quartiles(new)[1]
    iqr = base_q3 - base_q1
    shift = abs(new_median - base_median)
    if (wins * 10 >= 9 * len(base)
            and beats(new_median, base_median, better) and shift > iqr):
        return "gain"
    if bound is None or base_median == 0:
        return "no change"
    if (beats(base_median, new_median, better)
            and shift / abs(base_median) > bound):
        return "regression"
    if (iqr / abs(base_median) > bound
            and not all(beats(n, b, better) for b in base for n in new)):
        return "unresolved"
    return "no change"


def check_result(side, result):
    """Problems with one run's result, as printable strings."""
    problems = []
    if not result.get("correct", False):
        problems.append(f"{side}: correct is false")
    if result.get("failed", 0) != 0:
        problems.append(f"{side}: {result.get('failed')} failed operations")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout root of the baseline")
    parser.add_argument("new", help="checkout root of the candidate")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name (repeatable)")
    parser.add_argument("--seeds", default="1,2,3,4,5",
                        help="comma-separated seeds, one pair each")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds per run (run.py --seconds)")
    args = parser.parse_args(argv)

    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        parser.error(f"bad --seeds {args.seeds!r}")
    if not seeds:
        parser.error("need at least one seed")
    for checkout in (args.base, args.new):
        if not (Path(checkout) / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout}: no perfbench/run.py")

    declared = end_to_end_metrics(args.base)
    ok = True
    for workload in args.workload:
        pairs = []  # (seed, base result, new result)
        for index, seed in enumerate(seeds):
            sides = [("base", args.base), ("new", args.new)]
            if index % 2 == 1:
                sides.reverse()
            results = {}
            for side, checkout in sides:
                result, error = run_once(checkout, workload, seed,
                                         args.seconds)
                if result is None:
                    print(f"{workload} seed {seed}: {side} run failed "
                          f"({error})")
                    ok = False
                    continue
                for problem in check_result(side, result):
                    print(f"{workload} seed {seed}: {problem}")
                    ok = False
                results[side] = result
            if len(results) == 2:
                pairs.append((seed, results["base"], results["new"]))

        if not pairs:
            continue
        metrics = declared
        if metrics is None:
            metrics = {name: ("lower", None)
                       for name in pairs[0][1]["metrics"]}
        print(f"== {workload}: {len(pairs)} pairs "
              f"(even pairs ran base first, odd pairs new first)")
        for name, (better, bound) in metrics.items():
            rows = [(seed, b["metrics"][name]["value"],
                     n["metrics"][name]["value"])
                    for seed, b, n in pairs
                    if name in b["metrics"] and name in n["metrics"]]
            if not rows:
                continue
            for seed, base_value, new_value in rows:
                ratio = new_value / base_value if base_value else float("nan")
                print(f"  {name:12s} seed {seed:>3}: base {base_value:10.4f}"
                      f"  new {new_value:10.4f}  new/base {ratio:6.3f}")
            base_values = [b for _, b, _ in rows]
            new_values = [n for _, _, n in rows]
            wins = sum(1 for _, b, n in rows if beats(n, b, better))
            changes = [(n - b) / b * 100.0 for _, b, n in rows if b]
            base_q = quartiles(base_values)
            new_q = quartiles(new_values)
            median_change = statistics.median(changes) if changes else 0.0
            print(f"  {name:12s} new won {wins}/{len(rows)}; median change "
                  f"{median_change:+.1f}%; base median {base_q[1]:.4f} "
                  f"[{base_q[0]:.4f}, {base_q[2]:.4f}] "
                  f"IQR {base_q[2] - base_q[0]:.4f}; new median "
                  f"{new_q[1]:.4f} [{new_q[0]:.4f}, {new_q[2]:.4f}] "
                  f"(better: {better})")
            print(f"  {name:12s} verdict: "
                  f"{verdict(base_values, new_values, better, bound)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
