"""Run each workload several times with different seeds and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py [--runs 10]

It runs every workload with seeds 1 to ``--runs``.  For every end-to-end
metric it prints the median of the runs and the spread: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the bound ``BENCHMARK.json``
allows, and then every run's value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Measure run-to-run spread.")
    parser.add_argument("--runs", type=int, default=10)
    arguments = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(1, arguments.runs + 1):
            completed = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            last = json.loads(completed.stdout.strip().splitlines()[-1])
            if completed.returncode != 0 or not last["correct"]:
                print(completed.stdout, completed.stderr, file=sys.stderr)
                return 1
            runs.append({name: entry["value"] for name, entry in last["metrics"].items()})
        print(f"{workload}: {len(runs)} runs", flush=True)
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            print(
                f"  {name:16s} median {statistics.median(values):12.6g}"
                f"  spread {spread(values):.4f}  bound {bound}"
                f"  values {' '.join(f'{v:.6g}' for v in values)}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
