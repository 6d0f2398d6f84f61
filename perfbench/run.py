"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest|analyst|service --seed N --seconds S --trace 0|1

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs the workload untraced and
then traced and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared_metrics(trace: bool):
    """``[(name, unit), ...]`` that ``BENCHMARK.json`` declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def render(result, trace: bool):
    """The report lines of *result*, ending with the JSON result line."""
    metrics = {
        name: {"value": result.metrics[name], "unit": unit}
        for name, unit in declared_metrics(trace)
    }
    for name, entry in metrics.items():
        yield f"  {name:32s} {entry['value']:14.6g} {entry['unit']}"
    for op, count in result.samples.items():
        yield (
            f"  {op + '_p50_ms':32s} {result.extra[op + '_p50_ms']:14.6g} ms"
            f"  {op + '_p95_ms'} {result.extra[op + '_p95_ms']:.6g} ms  (n={count})"
        )
    for name, value in sorted(result.extra.items()):
        if not name.endswith(("_p50_ms", "_p95_ms")):
            yield f"  {name:32s} {value:14.6g}"
    yield f"  attempted {result.attempted}  failed {result.failed}"
    for error in result.errors[:10]:
        yield f"  error: {error}"
    yield json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("ingest", "analyst", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"run.py: no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, source)

    from workloads import WORKLOADS

    trace = bool(arguments.trace)
    result = WORKLOADS[arguments.workload](arguments.seed, arguments.seconds, trace)
    print(f"workload {arguments.workload}  seed {arguments.seed}  trace {arguments.trace}")
    for line in render(result, trace):
        print(line)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
