"""Run every benchmark and consolidate the results into BENCH_summary.json.

The suite mixes two benchmark styles and this driver handles both:

* **standalone scripts** (``bench_context_cache.py``, ``bench_query_plan.py``,
  ``bench_formula_engine.py``) — run as subprocesses; stdout is stored as
  parsed JSON when it is JSON, as raw text otherwise, and the script's exit
  code is its own performance gate;
* **pytest-benchmark modules** (everything defining ``test_`` functions) —
  run through ``pytest --benchmark-json``; the per-test timing stats are
  condensed into ``{test: {mean_s, rounds}}``.

Loop-style benchmarks report latency **percentiles**, not just means: any
standalone report carrying a ``latency_samples_s`` list (one entry per
measured iteration, anywhere in the JSON) gets a sibling
``latency_percentiles_s`` with p50/p95/p99 computed by :func:`percentiles`,
and pytest-benchmark timings include the same three percentiles whenever the
per-round data is available.  Both land in ``BENCH_summary.json`` (and
``BENCH_gates.json`` for the gate subset) — the tail-latency view ROADMAP
item 5's streaming workloads are judged by.

Everything lands in one consolidated summary — the perf-trajectory artifact
the ROADMAP asks for::

    PYTHONPATH=src python benchmarks/run_all.py
    PYTHONPATH=src python benchmarks/run_all.py --only context_cache,query_plan
    PYTHONPATH=src python benchmarks/run_all.py --timeout 120
    PYTHONPATH=src python benchmarks/run_all.py --check-gates

``--check-gates`` is the fast regression tripwire tier-1 can afford: it runs
only the gate-bearing benchmarks (:data:`GATE_BENCHMARKS` — the ≥5×
incremental-index gate, the ≥3× formula-IR gate, the budgeted-pricing/
sampling gate, the snapshot-isolation overhead/throughput gate, the
sharded-service scatter-throughput/worker-GC gate, the ≥5×/≥10×
columnar-matching/mmap-load gate, the ≥5× journal-patched streaming
columnar gate and the ≥10× in-place-update scaling gate) in smoke mode
(``REPRO_BENCH_SMOKE=1`` shrinks sizes/iterations), writes to
``BENCH_gates.json`` by default (so the full ``BENCH_summary.json`` is never
clobbered by a subset), and exits nonzero when any gate regresses.

Exit code 0 iff every selected benchmark ran and passed (its gate for
standalone scripts, its assertions for pytest modules).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DEFAULT_OUTPUT = BENCH_DIR / "BENCH_summary.json"
GATES_OUTPUT = BENCH_DIR / "BENCH_gates.json"

#: Standalone benchmarks whose exit code asserts a ROADMAP performance gate;
#: ``--check-gates`` runs exactly these, in smoke mode.
GATE_BENCHMARKS = (
    "bench_incremental_index",
    "bench_formula_ir",
    "bench_sampling",
    "bench_snapshot",
    "bench_service",
    "bench_columnar",
    "bench_columnar_incremental",
    "bench_inplace_update",
)


def percentiles(samples) -> dict:
    """p50/p95/p99 of *samples* (seconds), by linear interpolation.

    The loop-style latency summary: means hide the tail a streaming
    workload actually feels, so every benchmark that measures per-iteration
    latencies reports these three points.
    """
    ordered = sorted(samples)

    def point(fraction: float) -> float:
        position = (len(ordered) - 1) * fraction
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        weight = position - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    return {
        "p50_s": round(point(0.50), 6),
        "p95_s": round(point(0.95), 6),
        "p99_s": round(point(0.99), 6),
    }


def _annotate_percentiles(report) -> None:
    """Attach ``latency_percentiles_s`` beside every ``latency_samples_s``.

    Walks the parsed JSON report of a standalone benchmark; any dict
    carrying a non-empty numeric ``latency_samples_s`` list gains a sibling
    percentile summary.  Mutates *report* in place.
    """
    if isinstance(report, dict):
        samples = report.get("latency_samples_s")
        if (
            isinstance(samples, list)
            and samples
            and all(isinstance(value, (int, float)) for value in samples)
        ):
            report["latency_percentiles_s"] = percentiles(samples)
        for value in list(report.values()):
            _annotate_percentiles(value)
    elif isinstance(report, list):
        for value in report:
            _annotate_percentiles(value)


def discover() -> list:
    return sorted(
        path for path in BENCH_DIR.glob("bench_*.py") if path.name != "run_all.py"
    )


def _is_pytest_module(path: Path) -> bool:
    text = path.read_text()
    return "def test_" in text and "def main(" not in text


def _environment(smoke: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    return env


def _run(command: list, timeout: float, start: float, smoke: bool = False) -> tuple:
    """Run *command*; returns (completed | None, seconds)."""
    try:
        completed = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=str(BENCH_DIR),
            env=_environment(smoke),
        )
    except subprocess.TimeoutExpired:
        return None, round(time.perf_counter() - start, 2)
    return completed, round(time.perf_counter() - start, 2)


def run_standalone(path: Path, timeout: float, smoke: bool = False) -> dict:
    completed, seconds = _run(
        [sys.executable, str(path)], timeout, time.perf_counter(), smoke
    )
    if completed is None:
        return {"kind": "standalone", "status": "timeout", "seconds": seconds}
    try:
        report = json.loads(completed.stdout)
        _annotate_percentiles(report)
    except (json.JSONDecodeError, ValueError):
        report = {"text": completed.stdout[-4000:]}
    result = {
        "kind": "standalone",
        "status": "ok" if completed.returncode == 0 else "gate-failed",
        "seconds": seconds,
        "exit_code": completed.returncode,
        "report": report,
    }
    if completed.returncode != 0:
        result["stderr_tail"] = completed.stderr[-2000:]
    return result


def run_pytest(path: Path, timeout: float) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        stats_path = Path(handle.name)
    try:
        completed, seconds = _run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(path),
                "-q",
                "--benchmark-disable-gc",
                f"--benchmark-json={stats_path}",
            ],
            timeout,
            time.perf_counter(),
        )
        if completed is None:
            return {"kind": "pytest", "status": "timeout", "seconds": seconds}
        timings = {}
        try:
            stats = json.loads(stats_path.read_text())
            for bench in stats.get("benchmarks", []):
                timing = {
                    "mean_s": round(bench["stats"]["mean"], 6),
                    "rounds": bench["stats"]["rounds"],
                }
                rounds_data = bench["stats"].get("data")
                if rounds_data:
                    timing["latency_percentiles_s"] = percentiles(rounds_data)
                elif "median" in bench["stats"]:
                    timing["p50_s"] = round(bench["stats"]["median"], 6)
                timings[bench["name"]] = timing
        except (OSError, json.JSONDecodeError, ValueError, KeyError):
            pass
        result = {
            "kind": "pytest",
            "status": "ok" if completed.returncode == 0 else "failed",
            "seconds": seconds,
            "exit_code": completed.returncode,
            "report": {"timings": timings},
        }
        if completed.returncode != 0:
            result["stdout_tail"] = completed.stdout[-2000:]
            result["stderr_tail"] = completed.stderr[-2000:]
        return result
    finally:
        stats_path.unlink(missing_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated substrings selecting which bench_*.py to run",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=900.0,
        help="per-benchmark timeout in seconds (default: 900)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"summary path (default: {DEFAULT_OUTPUT}, or {GATES_OUTPUT} "
        "with --check-gates)",
    )
    parser.add_argument(
        "--check-gates",
        action="store_true",
        help="run only the gate-bearing benchmarks (smoke mode) and exit "
        "nonzero when any performance gate regresses",
    )
    arguments = parser.parse_args(argv)

    scripts = discover()
    if arguments.check_gates:
        scripts = [path for path in scripts if path.stem in GATE_BENCHMARKS]
    if arguments.only:
        needles = [needle.strip() for needle in arguments.only.split(",") if needle.strip()]
        scripts = [
            path for path in scripts if any(needle in path.stem for needle in needles)
        ]
    if not scripts:
        print("no benchmarks selected", file=sys.stderr)
        return 2
    output = arguments.output
    if output is None:
        output = GATES_OUTPUT if arguments.check_gates else DEFAULT_OUTPUT

    summary = {"driver": "benchmarks/run_all.py", "benchmarks": {}}
    if arguments.check_gates:
        summary["mode"] = "check-gates (smoke)"
    failures = 0
    for path in scripts:
        print(f"running {path.name} ...", file=sys.stderr, flush=True)
        if _is_pytest_module(path):
            result = run_pytest(path, arguments.timeout)
        else:
            result = run_standalone(path, arguments.timeout, smoke=arguments.check_gates)
        summary["benchmarks"][path.stem] = result
        if result["status"] != "ok":
            failures += 1
        print(
            f"  -> {result['status']} ({result['kind']}) in {result['seconds']}s",
            file=sys.stderr,
            flush=True,
        )
    summary["total"] = len(scripts)
    summary["failed"] = failures

    output.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {output}", file=sys.stderr)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
