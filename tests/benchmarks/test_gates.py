"""Tier-1 tripwire: the benchmark gate runner stays wired and green.

``benchmarks/run_all.py --check-gates`` runs the gate-bearing standalone
benchmarks (≥5× incremental index, ≥3× formula IR, budgeted-pricing /
sampling latency, snapshot-isolation overhead ≤1.3× and threaded read
throughput ≥2×, sharded-service scatter ≥2× with restart-free worker-pool
GC, columnar matching ≥5× indexed at 100k nodes with mmap load ≥10×
re-parse, journal-patched columnar maintenance ≥5× rebuild-per-mutation on
a streaming workload, in-place warehouse inserts ≥10× the copy-then-rewrite
functional twin at 8k nodes) in smoke mode and exits nonzero when any gate
regresses.  The fast tests below check the selection logic and the
percentile summariser without running anything; the smoke-run test actually
executes the gates (seconds in smoke mode, still marked ``slow`` so the
fast tier stays deterministic on loaded machines — run it with
``--runslow``).
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
RUN_ALL = BENCH_DIR / "run_all.py"


def _load_run_all():
    spec = importlib.util.spec_from_file_location("bench_run_all", RUN_ALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_benchmarks_exist_and_are_standalone():
    module = _load_run_all()
    stems = {path.stem: path for path in module.discover()}
    assert set(module.GATE_BENCHMARKS) <= set(stems)
    for gate in module.GATE_BENCHMARKS:
        # Gates must be standalone scripts (exit code = the gate), not
        # pytest-benchmark modules.
        assert not module._is_pytest_module(stems[gate])


def test_percentiles_interpolate_the_tail():
    module = _load_run_all()
    # 1..100 ms: p50 interpolates between the 50th/51st order statistics.
    summary = module.percentiles([index / 1000 for index in range(1, 101)])
    assert summary == {"p50_s": 0.0505, "p95_s": 0.09505, "p99_s": 0.09901}
    assert module.percentiles([0.25]) == {
        "p50_s": 0.25,
        "p95_s": 0.25,
        "p99_s": 0.25,
    }


def test_annotate_percentiles_walks_nested_reports():
    module = _load_run_all()
    report = {
        "patched": {"latency_samples_s": [0.1, 0.2, 0.3]},
        "stages": [{"latency_samples_s": [0.4, 0.5]}],
        "not_samples": {"latency_samples_s": ["text"]},
        "empty": {"latency_samples_s": []},
    }
    module._annotate_percentiles(report)
    assert report["patched"]["latency_percentiles_s"]["p50_s"] == 0.2
    assert "latency_percentiles_s" in report["stages"][0]
    assert "latency_percentiles_s" not in report["not_samples"]
    assert "latency_percentiles_s" not in report["empty"]


def test_smoke_env_shrinks_the_gate_benchmarks(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    module = _load_run_all()
    assert module._environment(smoke=True)["REPRO_BENCH_SMOKE"] == "1"
    assert "REPRO_BENCH_SMOKE" not in module._environment(smoke=False)


@pytest.mark.slow
def test_check_gates_passes(tmp_path):
    output = tmp_path / "gates.json"
    completed = subprocess.run(
        [sys.executable, str(RUN_ALL), "--check-gates", "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    summary = json.loads(output.read_text())
    assert summary["mode"] == "check-gates (smoke)"
    assert summary["failed"] == 0
    assert set(summary["benchmarks"]) == {
        "bench_incremental_index",
        "bench_formula_ir",
        "bench_sampling",
        "bench_snapshot",
        "bench_service",
        "bench_columnar",
        "bench_columnar_incremental",
        "bench_inplace_update",
    }
    for result in summary["benchmarks"].values():
        assert result["status"] == "ok"
        assert result["exit_code"] == 0
