"""Tests of the benchmark itself: generators, span arithmetic, output, tiny runs.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    ingest_setups=2,
    ingest_builds=2,
    setups=2,
    ingest_sources=4,
    ingest_entities=40,
    analyst_sources=5,
    analyst_entities=60,
    service_documents=2,
    service_sources=3,
    service_entities=20,
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- generators ----------------------------------------------------------------


def test_document_generator_is_deterministic_and_balanced():
    first = gen.hidden_web_document(random.Random(7), 10, 200)
    second = gen.hidden_web_document(random.Random(7), 10, 200)
    other = gen.hidden_web_document(random.Random(8), 10, 200)
    assert first == second
    assert first[0] != other[0]
    catalog = first[1]
    assert [sum(1 for s, _, _ in catalog if s == k) for k in range(1, 11)] == [20] * 10
    assert first[0].count(" and not r") == 30


def test_question_and_stream_generators_are_deterministic():
    _, catalog = gen.hidden_web_document(random.Random(1), 5, 50)
    questions = [gen.analyst_questions(random.Random(3), catalog, 5, 300) for _ in range(2)]
    assert questions[0] == questions[1]
    assert {op for op, _ in questions[0]} == {"query", "probability"}
    assert gen.ingest_stream(4, 5, 30) == gen.ingest_stream(4, 5, 30)
    assert gen.service_plan(5, 2, 3, 20, 2, 50) == gen.service_plan(5, 2, 3, 20, 2, 50)


def test_service_plan_keeps_each_document_on_one_connection():
    _, plans = gen.service_plan(2, 4, 3, 20, 2, 400)
    owners = {}
    for connection, plan in enumerate(plans):
        for _, body in plan:
            assert owners.setdefault(body["name"], connection) == connection
    events = [body["event"] for plan in plans for endpoint, body in plan if endpoint == "/update"]
    assert len(events) == len(set(events)) > 0


def test_service_plan_mix_is_exact_per_document():
    _, (plan,) = gen.service_plan(3, 4, 3, 20, 1, 400)
    counts = Counter((body["name"], endpoint) for endpoint, body in plan)
    assert counts == {
        (f"d{i}", endpoint): share
        for i in range(4)
        for endpoint, share in (("/update", 15), ("/probability", 25), ("/query", 60))
    }


def test_update_subtrees_are_datatree_xml():
    from repro.xmlio import datatree_from_xml

    for op, _ in gen.ingest_stream(1, 4, 40):
        if op["kind"] == "insert":
            assert datatree_from_xml(op["subtree"]).node_count() == 5


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    spans = [
        [0, "a", 0.0, 10.0, -1],
        [1, "b", 1.0, 4.0, 0],
        [2, "b", 3.0, 6.0, 0],   # overlaps its sibling: 1..6 covered once
        [3, "c", 1.5, 2.0, 1],
        [4, "a", 20.0, 21.0, -1],
    ]
    times = tracing.self_times(spans)
    assert math.isclose(times["a"], (10 - 5) + 1)
    assert math.isclose(times["b"], (3 - 0.5) + 3)
    assert math.isclose(times["c"], 0.5)


def test_tracer_records_layer_spans_and_restores_originals():
    from repro import ProbXMLWarehouse
    from repro.core.probtree import ProbTree
    from repro.queries.treepattern import TreePattern

    original = (ProbTree.__dict__["copy"], TreePattern.__dict__["matches"])
    xml, _ = gen.hidden_web_document(random.Random(1), 3, 12)
    with tracing.Tracer() as tracer:
        warehouse = ProbXMLWarehouse(xml)
        warehouse.insert("/warehouse/source1", warehouse.document.copy(), confidence=0.5)
        warehouse.probability("/warehouse/*/movie")
    assert (ProbTree.__dict__["copy"], TreePattern.__dict__["matches"]) == original
    names = {span[1] for span in tracer.spans}
    assert {"xmlio.parse", "updates.rewrite", "probtree.copy", "queries.match", "pricing"} <= names
    assert tracer.counts["updates.rewrite"] == 1
    assert tracer.counts["probtree.set_condition"] > 0
    ids = {span[0] for span in tracer.spans}
    assert all(span[4] == -1 or span[4] in ids for span in tracer.spans)


# -- output --------------------------------------------------------------------


def test_printed_metric_names_are_declared():
    spec = _spec()
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layer = {m["name"] for m in spec["per_layer"]}
    assert {name for name, _ in tracing.LAYER_METRICS} == declared_layer
    assert dict(tracing.LAYER_METRICS) == {m["name"]: m["unit"] for m in spec["per_layer"]}
    result = workloads.Result(metrics={name: 1.0 for name in declared_e2e}, attempted=1)
    last = json.loads(list(run.render(result, False))[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == declared_e2e
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


# -- tiny end-to-end passes ----------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_correctly(workload, trace):
    result = workloads.WORKLOADS[workload](3, 1.0, trace, TINY)
    assert result.correct, result.errors
    assert result.attempted > 0
    lines = list(run.render(result, trace))
    metrics = json.loads(lines[-1])["metrics"]
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]), name
    if not trace:
        for name in ("setup_s", "ops_per_s", "query_p50_ms", "peak_rss_mb"):
            assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("trace", [False, True])
def test_timed_phases_do_fixed_work(trace):
    """The op count follows from --seconds alone, never from the clock."""
    phases = 2 if trace else 1
    ingest = workloads.run_ingest(2, 1.0, trace, TINY)
    steps = workloads._work(1.0, workloads.INGEST_STEPS_PER_S, trace)
    assert ingest.attempted == phases * 2 * steps
    analyst = workloads.run_analyst(2, 1.0, trace, TINY)
    assert analyst.attempted == phases * workloads._work(1.0, workloads.ANALYST_QUESTIONS_PER_S, trace)
    assert "capped_phases" not in ingest.extra and "capped_phases" not in analyst.extra


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result = workloads.run_ingest(5, 1.0, True, TINY)
        counts.append({k: v for k, v in result.metrics.items() if not k.endswith(("_s", "_frac"))})
    assert counts[0] == counts[1]


def test_run_refuses_a_tree_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
