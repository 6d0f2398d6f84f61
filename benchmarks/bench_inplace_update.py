"""Per-insert cost against document size: in-place updates vs the functional twin.

The paper's insertion rewrite (Appendix A) adds one conditional copy of the
inserted subtree per match, so an update should cost matches × subtree
size, not document size.  This scaling gate measures exactly that through
the warehouse front door: a stream of single-match 5-node entity inserts
(``ProbXMLWarehouse.insert`` under ``/warehouse/sourceK``) into hidden-web
style documents of 2k, 8k and 32k nodes, reporting the per-insert p50 at
each size (the best of three repetitions on fresh documents, which damps
noise from other processes) and the exponent of a log-log least-squares
fit of p50 against node count.

The **functional twin** replays the same updates through
:func:`~repro.updates.probtree_updates.apply_update_to_probtree` — copy the
prob-tree, rewrite the copy, migrate the caches — which is what every
warehouse update paid before updates ran in place: an O(n) copy plus a cold
structural index on the copy.

Emits one JSON object to stdout (per-insert ``latency_samples_s`` included,
so ``run_all.py`` reports p50/p95/p99 into the consolidated summary)::

    PYTHONPATH=src python benchmarks/bench_inplace_update.py

Exit-code gates: at 8k nodes the in-place p50 is ≥ 10× below the
functional twin's, the in-place and functional documents are identical
after the stream, and the warehouse counted every update as in place
(``updates_copied == 0``).  ``REPRO_BENCH_SMOKE=1`` (set by
``run_all.py --check-gates``) drops the 32k size and shortens the streams.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

if __package__ is None and str(Path(__file__).resolve().parents[1] / "src") not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import os

from repro.core.context import ExecutionContext
from repro.core.engine import ProbXMLWarehouse
from repro.core.events import ProbabilityDistribution
from repro.core.probtree import ProbTree
from repro.formulas.literals import Condition
from repro.queries.path import parse_path
from repro.trees.datatree import DataTree
from repro.updates.operations import Insertion, ProbabilisticUpdate
from repro.updates.probtree_updates import apply_update_to_probtree

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = [2000, 8000] if SMOKE else [2000, 8000, 32000]
GATE_SIZE = 8000
INSERTS = 20 if SMOKE else 40
WARM_UP = 2
SOURCES = 40
SOURCE_STRIDE = 7  # coprime to SOURCES: a full cycle over the sources
ENTITY_NODES = 5
REPETITIONS = 3
GATE = 10.0


def _entity(kind: str, title: str, url: str) -> DataTree:
    entity = DataTree(kind)
    title_node = entity.add_child(entity.root, "title")
    entity.add_child(title_node, title)
    url_node = entity.add_child(entity.root, "url")
    entity.add_child(url_node, url)
    return entity


def _document(nodes: int) -> ProbTree:
    """A ``warehouse/sourceK/<entity>`` document of about *nodes* nodes.

    Every 5-node entity is conditioned on its own extraction event, like
    the hidden-web scenario's extracted facts.
    """
    tree = DataTree("warehouse")
    sources = [tree.add_child(tree.root, f"source{k}") for k in range(1, SOURCES + 1)]
    entities = (nodes - 1 - SOURCES) // ENTITY_NODES
    probabilities = {}
    conditions = {}
    for i in range(entities):
        source = sources[i % SOURCES]
        kind = ("movie", "person", "product")[i % 3]
        root = tree.add_subtree(
            source, _entity(kind, f"title-{i}", f"http://s{i % SOURCES}.example/{i}")
        )[0]
        event = f"e{i}"
        probabilities[event] = 0.5 + (i % 45) / 100
        conditions[root] = Condition.of(event)
    return ProbTree(tree, ProbabilityDistribution(probabilities), conditions)


def _updates(count: int) -> list:
    """*count* single-match entity inserts, spread evenly over the sources.

    The stride visits the sources in a fixed permutation, so every prefix
    of the stream lands at early, middle and late preorder positions alike
    (an insert's index patch shifts the preorder suffix after its target).
    """
    return [
        ProbabilisticUpdate(
            Insertion(
                parse_path(f"/warehouse/source{1 + step * SOURCE_STRIDE % SOURCES}"),
                1,
                _entity("movie", f"new-{step}", f"http://new.example/{step}"),
            ),
            confidence=0.8,
        )
        for step in range(count)
    ]


def _in_place(document: ProbTree, updates: list):
    """Per-insert seconds through ``ProbXMLWarehouse.insert``, plus the warehouse."""
    warehouse = ProbXMLWarehouse(document)
    samples = []
    for step, update in enumerate(updates):
        operation = update.operation
        start = time.perf_counter()
        warehouse.insert(operation.query, operation.subtree, confidence=update.confidence)
        if step >= WARM_UP:
            samples.append(time.perf_counter() - start)
    return samples, warehouse


def _functional(document: ProbTree, updates: list):
    """Per-insert seconds of the copy-then-rewrite twin, plus its last document."""
    context = ExecutionContext()
    samples = []
    current = document
    for step, update in enumerate(updates):
        start = time.perf_counter()
        current = apply_update_to_probtree(current, update, context=context)
        if step >= WARM_UP:
            samples.append(time.perf_counter() - start)
    return samples, current


def _exponent(points) -> float:
    """Least-squares slope of log(p50) against log(nodes)."""
    xs = [math.log(nodes) for nodes, _ in points]
    ys = [math.log(p50) for _, p50 in points]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator


def _best_of(regime, size: int, updates: list):
    """The repetition of *regime* with the lowest per-insert p50 (fresh documents)."""
    runs = [regime(_document(size), updates) for _ in range(REPETITIONS)]
    return min(runs, key=lambda run: statistics.median(run[0]))


def run() -> dict:
    rows = []
    updates = _updates(INSERTS + WARM_UP)
    for size in SIZES:
        samples, warehouse = _best_of(_in_place, size, updates)
        twin_samples, twin = _best_of(_functional, size, updates)
        live = warehouse.get()
        nodes = live.node_count() - ENTITY_NODES * len(updates)
        stats = warehouse.stats
        in_place_p50 = statistics.median(samples)
        twin_p50 = statistics.median(twin_samples)
        rows.append(
            {
                "nodes": nodes,
                "inserts": len(samples),
                "in_place": {
                    "p50_ms": round(in_place_p50 * 1e3, 3),
                    "latency_samples_s": [round(value, 6) for value in samples],
                    "updates_in_place": stats.updates_in_place,
                    "updates_copied": stats.updates_copied,
                },
                "functional": {
                    "p50_ms": round(twin_p50 * 1e3, 3),
                    "latency_samples_s": [round(value, 6) for value in twin_samples],
                },
                "speedup": round(twin_p50 / max(in_place_p50, 1e-9), 1),
                "identical": live.tree.same_tree(twin.tree)
                and live.conditions() == twin.conditions()
                and live.distribution == twin.distribution,
            }
        )
    return {
        "benchmark": "per-insert cost vs document size: in place vs functional twin",
        "entry_point": "ProbXMLWarehouse.insert (in place); apply_update_to_probtree (twin)",
        "sizes": SIZES,
        "rows": rows,
        "in_place_exponent": round(
            _exponent([(row["nodes"], row["in_place"]["p50_ms"]) for row in rows]), 3
        ),
        "functional_exponent": round(
            _exponent([(row["nodes"], row["functional"]["p50_ms"]) for row in rows]), 3
        ),
        "gate": {"size": GATE_SIZE, "min_speedup": GATE},
    }


def main() -> int:
    report = run()
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    ok = all(
        row["identical"]
        and row["in_place"]["updates_copied"] == 0
        and row["in_place"]["updates_in_place"] == INSERTS + WARM_UP
        for row in report["rows"]
    )
    gate_row = report["rows"][SIZES.index(GATE_SIZE)]
    return 0 if ok and gate_row["speedup"] >= GATE else 1


if __name__ == "__main__":
    sys.exit(main())
