"""Naive vs indexed tree-pattern matching across tree sizes.

Runs the naive matcher and the indexed :class:`PatternPlan` over the same
random documents and a 5-node
descendant-edge pattern, verifies they return identical match sets, and
emits one JSON object to stdout::

    PYTHONPATH=src python benchmarks/bench_query_plan.py

The ``deep`` workload (capped fan-out, so documents are tall) is where the
naive matcher's per-edge ``descendants()`` re-walks hurt most; ``shallow``
is the uniform random-attachment shape of the other benchmarks.  The
``indexed_cold_ms`` column includes the one-off structural index build,
``indexed_ms`` is the steady-state (shared-index) cost that batch workloads
see.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

if __package__ is None and str(Path(__file__).resolve().parents[1] / "src") not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.queries.plan import PatternPlan
from repro.queries.treepattern import EDGE_DESCENDANT, TreePattern
from repro.trees.index import tree_index
from repro.workloads.random_trees import random_datatree

SIZES = [250, 500, 1000, 2000]
LABELS = tuple("ABCDEFGH")
PATTERN_STEPS = ["B", "C", "D", "B"]  # + wildcard root = 5 pattern nodes
REPETITIONS = 7


def _pattern() -> TreePattern:
    pattern = TreePattern("*")
    current = pattern.root
    for label in PATTERN_STEPS:
        current = pattern.add_child(current, label, edge=EDGE_DESCENDANT)
    return pattern


def _best_of(callable_, repetitions: int = REPETITIONS):
    best = float("inf")
    result = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def run() -> dict:
    rows = []
    for shape, max_children in (("shallow", None), ("deep", 3)):
        for size in SIZES:
            tree = random_datatree(
                size, labels=LABELS, seed=size, max_children=max_children
            )
            pattern = _pattern()

            naive_s, naive_matches = _best_of(
                lambda: pattern.matches(tree, matcher="naive")
            )
            # Cold: index built from scratch (the no-op relabel bumps the
            # tree's mutation version, invalidating the cached index).
            def cold():
                tree.set_label(tree.root, tree.root_label)
                return PatternPlan(pattern, tree).matches()

            cold_s, _ = _best_of(cold)
            tree_index(tree)  # warm the shared index
            indexed_s, indexed_matches = _best_of(
                lambda: PatternPlan(pattern, tree).matches()
            )

            if set(naive_matches) != set(indexed_matches):
                raise AssertionError(
                    f"matcher disagreement on size={size} shape={shape}"
                )
            rows.append(
                {
                    "shape": shape,
                    "nodes": size,
                    "pattern_nodes": len(PATTERN_STEPS) + 1,
                    "matches": len(naive_matches),
                    "naive_ms": round(naive_s * 1e3, 3),
                    "indexed_cold_ms": round(cold_s * 1e3, 3),
                    "indexed_ms": round(indexed_s * 1e3, 3),
                    "speedup": round(naive_s / max(indexed_s, 1e-9), 1),
                }
            )
    return {
        "benchmark": "query-plan matcher: naive vs indexed",
        "pattern": "* //B //C //D //B (descendant edges)",
        "repetitions": REPETITIONS,
        "rows": rows,
    }


def main() -> int:
    report = run()
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    worst_2000 = min(
        row["speedup"] for row in report["rows"] if row["nodes"] == 2000
    )
    return 0 if worst_2000 >= 10.0 else 1


if __name__ == "__main__":
    sys.exit(main())
