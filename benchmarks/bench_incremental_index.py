"""Incremental index maintenance vs rebuild-per-update on mixed workloads.

Interleaves single-node mutations with indexed pattern queries over the same
random documents and measures two regimes:

* **patched** — the shipping path: each mutation journals itself and the
  next query replays the journal onto the cached :class:`TreeIndex`
  (:meth:`TreeIndex.patch`);
* **rebuild** — the pinned pre-incremental baseline: the cached index is
  dropped before every query (exactly what the old version-counter-only
  invalidation did), so each query pays a full O(n) build.

Emits one JSON object to stdout::

    PYTHONPATH=src python benchmarks/bench_incremental_index.py

The exit-code gate asserts the ROADMAP target: ≥ 5× speedup over
rebuild-per-update at 2000 nodes with single-node mutations.  A second table
shows the context answer cache staying warm across label-disjoint updates
(label-targeted invalidation), with the wholesale-invalidation cost next to
it for reference.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

if __package__ is None and str(Path(__file__).resolve().parents[1] / "src") not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import os
import random

from repro.core.context import ExecutionContext
from repro.core.probtree import ProbTree
from repro.queries.treepattern import EDGE_DESCENDANT, TreePattern, child_chain
from repro.queries.evaluation import evaluate_on_probtree
from repro.queries.plan import PatternPlan
from repro.trees.index import tree_index
from repro.workloads.random_trees import random_datatree

#: ``run_all.py --check-gates`` sets this: keep only the gate-bearing size
#: with fewer rounds so tier-1 can afford the tripwire.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = [2000] if SMOKE else [500, 1000, 2000]
LABELS = tuple("ABCDEFGH")
PATTERN_STEPS = ["B", "C", "D", "B"]  # + wildcard root = 5 pattern nodes
ROUNDS = 60 if SMOKE else 150
REPETITIONS = 2 if SMOKE else 3


def _pattern() -> TreePattern:
    pattern = TreePattern("*")
    current = pattern.root
    for label in PATTERN_STEPS:
        current = pattern.add_child(current, label, edge=EDGE_DESCENDANT)
    return pattern


def _mutations(tree, rounds: int, seed: int):
    """A reproducible single-node mutation per round: relabel / add / delete.

    Labels cycle through index-visible values so postings genuinely change;
    add/delete pair up so the document size stays stable across the run.
    """
    rng = random.Random(seed)
    plan = []
    for i in range(rounds):
        nodes = [n for n in tree.nodes() if n != tree.root]
        kind = i % 3
        if kind == 0:
            plan.append(("relabel", rng.choice(nodes), rng.choice(LABELS)))
        elif kind == 1:
            plan.append(("add", rng.choice(nodes), rng.choice(LABELS)))
        else:
            plan.append(("delete",))
    return plan


def _run_workload(tree, pattern, plan, drop_index: bool) -> float:
    """One interleaved pass; returns seconds.  ``drop_index`` = baseline."""
    added = []
    start = time.perf_counter()
    for step in plan:
        if step[0] == "relabel":
            tree.set_label(step[1], step[2])
        elif step[0] == "add":
            added.append(tree.add_child(step[1], step[2]))
        elif added:
            tree.delete_subtree(added.pop())
        if drop_index:
            tree._index_cache = None  # the pre-incremental wholesale drop
        PatternPlan(pattern, tree).matches()
    return time.perf_counter() - start


def _index_rows() -> list:
    rows = []
    pattern = _pattern()
    for size in SIZES:
        best = {"patched": float("inf"), "rebuild": float("inf")}
        match_counts = {}
        for mode, drop_index in (("patched", False), ("rebuild", True)):
            for repetition in range(REPETITIONS):
                tree = random_datatree(size, labels=LABELS, seed=size)
                plan = _mutations(tree, ROUNDS, seed=size)
                tree_index(tree)  # both regimes start with a warm index
                best[mode] = min(
                    best[mode], _run_workload(tree, pattern, plan, drop_index)
                )
            match_counts[mode] = len(pattern.matches(tree, matcher="naive"))
        if match_counts["patched"] != match_counts["rebuild"]:
            raise AssertionError(f"regimes diverged at size={size}")
        rows.append(
            {
                "nodes": size,
                "rounds": ROUNDS,
                "final_matches": match_counts["patched"],
                "patched_ms": round(best["patched"] * 1e3, 3),
                "rebuild_ms": round(best["rebuild"] * 1e3, 3),
                "speedup": round(best["rebuild"] / max(best["patched"], 1e-9), 1),
            }
        )
    return rows


def _cache_rows() -> list:
    """Warm query cost across label-disjoint updates: targeted vs wholesale."""
    rows = []
    for size in (400, 1600):
        doc = random_datatree(size, labels=LABELS, seed=size, root_label="A")
        probtree = ProbTree.certain(doc)
        query = child_chain(["A"])  # root-only: no update below touches "A"
        best = {}
        for mode in ("targeted", "wholesale"):
            context = ExecutionContext()
            evaluate_on_probtree(query, probtree, context=context)  # warm
            start = time.perf_counter()
            for i in range(100):
                node = probtree.add_child(doc.root, "Z")
                if mode == "wholesale":
                    # Simulate the old behaviour: condition churn bumps
                    # state_version, which still invalidates everything.
                    probtree.add_event(f"bulk{size}_{i}", 0.5)
                evaluate_on_probtree(query, probtree, context=context)
            best[mode] = time.perf_counter() - start
            if mode == "targeted":
                hits = context.stats.answer_cache_hits
        rows.append(
            {
                "nodes": size,
                "updates": 100,
                "targeted_ms": round(best["targeted"] * 1e3, 3),
                "wholesale_ms": round(best["wholesale"] * 1e3, 3),
                "warm_hits": hits,
            }
        )
    return rows


def run() -> dict:
    return {
        "benchmark": "incremental index maintenance under updates",
        "pattern": "* //B //C //D //B (descendant edges)",
        "repetitions": REPETITIONS,
        "rows": _index_rows(),
        "answer_cache_rows": _cache_rows(),
    }


def main() -> int:
    report = run()
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    at_2000 = next(row for row in report["rows"] if row["nodes"] == 2000)
    return 0 if at_2000["speedup"] >= 5.0 else 1


if __name__ == "__main__":
    sys.exit(main())
