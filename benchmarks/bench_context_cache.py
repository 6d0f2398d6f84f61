"""Repeated-query workloads: cold vs warm ExecutionContext answer-set cache.

The warehouse serves sustained query traffic where the same handful of
queries hit the same (mostly unchanged) documents over and over.  The
session-scoped :class:`~repro.core.context.ExecutionContext` memoizes answer
node sets keyed by ``(tree.version, pattern fingerprint, matcher)``, so a
repeated query skips matching entirely.  This benchmark measures that:

* **cold** — every workload pass runs under a *fresh* context (the shared
  per-tree structural index stays warm, so the measured gap is the answer
  cache itself, not the index build);
* **warm** — every pass shares one context, so passes after the first serve
  node sets (and memoized condition prices) from the caches.

It also checks the matcher the default fast path picks, timing the matching
step of each pattern (pricing is the same whatever matcher ran, so it would
only dilute the comparison; the tree's version is bumped before every
measured pass, so index and column maintenance is paid where a cold session
would pay it):

* **small documents** (30, 200 and 2000 nodes, below the columnar
  threshold) — the default against the two fixed choices it replaced as
  user-set options, the naive oracle and the indexed
  :class:`~repro.queries.plan.PatternPlan`.  Here the default *is* the
  indexed plan, so this row guards the dispatch overhead, not the choice;
* **the size rule** — a document of ``2 * AUTO_COLUMNAR_NODES`` nodes, where
  the default runs the columnar matcher, timed against ``PatternPlan`` and
  :class:`~repro.queries.plan.ColumnarPlan` on two pattern families:
  *selective* patterns ending in a rare label (the shape of the warehouse's
  per-source and per-title questions) and the *match-heavy* patterns above
  (thousands of matches each).  The row moves with the threshold, so a
  threshold set too low lands it where the indexed plan is clearly faster.

Emits one JSON object to stdout::

    PYTHONPATH=src python benchmarks/bench_context_cache.py

Exit code 0 iff the warm speedup is at least 5x on every repeated-query row,
the default matcher never loses to the worse fixed matcher on the small
documents, and (numpy present) the default is no slower than ``PatternPlan``
on the selective family at ``2 * AUTO_COLUMNAR_NODES`` nodes — each with a
15% timing-noise allowance.  The match-heavy family is reported, not gated:
there the columnar matcher does not beat the indexed plan near the
threshold.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

if __package__ is None and str(Path(__file__).resolve().parents[1] / "src") not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.context import AUTO_COLUMNAR_NODES, ExecutionContext
from repro.queries.evaluation import evaluate_on_probtree
from repro.queries.path import parse_path
from repro.queries.plan import PatternPlan, columnar_matches
from repro.trees.columnar import have_numpy
from repro.trees.index import tree_index
from repro.workloads.random_probtrees import random_probtree

SIZES = [200, 800, 2000]
EVENTS = 24
PASSES = 25  # workload repetitions per measurement
REPETITIONS = 3  # best-of for the default-vs-fixed comparison
QUERIES = [
    "//A",
    "//B/C",
    "//A//D",
    "/A/B",
    "//C/*",
    "//B//A",
]
#: Patterns answered by a few hundred matches: every one ends in the rare
#: label ``Q``.
SELECTIVE_QUERIES = ["//Q", "//A/Q", "//B//Q", "/A/*/Q", "//C/D/Q", "//*//Q"]
RARE_COUNT = 20


def _workload(probtree, context) -> int:
    answers = 0
    for query in QUERIES:
        answers += len(
            evaluate_on_probtree(parse_path(query), probtree, context=context)
        )
    return answers


def _repeated_query_rows() -> list:
    rows = []
    for size in SIZES:
        probtree = random_probtree(
            node_count=size,
            event_count=EVENTS,
            seed=size,
            root_label="A",
            condition_probability=0.4,
        )
        # Warm the structural index once so cold-vs-warm isolates the answer
        # cache (the index is cached on the tree, not on the context).
        tree_index(probtree.tree)

        start = time.perf_counter()
        cold_answers = 0
        for _ in range(PASSES):
            cold_answers = _workload(probtree, ExecutionContext())
        cold_s = time.perf_counter() - start

        warm_context = ExecutionContext()
        _workload(probtree, warm_context)  # populate the caches
        start = time.perf_counter()
        warm_answers = 0
        for _ in range(PASSES):
            warm_answers = _workload(probtree, warm_context)
        warm_s = time.perf_counter() - start

        if cold_answers != warm_answers:
            raise AssertionError(f"cold/warm answer mismatch at size={size}")
        stats = warm_context.stats.as_dict()
        rows.append(
            {
                "nodes": size,
                "queries": len(QUERIES),
                "passes": PASSES,
                "answers_per_pass": warm_answers,
                "cold_ms_per_pass": round(cold_s / PASSES * 1e3, 3),
                "warm_ms_per_pass": round(warm_s / PASSES * 1e3, 3),
                "speedup": round(cold_s / max(warm_s, 1e-9), 1),
                "warm_cache_hits": stats["answer_cache_hits"],
                "warm_cache_misses": stats["answer_cache_misses"],
            }
        )
    return rows


#: How each matcher runs one pattern: the default fast path (through the
#: module default context) and the fixed choices.
MATCHERS = {
    "default": lambda pattern, tree: pattern.matches(tree),
    "naive": lambda pattern, tree: pattern.matches(tree, matcher="naive"),
    "indexed": lambda pattern, tree: PatternPlan(pattern, tree).matches(),
    "columnar": columnar_matches,
}


def _time_matcher(tree, queries, matcher: str) -> float:
    """Best-of timing of matching every pattern of *queries* under one matcher.

    The tree's version is bumped before every measured pass, so each
    matcher pays exactly the index or column maintenance it chooses to pay
    (this is what makes naive competitive on tiny documents).
    """
    patterns = [parse_path(query) for query in queries]
    run = MATCHERS[matcher]
    best = float("inf")
    for _ in range(REPETITIONS):
        tree.set_label(tree.root, tree.root_label)  # bump version: index stale
        start = time.perf_counter()
        for pattern in patterns:
            run(pattern, tree)
        best = min(best, time.perf_counter() - start)
    return best


def _default_rows() -> list:
    rows = []
    for size in (30, 200, 2000):
        probtree = random_probtree(
            node_count=size,
            event_count=12,
            seed=size + 7,
            root_label="A",
            condition_probability=0.4,
        )
        naive_s = _time_matcher(probtree.tree, QUERIES, "naive")
        indexed_s = _time_matcher(probtree.tree, QUERIES, "indexed")
        default_s = _time_matcher(probtree.tree, QUERIES, "default")
        worse_s = max(naive_s, indexed_s)
        rows.append(
            {
                "nodes": size,
                "naive_ms": round(naive_s * 1e3, 3),
                "indexed_ms": round(indexed_s * 1e3, 3),
                "default_ms": round(default_s * 1e3, 3),
                "worse_fixed_ms": round(worse_s * 1e3, 3),
                "default_vs_worse": round(default_s / max(worse_s, 1e-9), 2),
            }
        )
    return rows


def _size_rule_rows() -> list:
    size = 2 * AUTO_COLUMNAR_NODES
    tree = random_probtree(
        node_count=size - RARE_COUNT,
        event_count=12,
        seed=size,
        labels=tuple("ABCDEFGH"),
        root_label="A",
        condition_probability=0.4,
    ).tree
    for parent in random.Random(size).sample(list(tree.nodes()), RARE_COUNT):
        tree.add_child(parent, "Q")
    rows = []
    for family, queries in (("selective", SELECTIVE_QUERIES), ("match_heavy", QUERIES)):
        row = {"nodes": tree.node_count(), "family": family}
        row["matches"] = sum(len(PatternPlan(parse_path(q), tree).matches()) for q in queries)
        for matcher in ("indexed", "columnar", "default"):
            row[f"{matcher}_ms"] = round(_time_matcher(tree, queries, matcher) * 1e3, 3)
        row["default_vs_indexed"] = round(
            row["default_ms"] / max(row["indexed_ms"], 1e-6), 2
        )
        rows.append(row)
    return rows


def run() -> dict:
    return {
        "benchmark": "ExecutionContext answer-set cache: cold vs warm, default matcher",
        "queries": QUERIES,
        "repeated_query": _repeated_query_rows(),
        "default_matcher": _default_rows(),
        "numpy": have_numpy(),
        "size_rule": _size_rule_rows(),
    }


def main() -> int:
    report = run()
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    worst_speedup = min(row["speedup"] for row in report["repeated_query"])
    default_ok = all(
        row["default_vs_worse"] <= 1.15 for row in report["default_matcher"]
    )
    # Without numpy the default is the indexed plan at every size: no choice
    # to check.
    rule_ok = not report["numpy"] or all(
        row["default_vs_indexed"] <= 1.15
        for row in report["size_rule"]
        if row["family"] == "selective"
    )
    return 0 if worst_speedup >= 5.0 and default_ok and rule_ok else 1


if __name__ == "__main__":
    sys.exit(main())
