"""Journal-patched columnar maintenance vs rebuild-per-mutation, streaming.

The paper's hidden-web extraction scenario is a *streaming* workload: a
probabilistic document grows by batches of uncertain inserts while being
queried continuously.  This gate replays exactly that shape on a 100k-node
document — interleaved insert batches and wildcard queries — under two
maintenance regimes:

* **patched** — the shipping path: the default fast path through an
  :class:`ExecutionContext` (columnar at this size when numpy is present);
  the accessor journal-patches the cached :class:`ColumnarTree` forward
  (bounded splices) before every query;
* **rebuild** — what every query paid before incremental maintenance: the
  cached column is dropped after each mutation batch and rebuilt from
  scratch by ``from_tree``.

Emits one JSON object to stdout (per-step ``latency_samples_s`` included,
so ``run_all.py`` reports p50/p95/p99 into the consolidated summary)::

    PYTHONPATH=src python benchmarks/bench_columnar_incremental.py

Exit-code gates: end-to-end patched-column maintenance ≥ 5× the
rebuild-per-mutation regime at 100k nodes, the default fast path keeps
choosing columnar across the whole run (counter-asserted), the patched and
rebuilt regimes return identical answers, and a seeded differential sweep
finds the patched column byte-identical to a fresh rebuild after every
mutation on **both** array backends.  The speedup gate requires numpy (the
fallback backend is a portability path); without it the differential sweep
still runs and the perf gate passes vacuously.
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

import repro.trees.columnar as columnar_module
from repro.core.context import ExecutionContext
from repro.queries.plan import ColumnarPlan
from repro.queries.treepattern import EDGE_DESCENDANT, TreePattern
from repro.trees.columnar import ColumnarTree, columnar_tree, have_numpy
from repro.trees.datatree import DataTree
from repro.workloads.random_trees import random_datatree

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZE = 100_000
STEPS = 6 if SMOKE else 40
INSERTS_PER_STEP = 8  # stays within PATCH_JOURNAL_LIMIT between queries
LABELS = tuple("ABCDEFGH")
RARE_LABEL = "Q"
RARE_COUNT = 20
DIFFERENTIAL_SEEDS = 3 if SMOKE else 8
DIFFERENTIAL_MUTATIONS = 30


def _pattern() -> TreePattern:
    """``*`` → descendant ``Q``: wildcard root, rare-label anchor."""
    pattern = TreePattern("*")
    pattern.add_child(pattern.root, RARE_LABEL, edge=EDGE_DESCENDANT)
    return pattern


def _document() -> DataTree:
    tree = random_datatree(SIZE, labels=LABELS, seed=SIZE)
    rng = random.Random(SIZE)
    nodes = [node for node in tree.nodes() if node != tree.root]
    for node in rng.sample(nodes, RARE_COUNT):
        tree.set_label(node, RARE_LABEL)
    return tree


def _insert_batch(rng: random.Random, tree: DataTree, parents: list) -> None:
    for _ in range(INSERTS_PER_STEP):
        node = tree.add_child(rng.choice(parents), rng.choice(LABELS))
        parents.append(node)


def _patched_regime(tree: DataTree, pattern: TreePattern) -> dict:
    context = ExecutionContext()
    rng = random.Random(1)
    parents = list(tree.nodes())
    pattern.matches(tree, context=context)  # warm the column (counted as a rebuild)
    samples = []
    answers = []
    start = time.perf_counter()
    for _ in range(STEPS):
        step_start = time.perf_counter()
        _insert_batch(rng, tree, parents)
        answers.append(len(pattern.matches(tree, context=context)))
        samples.append(time.perf_counter() - step_start)
    total = time.perf_counter() - start
    stats = context.stats
    return {
        "total_s": total,
        "latency_samples_s": [round(value, 6) for value in samples],
        "answers": answers,
        "auto_chose_columnar": stats.auto_chose_columnar,
        "columns_patched": stats.columns_patched,
        "column_rebuilds": stats.column_rebuilds,
    }


def _rebuild_regime(tree: DataTree, pattern: TreePattern) -> dict:
    rng = random.Random(1)
    parents = list(tree.nodes())
    columnar_tree(tree)
    samples = []
    answers = []
    start = time.perf_counter()
    for _ in range(STEPS):
        step_start = time.perf_counter()
        _insert_batch(rng, tree, parents)
        tree._columnar_cache = None  # what staleness used to mean: rebuild
        answers.append(len(ColumnarPlan(pattern, columnar_tree(tree)).matches()))
        samples.append(time.perf_counter() - step_start)
    total = time.perf_counter() - start
    return {
        "total_s": total,
        "latency_samples_s": [round(value, 6) for value in samples],
        "answers": answers,
    }


def _mutate_once(rng: random.Random, tree: DataTree) -> None:
    nodes = list(tree.nodes())
    roll = rng.random()
    if roll < 0.55 or len(nodes) < 4:
        tree.add_child(rng.choice(nodes), rng.choice(LABELS))
    elif roll < 0.8:
        tree.set_label(rng.choice(nodes), rng.choice(LABELS))
    else:
        tree.delete_subtree(rng.choice([n for n in nodes if n != tree.root]))


def _differential_sweep() -> dict:
    """Patched column byte-identical to a fresh rebuild, on both backends."""
    results = {}
    backends = [("numpy", False), ("fallback", True)] if have_numpy() else [
        ("fallback", True)
    ]
    for name, force_fallback in backends:
        saved = columnar_module._np
        if force_fallback:
            columnar_module._np = None
        try:
            checks = 0
            for seed in range(DIFFERENTIAL_SEEDS):
                rng = random.Random(seed)
                tree = DataTree("R")
                for _ in range(40):
                    _mutate_once(rng, tree)
                tree._columnar_cache = None
                columnar_tree(tree)
                for _ in range(DIFFERENTIAL_MUTATIONS):
                    _mutate_once(rng, tree)
                    patched = columnar_tree(tree)
                    rebuilt = ColumnarTree.from_tree(tree)
                    if patched.structural_state() != rebuilt.structural_state():
                        results[name] = {"checks": checks, "identical": False}
                        break
                    checks += 1
                else:
                    continue
                break
            else:
                results[name] = {"checks": checks, "identical": True}
        finally:
            columnar_module._np = saved
    return results


def run() -> dict:
    pattern = _pattern()
    base = _document()
    patched = _patched_regime(base.copy(), pattern)
    rebuild = _rebuild_regime(base.copy(), pattern)
    speedup = rebuild["total_s"] / max(patched["total_s"], 1e-9)
    return {
        "benchmark": "journal-patched columnar maintenance, streaming workload",
        "backend": "numpy" if have_numpy() else "array-fallback",
        "nodes": SIZE,
        "steps": STEPS,
        "inserts_per_step": INSERTS_PER_STEP,
        "pattern": f"* //{RARE_LABEL} (descendant edge)",
        "patched": {
            **patched,
            "total_s": round(patched["total_s"], 4),
        },
        "rebuild_per_mutation": {
            **rebuild,
            "total_s": round(rebuild["total_s"], 4),
        },
        "speedup": round(speedup, 1),
        "answers_identical": patched["answers"] == rebuild["answers"],
        "differential": _differential_sweep(),
    }


def main() -> int:
    report = run()
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    differential_ok = all(
        entry["identical"] for entry in report["differential"].values()
    )
    if not report["answers_identical"] or not differential_ok:
        return 1
    if not have_numpy():
        # No vectorized claim to gate on the portability backend.
        return 0
    patched = report["patched"]
    counters_ok = (
        patched["auto_chose_columnar"] == STEPS + 1  # warm-up query included
        and patched["columns_patched"] == STEPS
        and patched["column_rebuilds"] == 1  # the cold warm-up build only
    )
    return 0 if report["speedup"] >= 5.0 and counters_ok else 1


if __name__ == "__main__":
    sys.exit(main())
