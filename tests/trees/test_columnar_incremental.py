"""Randomized differential harness for journal-patched columnar trees.

The fast path under test is :meth:`ColumnarTree.patch` via the
:func:`columnar_tree` accessor — bounded array splices replaying the
mutation journal; the slow oracle is a fresh :meth:`ColumnarTree.from_tree`
rebuild.  After **every** mutation of 200+ seeded update sequences the
patched column must be byte-identical (every array, the label table and the
version stamp) to the rebuild, on both the numpy and the pure-Python
fallback backends, and :class:`ColumnarPlan` answers over the patched
column must equal the indexed :class:`PatternPlan`.

Also pinned here: the copy-on-patch staleness contract (held handles stay
immutable and keep raising :class:`StaleColumnarTreeError`), the
``columnar.patch`` fault site (poison-on-fault → rebuild) and the
``columns_patched`` / ``column_rebuilds`` counters.
"""

from __future__ import annotations

import random

import pytest

import repro.trees.columnar as columnar_module
from repro.core.context import ContextStats
from repro.queries.plan import ColumnarPlan, PatternPlan
from repro.queries.treepattern import EDGE_DESCENDANT, TreePattern
from repro.trees.columnar import PATCH_JOURNAL_LIMIT, ColumnarTree, columnar_tree
from repro.trees.datatree import DataTree
from repro.utils.errors import InjectedFault, StaleColumnarTreeError
from repro.utils.faults import FaultPlan

pytestmark = pytest.mark.differential

LABELS = "ABCDEF"


@pytest.fixture(params=["numpy", "fallback"])
def backend(request, monkeypatch):
    """Run each test under both array backends (skip numpy when absent)."""
    if request.param == "numpy":
        if columnar_module._np is None:
            pytest.skip("numpy not available")
    else:
        monkeypatch.setattr(columnar_module, "_np", None)
    return request.param


def _mutate_once(rng: random.Random, tree: DataTree) -> None:
    """One random mutation: grow-biased, with fresh labels and deep deletes."""
    nodes = list(tree.nodes())
    roll = rng.random()
    if roll < 0.55 or len(nodes) < 4:
        label = (
            rng.choice(LABELS)
            if rng.random() < 0.8
            else f"L{rng.randrange(40)}"  # sometimes a brand-new table entry
        )
        tree.add_child(rng.choice(nodes), label)
    elif roll < 0.8:
        node = rng.choice(nodes)
        # Occasionally a no-op relabel (old == new): journaled but must not
        # perturb the patched arrays.
        label = rng.choice(LABELS) if rng.random() < 0.75 else tree.label(node)
        tree.set_label(node, label)
    else:
        tree.delete_subtree(rng.choice([n for n in nodes if n != tree.root]))


def _grown_tree(rng: random.Random) -> DataTree:
    tree = DataTree("R")
    for _ in range(rng.randrange(20, 60)):
        _mutate_once(rng, tree)
    return tree


def _pattern() -> TreePattern:
    pattern = TreePattern("*")
    middle = pattern.add_child(pattern.root, "*", edge=EDGE_DESCENDANT)
    pattern.add_child(middle, "C", edge=EDGE_DESCENDANT)
    return pattern


def _assert_patched_equals_rebuilt(tree: DataTree) -> ColumnarTree:
    cached = tree._columnar_cache
    patched = columnar_tree(tree)
    rebuilt = ColumnarTree.from_tree(tree)
    assert patched.structural_state() == rebuilt.structural_state()
    if cached is not None and cached.version != tree.version:
        # The cache held a genuinely stale column: the accessor must have
        # swapped in a replacement, never mutated the held object.
        assert patched is not cached
    return patched


class TestDifferential:
    @pytest.mark.parametrize("seed", range(85))
    def test_every_mutation_patches_byte_identical(self, backend, seed):
        rng = random.Random(seed)
        tree = _grown_tree(rng)
        columnar_tree(tree)  # warm the cache so each step exercises patch
        for _ in range(12):
            _mutate_once(rng, tree)
            _assert_patched_equals_rebuilt(tree)

    @pytest.mark.parametrize("seed", range(85, 105))
    def test_mutation_bursts_straddle_the_patch_limit(self, backend, seed):
        rng = random.Random(seed)
        tree = _grown_tree(rng)
        columnar_tree(tree)
        for _ in range(6):
            burst = rng.choice(
                [1, 2, PATCH_JOURNAL_LIMIT, PATCH_JOURNAL_LIMIT + 1, 24]
            )
            for _ in range(burst):
                _mutate_once(rng, tree)
            _assert_patched_equals_rebuilt(tree)

    @pytest.mark.parametrize("seed", range(105, 125))
    def test_columnar_answers_over_patched_column_equal_indexed(self, backend, seed):
        rng = random.Random(seed)
        tree = _grown_tree(rng)
        pattern = _pattern()
        columnar_tree(tree)
        for _ in range(8):
            _mutate_once(rng, tree)
            column = _assert_patched_equals_rebuilt(tree)
            assert (
                ColumnarPlan(pattern, column).matches()
                == PatternPlan(pattern, tree).matches()
            )


class TestCopyOnPatchContract:
    def test_held_handle_stays_immutable_and_raises(self, backend):
        rng = random.Random(7)
        tree = _grown_tree(rng)
        held = columnar_tree(tree)
        held_state = held.structural_state()
        tree.add_child(tree.root, "A")
        patched = columnar_tree(tree)
        assert patched is not held
        assert held.structural_state() == held_state
        with pytest.raises(StaleColumnarTreeError):
            held.require_fresh()
        with pytest.raises(StaleColumnarTreeError):
            ColumnarPlan(_pattern(), held)

    def test_fresh_column_patches_to_itself(self, backend):
        tree = _grown_tree(random.Random(8))
        column = columnar_tree(tree)
        assert column.patch() is column
        assert columnar_tree(tree) is column

    def test_patch_declines_foreign_trees_and_dead_sources(self, backend):
        tree = _grown_tree(random.Random(9))
        column = columnar_tree(tree)
        other = tree.copy()
        other.add_child(other.root, "A")
        assert column.patch(other) is None
        loaded = ColumnarTree.from_xml('<node label="R"/>')
        assert loaded.patch(tree) is None


class TestFaultInjection:
    def test_mid_patch_fault_poisons_and_next_access_rebuilds(self, backend):
        tree = _grown_tree(random.Random(11))
        stats = ContextStats()
        column = columnar_tree(tree, stats)
        tree.add_child(tree.root, "B")
        plan = FaultPlan().arm("columnar.patch", at=1)
        with plan.active(stats):
            with pytest.raises(InjectedFault):
                columnar_tree(tree, stats)
        # The stale column is poisoned, the partial replacement discarded...
        assert column.version == -1
        assert tree._columnar_cache is column
        # ...and the next access rebuilds instead of replaying into the
        # same fault.
        rebuilt = columnar_tree(tree, stats)
        assert rebuilt.structural_state() == ColumnarTree.from_tree(
            tree
        ).structural_state()
        assert stats.column_rebuilds == 2  # the cold build + the post-fault one
        assert stats.columns_patched == 0

    def test_fault_site_fires_once_per_journal_entry(self, backend):
        tree = _grown_tree(random.Random(12))
        columnar_tree(tree)
        for _ in range(3):
            tree.add_child(tree.root, "C")
        plan = FaultPlan()
        with plan.active():
            columnar_tree(tree)
        assert plan.hits.get("columnar.patch") == 3


class TestCounters:
    def test_patch_and_rebuild_counters(self, backend):
        stats = ContextStats()
        tree = _grown_tree(random.Random(13))
        columnar_tree(tree, stats)
        assert (stats.column_rebuilds, stats.columns_patched) == (1, 0)
        tree.add_child(tree.root, "A")
        columnar_tree(tree, stats)
        assert (stats.column_rebuilds, stats.columns_patched) == (1, 1)
        for _ in range(PATCH_JOURNAL_LIMIT + 1):
            tree.add_child(tree.root, "B")
        columnar_tree(tree, stats)
        assert (stats.column_rebuilds, stats.columns_patched) == (2, 1)
