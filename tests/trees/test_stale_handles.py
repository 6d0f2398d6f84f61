"""The held-handle contracts of the two tree snapshots.

Two derived structures cache per-tree state with very different staleness
behavior, and this module pins both contracts:

* :class:`~repro.trees.index.TreeIndex` handles are only valid when obtained
  through :func:`~repro.trees.index.tree_index` — a handle held across
  mutations mixes its *snapshot* interval/posting maps with *live* tree reads
  in the lazy ``children_with_label`` cache, so it can answer with nodes its
  own posting lists have never heard of.  Refreshing through ``tree_index()``
  (which patches or rebuilds) always restores exact agreement with a cold
  rebuild; the differential sweep below checks that across random journal
  patch sequences.
* :class:`~repro.trees.columnar.ColumnarTree` refuses to serve at all once
  stale: columns are never patched, so any version mismatch raises the typed
  :class:`~repro.utils.errors.StaleColumnarTreeError` instead of pruning
  against torn arrays.
"""

from __future__ import annotations

import random

import pytest

from repro.queries.plan import ColumnarPlan, indexed_matches
from repro.queries.treepattern import TreePattern, child_chain
from repro.trees.columnar import ColumnarTree, columnar_tree
from repro.trees.datatree import DataTree
from repro.trees.index import TreeIndex, tree_index
from repro.utils.errors import StaleColumnarTreeError
from repro.workloads.random_trees import random_datatree
from repro.trees.builders import tree as build_tree

LABELS = ("A", "B", "C", "D", "E")


def _mutate_once(tree: DataTree, rng: random.Random) -> None:
    nodes = list(tree.nodes())
    op = rng.randrange(4)
    if op == 0:
        tree.add_child(rng.choice(nodes), rng.choice(LABELS))
    elif op == 1:
        tree.set_label(rng.choice(nodes), rng.choice(LABELS))
    elif op == 2 and len(nodes) > 1:
        tree.delete_subtree(rng.choice([n for n in nodes if n != tree.root]))
    else:
        graft = random_datatree(rng.randint(1, 5), labels=LABELS, seed=rng)
        tree.add_subtree(rng.choice(nodes), graft)


class TestTreeIndexHandleContract:
    def test_stale_handle_mixes_snapshot_and_live_reads(self):
        """The concrete hazard: a held handle's lazy ``children_with_label``
        reads the *live* children list, then ranks them through *snapshot*
        preorder maps — here it reports a child its own posting list lacks."""
        document = build_tree("A", build_tree("B", "C"))
        held = tree_index(document)
        new_child = document.add_child(document.root, "B")
        assert not held.is_fresh()
        live_children = held.children_with_label(document.root, "B")
        # Live read: the freshly added B is visible through the held handle...
        assert new_child in live_children
        # ...while the snapshot posting list still predates it.
        assert new_child not in held.nodes_with_label("B")

    def test_refetching_through_tree_index_restores_exactness(self):
        document = build_tree("A", build_tree("B", "C"))
        held = tree_index(document)
        document.add_child(document.root, "B")
        refreshed = tree_index(document)
        assert refreshed.is_fresh()
        assert refreshed.structural_state() == TreeIndex(document).structural_state()
        # tree_index() patches the cached snapshot in place, so the held
        # handle object *becomes* the refreshed one — holding it was only
        # unsafe while it was stale.
        assert refreshed is held

    @pytest.mark.differential
    @pytest.mark.parametrize("seed", range(40))
    def test_refetched_handles_are_exact_across_journal_patches(self, seed):
        """Differential sweep: after every mutation burst, a handle obtained
        through ``tree_index()`` agrees with a cold rebuild on the full
        structural state AND on the lazy per-(node, label) children cache."""
        rng = random.Random(31_000 + seed)
        document = random_datatree(10 + (seed * 11) % 200, labels=LABELS, seed=rng)
        tree_index(document)  # warm the cache so patching has a base
        for _ in range(1 + seed % 5):
            for _ in range(rng.randint(1, 4)):
                _mutate_once(document, rng)
            refreshed = tree_index(document)
            cold = TreeIndex(document)
            assert refreshed.structural_state() == cold.structural_state()
            for node in document.nodes():
                for label in LABELS:
                    assert refreshed.children_with_label(node, label) == \
                        cold.children_with_label(node, label)


class TestColumnarStaleness:
    def test_held_column_raises_typed_error_after_mutation(self):
        document = random_datatree(50, seed=1)
        column = columnar_tree(document)
        column.require_fresh()  # fresh handle passes
        document.add_child(document.root, "Z")
        assert not column.is_fresh()
        with pytest.raises(StaleColumnarTreeError) as excinfo:
            column.require_fresh()
        # The message names both versions so the mismatch is debuggable.
        assert str(column.version) in str(excinfo.value)
        assert str(document.version) in str(excinfo.value)

    def test_stale_column_refuses_to_plan(self):
        document = random_datatree(50, seed=2)
        column = columnar_tree(document)
        document.add_child(document.root, "Z")
        with pytest.raises(StaleColumnarTreeError):
            ColumnarPlan(TreePattern("*"), column)

    def test_columnar_tree_accessor_rebuilds_after_mutation(self):
        document = random_datatree(50, seed=3)
        stale = columnar_tree(document)
        document.add_child(document.root, "Z")
        fresh = columnar_tree(document)
        assert fresh is not stale
        assert fresh.is_fresh()
        assert fresh.version == document.version
        # And the rebuilt column answers correctly for the mutated tree.
        pattern = child_chain(["*", "Z"])
        assert ColumnarPlan(pattern, fresh).matches() == \
            indexed_matches(pattern, document)

    def test_unmutated_column_is_cached_and_stays_fresh(self):
        document = random_datatree(50, seed=4)
        first = columnar_tree(document)
        assert columnar_tree(document) is first
        first.require_fresh()

    def test_loaded_column_is_detached_from_any_tree(self, tmp_path):
        """A column loaded from disk has no source tree to go stale against;
        it matches standalone."""
        document = random_datatree(80, seed=5)
        path = tmp_path / "doc.col"
        ColumnarTree.from_tree(document).save(path)
        loaded = ColumnarTree.load(path)
        loaded.require_fresh()  # never raises: nothing to be stale against
        pattern = child_chain(["*", "*"])
        assert ColumnarPlan(pattern, loaded).matches() == \
            indexed_matches(pattern, document)
