"""Randomized differential tests: columnar vs indexed (and naive) matching.

The vectorized :class:`~repro.queries.plan.ColumnarPlan` must return a match
list *byte-identical* to :class:`~repro.queries.plan.PatternPlan` — same
matches, same order — with the indexed plan serving as the differential
twin (and ``matcher="naive"`` as the set-level oracle behind both).  These
sweeps mirror the indexed-vs-naive harness: seeded random tree/query pairs with wildcards,
descendant edges, joins and branching, plus deep chains, the pure-Python
fallback backend, and save/load'ed columns.  Well over 200 cases in total.
"""

import random

import pytest

import repro.trees.columnar as columnar_module
from repro.core.context import ExecutionContext
from repro.queries.plan import ColumnarPlan, columnar_matches, indexed_matches
from repro.queries.treepattern import (
    EDGE_DESCENDANT,
    TreePattern,
    child_chain,
    descendant_anywhere,
)
from repro.trees.columnar import ColumnarTree, columnar_tree
from repro.workloads.random_queries import random_matching_pattern
from repro.workloads.random_trees import random_datatree

pytestmark = pytest.mark.differential

NAIVE = ExecutionContext(matcher="naive")


def _assert_columnar_agrees(pattern, tree):
    indexed = indexed_matches(pattern, tree)
    columnar = columnar_matches(pattern, tree)
    # Byte-identical: the same Match objects in the same enumeration order,
    # not merely the same set.
    assert columnar == indexed
    naive = pattern.matches(tree, matcher="naive")
    assert len(naive) == len(columnar)
    assert set(naive) == set(columnar)
    assert {match.answer_nodes(tree) for match in columnar} == set(
        pattern.result_node_sets(tree, context=NAIVE)
    )
    assert bool(columnar) == pattern.selects(tree, context=NAIVE)
    return len(columnar)


# 120 seeds x (plain + joined) = 240 matching-pattern cases before the
# directed sweeps below — comfortably past the 200-case acceptance floor.
SEEDS = range(120)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_matching_patterns_agree(seed):
    """Patterns sampled from the tree itself: guaranteed at least one match."""
    size = 1 + (seed * 7) % 64
    tree = random_datatree(size, seed=seed)
    pattern, _ = random_matching_pattern(
        tree,
        seed=seed,
        wildcard_probability=0.3,
        descendant_probability=0.4,
        branch_probability=0.4,
    )
    assert _assert_columnar_agrees(pattern, tree) >= 1

    # The same pattern with a random label-equality join bolted on (joins can
    # empty the match set; both matchers must agree on that too).
    node_ids = [spec.node_id for spec in pattern.pattern_nodes()]
    if len(node_ids) >= 2:
        rng = random.Random(seed)
        first, second = rng.sample(node_ids, 2)
        pattern.add_join(first, second)
        _assert_columnar_agrees(pattern, tree)


@pytest.mark.parametrize("seed", range(40))
def test_cross_tree_patterns_agree(seed):
    """Patterns sampled from one tree, evaluated on another (often no match)."""
    source = random_datatree(1 + seed % 40, seed=seed)
    target = random_datatree(1 + (seed * 13) % 80, seed=seed + 1000)
    pattern, _ = random_matching_pattern(
        source, seed=seed, wildcard_probability=0.5, descendant_probability=0.5
    )
    _assert_columnar_agrees(pattern, target)


@pytest.mark.parametrize("seed", range(30))
def test_descendant_heavy_patterns_agree(seed):
    """All-descendant, wildcard-step chains on wide/deep random trees."""
    tree = random_datatree(
        60 + seed, seed=seed, max_children=2 + seed % 3, labels=("A", "B", "C")
    )
    pattern = TreePattern("*")
    current = pattern.root
    rng = random.Random(seed)
    for _ in range(1 + seed % 4):
        label = rng.choice(["A", "B", "C", "*"])
        current = pattern.add_child(current, label, edge=EDGE_DESCENDANT)
    _assert_columnar_agrees(pattern, tree)


@pytest.mark.parametrize("seed", range(20))
def test_deep_chain_patterns_agree(seed):
    """Long child-edge chains on deep, narrow trees (max_children=1..2)."""
    tree = random_datatree(
        40 + seed * 2,
        seed=seed,
        max_children=1 + seed % 2,
        labels=("A", "B"),
        root_label="A",
    )
    labels = ["A"] + [("A", "B", "*")[i % 3] for i in range(1 + seed % 6)]
    _assert_columnar_agrees(child_chain(labels), tree)


@pytest.mark.parametrize("seed", range(20))
def test_branching_join_patterns_agree(seed):
    """Two wildcard branches under the root, joined on equal labels."""
    tree = random_datatree(40 + seed * 3, seed=seed, labels=("A", "B", "C", "D"))
    pattern = TreePattern("*")
    left = pattern.add_child(pattern.root, "*", edge=EDGE_DESCENDANT)
    right = pattern.add_child(pattern.root, "*", edge=EDGE_DESCENDANT)
    pattern.add_join(left, right)
    _assert_columnar_agrees(pattern, tree)


class TestFallbackBackend:
    """The pure-Python ``array`` backend must be observationally identical.

    The column is *built* under the patched backend too, so both the
    construction and the matching paths run without numpy.
    """

    @pytest.mark.parametrize("seed", range(25))
    def test_fallback_matches_agree(self, seed, monkeypatch):
        monkeypatch.setattr(columnar_module, "_np", None)
        tree = random_datatree(1 + (seed * 9) % 70, seed=seed)
        pattern, _ = random_matching_pattern(
            tree,
            seed=seed,
            wildcard_probability=0.4,
            descendant_probability=0.4,
            branch_probability=0.3,
        )
        column = ColumnarTree.from_tree(tree)
        assert ColumnarPlan(pattern, column).matches() == indexed_matches(pattern, tree)

    def test_fallback_joins_agree(self, monkeypatch):
        monkeypatch.setattr(columnar_module, "_np", None)
        tree = random_datatree(80, seed=42, labels=("A", "B", "C"))
        pattern = TreePattern("*")
        left = pattern.add_child(pattern.root, "*", edge=EDGE_DESCENDANT)
        right = pattern.add_child(pattern.root, "*", edge=EDGE_DESCENDANT)
        pattern.add_join(left, right)
        column = ColumnarTree.from_tree(tree)
        assert ColumnarPlan(pattern, column).matches() == indexed_matches(pattern, tree)


class TestLoadedColumns:
    @pytest.mark.parametrize("seed", range(10))
    def test_saved_and_loaded_columns_match_identically(self, seed, tmp_path):
        tree = random_datatree(30 + seed * 11, seed=seed)
        pattern, _ = random_matching_pattern(
            tree, seed=seed, wildcard_probability=0.3, descendant_probability=0.4
        )
        path = tmp_path / f"doc{seed}.col"
        ColumnarTree.from_tree(tree).save(path)
        loaded = ColumnarTree.load(path)
        assert columnar_matches(pattern, loaded) == indexed_matches(pattern, tree)


class TestDispatchIntegration:
    def test_columnar_matches_accepts_trees_and_columns(self):
        tree = random_datatree(50, seed=8)
        pattern, _ = random_matching_pattern(tree, seed=8)
        expected = indexed_matches(pattern, tree)
        assert columnar_matches(pattern, tree) == expected
        assert columnar_matches(pattern, columnar_tree(tree)) == expected


def test_handcrafted_edge_cases():
    single = random_datatree(1, seed=0, root_label="A")
    for pattern in (TreePattern("A"), TreePattern("*"), TreePattern("Z")):
        _assert_columnar_agrees(pattern, single)
    _assert_columnar_agrees(descendant_anywhere("A"), single)

    # Non-injective embeddings: two pattern children onto one tree node.
    doc = random_datatree(2, seed=1, root_label="A", labels=("B",))
    pattern = TreePattern("A")
    pattern.add_child(pattern.root, "B")
    pattern.add_child(pattern.root, "B")
    assert _assert_columnar_agrees(pattern, doc) == 1

    # Root label collisions: inner nodes sharing the root's label must stay
    # out of non-root candidate pools on both sides.
    tree = random_datatree(40, seed=3, root_label="A", labels=("A", "B"))
    _assert_columnar_agrees(child_chain(["A", "A"]), tree)
    _assert_columnar_agrees(descendant_anywhere("A"), tree)
