"""Randomized update-sequence differential harness for incremental indexing.

The tentpole contract of the journal/patch machinery: after *every* journaled
mutation, the patched :class:`~repro.trees.index.TreeIndex` must be
structurally identical to an index rebuilt from scratch — same preorder
intervals, postings, depths, parents and labels — and the indexed matcher
must keep agreeing with the naive oracle.  These tests sweep seeded random
sequences of mixed mutations (``add_child`` / ``add_subtree`` /
``delete_subtree`` / ``set_label``) over random documents, checking the
patched-vs-rebuilt identity at every step, exactly in the style of the
engine and matcher differential harnesses (fast tier always on, a ``slow``
tier with longer sequences behind ``--runslow``).
"""

from __future__ import annotations

import random

import pytest

from repro.queries.plan import indexed_matches
from repro.trees.datatree import JOURNAL_LIMIT, DataTree
from repro.trees.index import PATCH_JOURNAL_LIMIT, TreeIndex, tree_index
from repro.workloads.random_queries import random_matching_pattern
from repro.workloads.random_trees import random_datatree

pytestmark = pytest.mark.differential

LABELS = ("A", "B", "C", "D", "E")


def _mutate_once(tree: DataTree, rng: random.Random) -> None:
    """Apply one random journaled mutation (the tree never loses its root)."""
    nodes = list(tree.nodes())
    op = rng.randrange(4)
    if op == 0:
        tree.add_child(rng.choice(nodes), rng.choice(LABELS))
    elif op == 1:
        tree.set_label(rng.choice(nodes), rng.choice(LABELS))
    elif op == 2 and len(nodes) > 1:
        tree.delete_subtree(rng.choice([n for n in nodes if n != tree.root]))
    else:
        graft = random_datatree(rng.randint(1, 6), labels=LABELS, seed=rng)
        tree.add_subtree(rng.choice(nodes), graft)


def _assert_patched_equals_rebuilt(tree: DataTree) -> TreeIndex:
    patched = tree_index(tree)
    assert patched.is_fresh()
    fresh = TreeIndex(tree)
    assert patched.structural_state() == fresh.structural_state()
    return patched


def _run_sequence(seed: int, node_count: int, steps: int, burst: int) -> None:
    """One differential case: *steps* mutation bursts, identity after each."""
    rng = random.Random(seed)
    tree = random_datatree(node_count, labels=LABELS, seed=rng)
    cached = tree_index(tree)  # warm the cache so patching has a base
    for step in range(steps):
        for _ in range(rng.randint(1, burst)):
            _mutate_once(tree, rng)
        patched = _assert_patched_equals_rebuilt(tree)
        if burst <= PATCH_JOURNAL_LIMIT:
            # Short journals must be replayed onto the same snapshot object,
            # not silently rebuilt — that is the whole point of the PR.
            assert patched is cached
        cached = patched


# 150 fast cases spanning 10..~500 nodes; every case asserts per-step, so the
# harness checks identity after several hundred individual mutations.
@pytest.mark.parametrize("seed", range(150))
def test_patched_index_equals_rebuild(seed):
    node_count = 10 + (seed * 13) % 491
    steps = 1 + seed % 8
    _run_sequence(seed, node_count, steps=steps, burst=3)


@pytest.mark.parametrize("seed", range(25))
def test_mixed_bursts_may_cross_the_rebuild_threshold(seed):
    """Bursts longer than the cost-model threshold must fall back cleanly."""
    rng = random.Random(10_000 + seed)
    tree = random_datatree(20 + seed * 7, labels=LABELS, seed=rng)
    tree_index(tree)
    for _ in range(3):
        for _ in range(rng.randint(PATCH_JOURNAL_LIMIT + 1, PATCH_JOURNAL_LIMIT + 10)):
            _mutate_once(tree, rng)
        _assert_patched_equals_rebuilt(tree)


@pytest.mark.parametrize("seed", range(30))
def test_indexed_matcher_agrees_with_naive_after_patching(seed):
    """End to end: patched indexes must not change what queries answer."""
    rng = random.Random(20_000 + seed)
    tree = random_datatree(15 + seed * 5, labels=LABELS, seed=rng)
    pattern, _ = random_matching_pattern(
        tree, seed=rng, wildcard_probability=0.3, descendant_probability=0.4
    )
    tree_index(tree)
    for _ in range(6):
        _mutate_once(tree, rng)
        indexed = indexed_matches(pattern, tree)
        naive = pattern.matches(tree, matcher="naive")
        assert len(indexed) == len(naive)
        assert set(indexed) == set(naive)


def test_journal_records_every_mutation_kind():
    tree = DataTree("A")
    child = tree.add_child(tree.root, "B")
    tree.set_label(child, "C")
    graft = DataTree("D")
    graft.add_child(graft.root, "E")
    tree.add_subtree(tree.root, graft)
    tree.delete_subtree(child)
    entries = tree.mutations_since(0)
    assert [entry[0] for entry in entries] == [
        "add_child",
        "set_label",
        "add_child",
        "add_child",
        "delete_subtree",
    ]
    assert entries[1][2] == ("B", "C")
    assert entries[-1][2][1] == frozenset({"C"})
    assert tree.labels_mutated_since(0) == frozenset({"B", "C", "D", "E"})
    assert tree.labels_mutated_since(tree.version) == frozenset()


def test_trimmed_journals_force_rebuilds():
    tree = DataTree("A")
    index = tree_index(tree)
    for _ in range(JOURNAL_LIMIT + 1):
        tree.add_child(tree.root, "B")
    # The journal dropped its oldest entries: version 0 is out of reach.
    assert tree.mutations_since(0) is None
    assert tree.labels_mutated_since(0) is None
    assert not index.patch()
    rebuilt = tree_index(tree)
    assert rebuilt is not index
    assert rebuilt.structural_state() == TreeIndex(tree).structural_state()


def test_copies_and_restrictions_start_fresh_journals():
    tree = DataTree("A")
    tree.add_child(tree.root, "B")
    clone = tree.copy()
    assert clone.mutations_since(0) == []
    restricted = tree.restrict(list(tree.nodes()))
    assert restricted.mutations_since(0) == []


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40))
def test_long_update_sequences_slow(seed):
    """Slow oracle tier: longer sequences over larger documents."""
    node_count = 50 + (seed * 37) % 451
    _run_sequence(100_000 + seed, node_count, steps=50, burst=4)
