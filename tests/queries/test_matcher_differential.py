"""Randomized differential tests: indexed vs naive tree-pattern matching.

The compiled matcher of :mod:`repro.queries.plan` must return *exactly* the
embedding set of the naive backtracking matcher — the oracle convention
mirrors ``engine="enumerate"`` for probabilities.  These tests sweep seeded
random tree/query pairs (wildcards, descendant edges, joins, branching
patterns) and assert set-level identity of the matches, the answer node
sets, and the boolean selection verdict.
"""

import random

import pytest

from repro.core.context import ExecutionContext
from repro.queries.plan import indexed_matches
from repro.queries.treepattern import (
    EDGE_DESCENDANT,
    TreePattern,
    child_chain,
    descendant_anywhere,
)
from repro.workloads.random_queries import random_matching_pattern
from repro.workloads.random_trees import random_datatree

pytestmark = pytest.mark.differential

NAIVE = ExecutionContext(matcher="naive")


def _assert_matchers_agree(pattern, tree):
    naive = pattern.matches(tree, matcher="naive")
    indexed = indexed_matches(pattern, tree)
    # The fast path must be observationally identical to the indexed plan
    # and the oracle, whichever structure it picks (fresh context per call
    # so the choice is driven by this tree alone).
    fast = pattern.matches(tree, context=ExecutionContext())
    # Embeddings are distinct mappings, so set identity plus equal length is
    # multiset identity.
    assert len(naive) == len(indexed) == len(fast)
    assert set(naive) == set(indexed) == set(fast)
    assert set(pattern.result_node_sets(tree, context=NAIVE)) == set(
        pattern.result_node_sets(tree)
    )
    assert pattern.selects(tree, context=NAIVE) == pattern.selects(tree)
    return len(naive)


# 120 seeds x (plain + joined) = 240 matching-pattern cases, plus the
# cross-tree and handcrafted sweeps below.
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
    assert _assert_matchers_agree(pattern, tree) >= 1

    # The same pattern with a random label-equality join bolted on (joins can
    # empty the match set; both matchers must agree on that too).
    node_ids = [spec.node_id for spec in pattern.pattern_nodes()]
    if len(node_ids) >= 2:
        rng = random.Random(seed)
        first, second = rng.sample(node_ids, 2)
        pattern.add_join(first, second)
        _assert_matchers_agree(pattern, tree)


@pytest.mark.parametrize("seed", range(40))
def test_cross_tree_patterns_agree(seed):
    """Patterns sampled from one tree, evaluated on another (often no match)."""
    source = random_datatree(1 + seed % 40, seed=seed)
    target = random_datatree(1 + (seed * 13) % 80, seed=seed + 1000)
    pattern, _ = random_matching_pattern(
        source, seed=seed, wildcard_probability=0.5, descendant_probability=0.5
    )
    _assert_matchers_agree(pattern, target)


@pytest.mark.parametrize("seed", range(30))
def test_descendant_heavy_patterns_agree(seed):
    """All-descendant, all-wildcard-step chains on wide/deep random trees."""
    tree = random_datatree(
        60 + seed, seed=seed, max_children=2 + seed % 3, labels=("A", "B", "C")
    )
    pattern = TreePattern("*")
    current = pattern.root
    rng = random.Random(seed)
    for _ in range(1 + seed % 4):
        label = rng.choice(["A", "B", "C", "*"])
        current = pattern.add_child(current, label, edge=EDGE_DESCENDANT)
    _assert_matchers_agree(pattern, tree)


@pytest.mark.parametrize("seed", range(20))
def test_branching_join_patterns_agree(seed):
    """Two wildcard branches under the root, joined on equal labels."""
    tree = random_datatree(40 + seed * 3, seed=seed, labels=("A", "B", "C", "D"))
    pattern = TreePattern("*")
    left = pattern.add_child(pattern.root, "*", edge=EDGE_DESCENDANT)
    right = pattern.add_child(pattern.root, "*", edge=EDGE_DESCENDANT)
    pattern.add_join(left, right)
    _assert_matchers_agree(pattern, tree)


def test_handcrafted_edge_cases():
    single = random_datatree(1, seed=0, root_label="A")
    for pattern in (TreePattern("A"), TreePattern("*"), TreePattern("Z")):
        _assert_matchers_agree(pattern, single)
    _assert_matchers_agree(descendant_anywhere("A"), single)

    # Non-injective embeddings: two pattern children onto one tree node.
    doc = random_datatree(2, seed=1, root_label="A", labels=("B",))
    pattern = TreePattern("A")
    pattern.add_child(pattern.root, "B")
    pattern.add_child(pattern.root, "B")
    assert _assert_matchers_agree(pattern, doc) == 1

    # Chain patterns on a chain tree.
    chain = child_chain(["A", "B", "C"])
    tree = random_datatree(30, seed=3, root_label="A")
    _assert_matchers_agree(chain, tree)
