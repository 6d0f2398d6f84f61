"""Candidate seeding stays allocation-free for wildcard pattern nodes.

Regression for the O(n)-per-wildcard copy: ``PatternPlan._seed_candidates``
used to materialize ``list(index.nodes_in_preorder())`` for *every* wildcard
node of the pattern, turning a k-wildcard pattern into k full scans of the
document before any pruning ran.  The seed now shares the index's preorder
tuple; materialization is deferred to the semijoin prune, which only copies
the candidates it actually filters.
"""

from __future__ import annotations

from repro.queries.plan import PatternPlan, indexed_matches
from repro.queries.treepattern import EDGE_DESCENDANT, TreePattern
from repro.trees.index import tree_index
from repro.workloads import random_datatree


def _wildcard_heavy_pattern():
    """A pattern with three non-root wildcard nodes (and one labeled leaf)."""
    pattern = TreePattern("*")
    first = pattern.add_child(pattern.root, "*", edge=EDGE_DESCENDANT)
    second = pattern.add_child(first, "*", edge=EDGE_DESCENDANT)
    third = pattern.add_child(pattern.root, "*", edge=EDGE_DESCENDANT)
    pattern.add_child(second, "A")
    return pattern, (first, second, third)


class TestWildcardSeedSharing:
    def test_every_wildcard_shares_the_index_preorder_tuple(self):
        tree = random_datatree(400, seed=5)
        index = tree_index(tree)
        pattern, wildcards = _wildcard_heavy_pattern()
        plan = PatternPlan(pattern, tree, index)
        candidates = plan._seed_candidates()
        shared = index.nodes_in_preorder()
        for node_id in wildcards:
            # Identity, not equality: the seed is the index's own tuple,
            # zero copies no matter how many wildcards the pattern has.
            assert candidates[node_id] is shared

    def test_seeding_copies_nothing_as_wildcards_are_added(self):
        """Counting test: the number of fresh candidate sequences does not
        grow with the number of wildcard nodes."""
        tree = random_datatree(300, seed=9)
        index = tree_index(tree)
        shared = index.nodes_in_preorder()

        def fresh_seed_count(pattern):
            candidates = PatternPlan(pattern, tree, index)._seed_candidates()
            return sum(
                1 for value in candidates.values() if value is not shared
            )

        counts = []
        for wildcard_nodes in (1, 2, 4):
            pattern = TreePattern("*")
            anchor = pattern.root
            for _ in range(wildcard_nodes):
                anchor = pattern.add_child(anchor, "*", edge=EDGE_DESCENDANT)
            counts.append(fresh_seed_count(pattern))
        # Only the root seed is ever a fresh sequence; wildcard fan-out
        # contributes zero additional allocations.
        assert counts == [1, 1, 1]

    def test_shared_seeds_still_match_correctly(self):
        tree = random_datatree(250, seed=2)
        pattern, _ = _wildcard_heavy_pattern()
        fast = indexed_matches(pattern, tree)
        oracle = pattern.matches_naive(tree)
        assert sorted(fast, key=repr) == sorted(oracle, key=repr)

    def test_root_exclusion_is_preserved(self):
        """Non-root labeled seeds still exclude the root even when the root
        label collides with an inner label."""
        tree = random_datatree(120, seed=4, root_label="A")
        index = tree_index(tree)
        pattern = TreePattern("A")
        inner = pattern.add_child(pattern.root, "A", edge=EDGE_DESCENDANT)
        plan = PatternPlan(pattern, tree, index)
        candidates = plan._seed_candidates()
        assert tree.root not in candidates[inner]
