"""Tests for the structural tree index and its automatic invalidation."""

import pytest

from repro.trees.builders import tree
from repro.trees.datatree import DataTree
from repro.trees.index import TreeIndex, tree_index
from repro.queries.plan import indexed_matches
from repro.queries.treepattern import TreePattern, descendant_anywhere
from repro.workloads.random_queries import random_matching_pattern
from repro.workloads.random_trees import random_datatree


def _assert_index_consistent(data_tree):
    """The index must agree with the tree's own (slow) navigation."""
    index = tree_index(data_tree)
    nodes = list(data_tree.nodes())
    assert list(index.nodes_in_preorder()) == nodes
    for node in nodes:
        assert index.depth(node) == data_tree.depth(node)
        descendants = set(data_tree.descendants(node))
        assert index.subtree_size(node) == len(descendants) + 1
        for other in nodes:
            assert index.is_ancestor(node, other) == (other in descendants)
            assert index.is_ancestor(node, other, strict=False) == (
                other in descendants or other == node
            )
    for label in index.labels():
        assert list(index.nodes_with_label(label)) == list(
            data_tree.nodes_with_label(label)
        )
        for node in nodes:
            assert index.children_with_label(node, label) == (
                data_tree.children_with_label(node, label)
            )
            assert set(index.descendants_with_label(node, label)) == {
                d for d in data_tree.descendants(node) if data_tree.label(d) == label
            }


@pytest.mark.parametrize("seed", range(10))
def test_index_matches_tree_navigation(seed):
    _assert_index_consistent(random_datatree(1 + seed * 9, seed=seed))


def test_index_is_cached_and_patched_in_place():
    document = tree("A", tree("B", "C"), "B")
    first = tree_index(document)
    assert tree_index(document) is first
    assert first.is_fresh()

    # A short journal is replayed onto the cached snapshot instead of
    # triggering a rebuild: same object, fresh again, rebuild-identical.
    document.add_child(document.root, "D")
    assert not first.is_fresh()
    second = tree_index(document)
    assert second is first
    assert second.is_fresh()
    assert second.structural_state() == TreeIndex(document).structural_state()


def test_long_journals_fall_back_to_a_rebuild():
    from repro.trees.index import PATCH_JOURNAL_LIMIT

    document = tree("A", tree("B", "C"), "B")
    first = tree_index(document)
    for _ in range(PATCH_JOURNAL_LIMIT + 1):
        document.add_child(document.root, "E")
    assert not first.patch()  # journal longer than the cost-model threshold
    second = tree_index(document)
    assert second is not first
    assert second.is_fresh()
    _assert_index_consistent(document)


def test_every_mutation_kind_invalidates():
    document = tree("A", tree("B", "C"), "B")
    for mutate in (
        lambda t: t.add_child(t.root, "E"),
        lambda t: t.set_label(t.children(t.root)[0], "Z"),
        lambda t: t.delete_subtree(t.children(t.root)[-1]),
        lambda t: t.add_subtree(t.root, DataTree("F")),
    ):
        before = tree_index(document)
        mutate(document)
        assert not before.is_fresh()
        _assert_index_consistent(document)


def test_copies_do_not_share_index_state():
    document = tree("A", "B")
    index = tree_index(document)
    clone = document.copy()
    clone.add_child(clone.root, "C")
    # Mutating the copy must not invalidate (or corrupt) the original's index.
    assert index.is_fresh()
    assert tree_index(document) is index
    _assert_index_consistent(clone)


class TestQueriesAfterMutation:
    """The invalidation contract, end to end: mutate after indexing, then
    check the indexed matcher still agrees with the naive oracle."""

    def _check(self, document, pattern):
        assert set(indexed_matches(pattern, document)) == set(
            pattern.matches(document, matcher="naive")
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_add_delete_relabel_then_query(self, seed):
        document = random_datatree(20 + seed * 3, seed=seed)
        pattern, _ = random_matching_pattern(
            document, seed=seed, wildcard_probability=0.3, descendant_probability=0.4
        )
        self._check(document, pattern)  # builds and caches the index

        # add
        nodes = list(document.nodes())
        document.add_child(nodes[seed % len(nodes)], "B")
        self._check(document, pattern)

        # relabel
        nodes = list(document.nodes())
        document.set_label(nodes[(seed * 5) % len(nodes)], "C")
        self._check(document, pattern)

        # delete (any non-root node)
        nodes = [n for n in document.nodes() if n != document.root]
        document.delete_subtree(nodes[(seed * 11) % len(nodes)])
        self._check(document, pattern)

        # graft a whole subtree
        document.add_subtree(document.root, random_datatree(5, seed=seed + 1))
        self._check(document, pattern)

    def test_stale_results_would_differ(self):
        """Sanity: the mutations above actually change the match sets."""
        document = tree("A", "B")
        pattern = descendant_anywhere("B")
        assert len(indexed_matches(pattern, document)) == 1
        document.add_child(document.root, "B")
        assert len(indexed_matches(pattern, document)) == 2
        for node in list(document.nodes()):
            if node != document.root:
                document.delete_subtree(node)
        assert indexed_matches(pattern, document) == []
