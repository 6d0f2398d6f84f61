"""Unit tests for the DataTree structure (Definition 1)."""

import pytest
from hypothesis import given, settings

from repro.trees.builders import tree
from repro.trees.datatree import DataTree
from repro.utils.errors import InvalidTreeError, NodeNotFoundError

from tests.conftest import small_datatrees


class TestConstruction:
    def test_single_node_tree(self):
        t = DataTree("A")
        assert t.node_count() == 1
        assert t.root_label == "A"
        assert t.children(t.root) == ()
        assert t.parent(t.root) is None

    def test_add_child_returns_new_id(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        c = t.add_child(t.root, "C")
        assert b != c
        assert set(t.children(t.root)) == {b, c}
        assert t.parent(b) == t.root
        assert t.label(b) == "B"

    def test_labels_are_stringified(self):
        t = DataTree(42)
        child = t.add_child(t.root, 7)
        assert t.root_label == "42"
        assert t.label(child) == "7"

    def test_add_child_unknown_parent_raises(self):
        t = DataTree("A")
        with pytest.raises(NodeNotFoundError):
            t.add_child(999, "B")

    def test_set_label(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        t.set_label(b, "B2")
        assert t.label(b) == "B2"

    def test_add_subtree_grafts_a_copy(self):
        host = DataTree("A")
        guest = tree("X", tree("Y", "Z"))
        mapping = host.add_subtree(host.root, guest)
        assert host.node_count() == 1 + guest.node_count()
        assert host.label(mapping[guest.root]) == "X"
        # The guest itself is untouched.
        assert guest.node_count() == 3

    def test_from_nested_round_trip(self):
        t = tree("A", tree("B"), tree("C", "D"))
        rebuilt = DataTree.from_nested(t.to_nested())
        assert rebuilt.to_nested() == t.to_nested()


class TestNavigation:
    def test_preorder_contains_all_nodes(self):
        t = tree("A", tree("B", "C"), "D")
        assert set(t.nodes()) == {t.root} | {
            node for node in t.nodes() if node != t.root
        }
        assert len(list(t.nodes())) == 4

    def test_descendants_and_ancestors(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        c = t.add_child(b, "C")
        d = t.add_child(c, "D")
        assert list(t.descendants(b)) == [c, d]
        assert list(t.ancestors(d)) == [c, b, t.root]
        assert list(t.ancestors(d, include_self=True)) == [d, c, b, t.root]

    def test_depth_and_height(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        c = t.add_child(b, "C")
        t.add_child(t.root, "D")
        assert t.depth(t.root) == 0
        assert t.depth(c) == 2
        assert t.height() == 2

    def test_leaves(self):
        t = tree("A", tree("B", "C"), "D")
        assert {t.label(leaf) for leaf in t.leaves()} == {"C", "D"}

    def test_nodes_with_label(self):
        t = tree("A", "B", "B", "C")
        assert len(list(t.nodes_with_label("B"))) == 2
        assert len(list(t.nodes_with_label("Z"))) == 0

    def test_children_with_label(self):
        t = tree("A", "B", "B", "C")
        assert len(t.children_with_label(t.root, "B")) == 2


class TestDeletion:
    def test_delete_subtree_removes_descendants(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        c = t.add_child(b, "C")
        removed = t.delete_subtree(b)
        assert removed == {b, c}
        assert t.node_count() == 1
        assert not t.has_node(b)
        assert not t.has_node(c)

    def test_delete_root_is_rejected(self):
        t = DataTree("A")
        with pytest.raises(InvalidTreeError):
            t.delete_subtree(t.root)

    def test_delete_unknown_node_raises(self):
        t = DataTree("A")
        with pytest.raises(NodeNotFoundError):
            t.delete_subtree(5)


class TestCopiesAndRestriction:
    def test_copy_is_independent(self):
        t = tree("A", "B")
        clone = t.copy()
        clone.add_child(clone.root, "C")
        assert t.node_count() == 2
        assert clone.node_count() == 3
        assert clone.same_tree(clone.copy())

    def test_copy_preserves_node_ids(self):
        t = tree("A", "B", "C")
        clone = t.copy()
        assert set(clone.nodes()) == set(t.nodes())
        assert all(clone.label(node) == t.label(node) for node in t.nodes())

    def test_subtree_copy_reroots(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        t.add_child(b, "C")
        sub = t.subtree_copy(b)
        assert sub.root_label == "B"
        assert sub.node_count() == 2

    def test_restrict_requires_root(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        with pytest.raises(InvalidTreeError):
            t.restrict({b})

    def test_restrict_requires_ancestor_closure(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        c = t.add_child(b, "C")
        with pytest.raises(InvalidTreeError):
            t.restrict({t.root, c})

    def test_restrict_keeps_shared_node_ids(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        c = t.add_child(b, "C")
        d = t.add_child(t.root, "D")
        sub = t.restrict({t.root, b, c})
        assert set(sub.nodes()) == {t.root, b, c}
        assert sub.label(c) == "C"
        assert not sub.has_node(d)

    def test_ancestor_closure(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        c = t.add_child(b, "C")
        assert t.ancestor_closure({c}) == frozenset({t.root, b, c})
        assert t.is_ancestor_closed({t.root, b})
        assert not t.is_ancestor_closed({c})

    def test_prune_where_removes_whole_subtrees(self):
        t = DataTree("A")
        b = t.add_child(t.root, "B")
        c = t.add_child(b, "C")
        d = t.add_child(t.root, "D")
        pruned = t.prune_where(lambda node: node == b)
        assert set(pruned.nodes()) == {t.root, d}
        assert not pruned.has_node(c)

    def test_prune_where_never_removes_root(self):
        t = tree("A", "B")
        pruned = t.prune_where(lambda node: True)
        assert set(pruned.nodes()) == {t.root}


class TestProperties:
    @given(small_datatrees())
    @settings(max_examples=50)
    def test_parent_child_consistency(self, t):
        for node in t.nodes():
            for child in t.children(node):
                assert t.parent(child) == node
        # Every non-root node is a child of its parent.
        for node in t.nodes():
            parent = t.parent(node)
            if parent is not None:
                assert node in t.children(parent)

    @given(small_datatrees())
    @settings(max_examples=50)
    def test_node_count_matches_traversal(self, t):
        assert t.node_count() == len(list(t.nodes()))
        assert len(set(t.nodes())) == t.node_count()

    @given(small_datatrees())
    @settings(max_examples=50)
    def test_nested_round_trip_preserves_shape(self, t):
        rebuilt = DataTree.from_nested(t.to_nested())
        assert rebuilt.to_nested() == t.to_nested()
        assert rebuilt.node_count() == t.node_count()
