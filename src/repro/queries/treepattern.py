"""Tree-pattern queries with joins.

This is the concrete locally monotone query language the paper (and [3])
works with.  A pattern is itself a small unordered tree:

* every pattern node has a *label constraint* — either an exact label or the
  wildcard ``"*"``;
* every non-root pattern node is connected to its parent by either a
  **child** edge (the matched tree node must be a child of the parent's
  match) or a **descendant** edge (a strict descendant);
* *joins* are equality constraints between the labels of the tree nodes
  matched by two pattern nodes (this models value joins in a data model that
  does not distinguish text from element labels).

The pattern root is matched against the tree root (use a wildcard root with
a descendant edge to express "anywhere in the document").  An embedding is a
mapping from pattern nodes to tree nodes respecting labels, edges and joins;
it need not be injective.  The answer for an embedding is the sub-datatree
induced by the image plus the path to the root, which makes the query
locally monotone: whether an embedding exists only depends on the presence
of the matched nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.queries.base import LocallyMonotoneQuery, Match
from repro.trees.datatree import DataTree, NodeId
from repro.utils.errors import QueryError

WILDCARD = "*"

EDGE_CHILD = "child"
EDGE_DESCENDANT = "descendant"


@dataclass(frozen=True)
class PatternNode:
    """A node of a tree pattern."""

    node_id: int
    label: str
    edge: str = EDGE_CHILD  # edge to the parent (ignored for the root)

    def label_matches(self, candidate: str) -> bool:
        return self.label == WILDCARD or self.label == candidate


class TreePattern(LocallyMonotoneQuery):
    """A tree-pattern query with (label-equality) joins.

    Patterns are built imperatively, mirroring :class:`DataTree`::

        q = TreePattern("A")
        b = q.add_child(q.root, "B")
        c = q.add_child(q.root, "*", edge="descendant")
        q.add_join(b, c)           # matched labels must coincide
    """

    def __init__(self, root_label: str = WILDCARD) -> None:
        self._nodes: Dict[int, PatternNode] = {0: PatternNode(0, str(root_label))}
        self._children: Dict[int, List[int]] = {0: []}
        self._parent: Dict[int, Optional[int]] = {0: None}
        self._joins: List[Tuple[int, int]] = []
        self._next_id = 1

    # -- construction ------------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    def add_child(self, parent: int, label: str, edge: str = EDGE_CHILD) -> int:
        """Add a pattern node under *parent*; returns its identifier."""
        if parent not in self._nodes:
            raise QueryError(f"unknown pattern node {parent!r}")
        if edge not in (EDGE_CHILD, EDGE_DESCENDANT):
            raise QueryError(f"edge must be 'child' or 'descendant', got {edge!r}")
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = PatternNode(node_id, str(label), edge)
        self._children[node_id] = []
        self._parent[node_id] = parent
        self._children[parent].append(node_id)
        return node_id

    def add_join(self, first: int, second: int) -> None:
        """Require the labels matched by two pattern nodes to be equal."""
        for node in (first, second):
            if node not in self._nodes:
                raise QueryError(f"unknown pattern node {node!r}")
        if first == second:
            raise QueryError("a join must relate two distinct pattern nodes")
        self._joins.append((first, second))

    # -- inspection --------------------------------------------------------

    def pattern_nodes(self) -> List[PatternNode]:
        return [self._nodes[node_id] for node_id in sorted(self._nodes)]

    def pattern_children(self, node: int) -> Tuple[int, ...]:
        return tuple(self._children[node])

    def joins(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self._joins)

    def node_count(self) -> int:
        return len(self._nodes)

    def fingerprint(self) -> tuple:
        """A hashable encoding of the pattern's structure, labels and joins.

        Two patterns with equal fingerprints select the same answers on every
        tree, which is what the :class:`~repro.core.context.ExecutionContext`
        answer-set cache keys on (together with the tree version).  Computed
        fresh on every call — patterns are tiny and mutable (``add_child`` /
        ``add_join``), so caching the value would risk staleness.
        """
        return (
            "tree-pattern",
            tuple(
                (spec.node_id, spec.label, spec.edge, self._parent[spec.node_id])
                for spec in (self._nodes[node_id] for node_id in sorted(self._nodes))
            ),
            tuple(self._joins),
        )

    def label_set(self) -> Optional[FrozenSet[str]]:
        """The tree labels this pattern constrains, or ``None`` for wildcards.

        The context answer cache uses this as the invalidation fingerprint:
        a mutation can only change the pattern's answers when it touches one
        of these labels (matched nodes carry exactly these labels, and any
        mutation reaching an answer's unmatched ancestors necessarily
        removes a matched node too).  A pattern containing a wildcard step
        can match anything, so it returns ``None`` — "invalidate on every
        mutation".  Computed fresh per call, like :meth:`fingerprint`.
        """
        labels: Set[str] = set()
        for spec in self._nodes.values():
            if spec.label == WILDCARD:
                return None
            labels.add(spec.label)
        return frozenset(labels)

    # -- evaluation ---------------------------------------------------------

    def matches(
        self,
        tree: DataTree,
        matcher: Optional[str] = None,
        context=None,
    ) -> List[Match]:
        """All embeddings of the pattern into *tree*.

        ``matcher`` selects the evaluation strategy:

        * ``None`` (default) — the fast path, chosen by tree size
          (:meth:`~repro.core.context.ExecutionContext.effective_matcher`):
          the pattern compiled into a bottom-up plan over the tree's shared
          structural index (:class:`~repro.queries.plan.PatternPlan`), or,
          from :data:`~repro.core.context.AUTO_COLUMNAR_NODES` nodes up with
          numpy present, the same plan shape run as vectorized interval
          merges over the tree's cached
          :class:`~repro.trees.columnar.ColumnarTree` snapshot
          (:class:`~repro.queries.plan.ColumnarPlan`);
        * ``"naive"`` — the direct backtracking matcher below, kept as a
          differential-testing oracle (mirroring ``engine="enumerate"``).

        ``context`` (an :class:`~repro.core.context.ExecutionContext`)
        supplies the default mode and collects stats; when omitted, the
        module default context is used.  All strategies return the same
        embedding list (identical order included).
        """
        from repro.core.context import resolve_context  # local: avoids an import cycle
        from repro.queries.plan import ColumnarPlan, PatternPlan

        ctx = resolve_context(context)
        effective = ctx.effective_matcher(tree, matcher)
        if effective == "naive":
            return self.matches_naive(tree)
        ctx.note_plan_compiled()
        if effective == "columnar":
            from repro.trees.columnar import columnar_tree

            # The accessor patches a stale-but-patchable cached column (or
            # rebuilds); the context's stats record which maintenance path
            # each evaluation actually paid.
            return ColumnarPlan(self, columnar_tree(tree, ctx.stats)).matches()
        return PatternPlan(self, tree).matches()

    def matches_with(self, tree: DataTree, context=None) -> List[Match]:
        return self.matches(tree, context=context)

    def matches_naive(self, tree: DataTree) -> List[Match]:
        """The reference backtracking matcher (the ``"naive"`` oracle)."""
        root_pattern = self._nodes[0]
        if not root_pattern.label_matches(tree.root_label):
            return []
        embeddings = self._match_subpattern(tree, 0, tree.root)
        result = []
        for embedding in embeddings:
            if self._joins_satisfied(tree, embedding):
                result.append(Match.from_dict(embedding))
        return result

    def _match_subpattern(
        self, tree: DataTree, pattern_node: int, tree_node: NodeId
    ) -> List[Dict[int, NodeId]]:
        """Embeddings of the pattern subtree at *pattern_node*, with that node pinned."""
        partials: List[Dict[int, NodeId]] = [{pattern_node: tree_node}]
        for pattern_child in self._children[pattern_node]:
            child_spec = self._nodes[pattern_child]
            if child_spec.edge == EDGE_CHILD:
                candidates: Iterable[NodeId] = tree.children(tree_node)
            else:
                candidates = tree.descendants(tree_node)
            child_embeddings: List[Dict[int, NodeId]] = []
            for candidate in candidates:
                if not child_spec.label_matches(tree.label(candidate)):
                    continue
                child_embeddings.extend(
                    self._match_subpattern(tree, pattern_child, candidate)
                )
            if not child_embeddings:
                return []
            partials = [
                {**left, **right}
                for left in partials
                for right in child_embeddings
            ]
        return partials

    def _joins_satisfied(self, tree: DataTree, embedding: Dict[int, NodeId]) -> bool:
        for first, second in self._joins:
            if tree.label(embedding[first]) != tree.label(embedding[second]):
                return False
        return True

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"TreePattern(nodes={len(self._nodes)}, joins={len(self._joins)}, "
            f"root={self._nodes[0].label!r})"
        )


def child_chain(labels: Sequence[str]) -> TreePattern:
    """A pattern matching a root-to-node chain of child edges with *labels*.

    ``child_chain(["A", "B", "C"])`` matches documents whose root is ``A``
    with a ``B`` child that has a ``C`` child.
    """
    if not labels:
        raise QueryError("child_chain needs at least a root label")
    pattern = TreePattern(labels[0])
    current = pattern.root
    for label in labels[1:]:
        current = pattern.add_child(current, label)
    return pattern


def root_has_child(root_label: str, child_label: str) -> TreePattern:
    """Pattern: the root (labeled *root_label* or ``*``) has a *child_label* child."""
    pattern = TreePattern(root_label)
    pattern.add_child(pattern.root, child_label)
    return pattern


def descendant_anywhere(label: str) -> TreePattern:
    """Pattern: some node labeled *label* appears anywhere below the root."""
    pattern = TreePattern(WILDCARD)
    pattern.add_child(pattern.root, label, edge=EDGE_DESCENDANT)
    return pattern


__all__ = [
    "WILDCARD",
    "EDGE_CHILD",
    "EDGE_DESCENDANT",
    "PatternNode",
    "TreePattern",
    "child_chain",
    "root_has_child",
    "descendant_anywhere",
]
