"""Query abstraction (Definition 6) and query matches.

A query maps every data tree ``t`` to a set of sub-datatrees of ``t``.  A
query is *locally monotone* when membership of a sub-datatree in the answer
only depends on the part of the tree below it: for ``u ≤ t' ≤ t``,
``u ∈ Q(t) ⇔ u ∈ Q(t')``.  The paper shows (Theorem 1) that for locally
monotone queries, evaluation over a prob-tree reduces to evaluation over its
underlying data tree; tree-pattern queries with joins are the canonical
example, negative queries the canonical counter-example.

Queries here expose two granularities:

* :meth:`Query.matches` — the individual embeddings (each giving the mapping
  ``µ_Q`` from query nodes to tree nodes that updates need, Appendix A);
* :meth:`Query.results` — the *set* of answer sub-datatrees of Definition 6
  (several matches may induce the same sub-datatree).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Sequence, Tuple

from repro.trees.datatree import DataTree, NodeId
from repro.trees.subdatatree import enumerate_sub_datatrees, is_sub_datatree

QueryNodeId = Hashable


@dataclass(frozen=True)
class Match:
    """One embedding of a query into a data tree.

    Attributes:
        mapping: the ``µ_Q`` function from query node identifiers to tree
            node identifiers.
    """

    mapping: Tuple[Tuple[QueryNodeId, NodeId], ...]

    @staticmethod
    def from_dict(mapping: Dict[QueryNodeId, NodeId]) -> "Match":
        try:
            # Query node ids are usually all ints (tree patterns), where the
            # natural order is well defined and much cheaper than repr.
            return Match(tuple(sorted(mapping.items())))
        except TypeError:
            return Match(tuple(sorted(mapping.items(), key=lambda item: repr(item[0]))))

    def as_dict(self) -> Dict[QueryNodeId, NodeId]:
        return dict(self.mapping)

    def target(self, query_node: QueryNodeId) -> NodeId:
        """The tree node a given query node is mapped to."""
        for key, value in self.mapping:
            if key == query_node:
                return value
        raise KeyError(query_node)

    def matched_nodes(self) -> FrozenSet[NodeId]:
        """The set of tree nodes in the image of the embedding."""
        return frozenset(value for _, value in self.mapping)

    def answer_nodes(self, tree: DataTree) -> FrozenSet[NodeId]:
        """Nodes of the answer sub-datatree: image plus the path to the root."""
        return tree.ancestor_closure(self.matched_nodes())


class Query(ABC):
    """A query over data trees (Definition 6)."""

    #: Whether the query is (claimed to be) locally monotone.  Evaluation on
    #: prob-trees (Definition 8) is only sound for locally monotone queries;
    #: :func:`is_locally_monotone_on` provides an empirical check.
    locally_monotone: bool = True

    @abstractmethod
    def matches(self, tree: DataTree) -> List[Match]:
        """All embeddings of the query into *tree*."""

    def matches_with(self, tree: DataTree, context=None) -> List[Match]:
        """Embeddings under *context*'s matcher policy (fast path or oracle).

        Query classes with alternative matching strategies (notably
        :class:`~repro.queries.treepattern.TreePattern`) override this to
        dispatch; the default ignores *context* so ad-hoc query classes only
        have to implement :meth:`matches`.  Overrides of :meth:`matches_with`,
        :meth:`results` and :meth:`result_node_sets` must accept the
        ``context=`` keyword: the execution context passes itself through it.
        """
        return self.matches(tree)

    def results(self, tree: DataTree, context=None) -> List[DataTree]:
        """The answer set ``Q(t)``: distinct sub-datatrees induced by matches."""
        nodesets = self.result_node_sets(tree, context=context)
        return [tree.restrict(nodes) for nodes in nodesets]

    def result_node_sets(self, tree: DataTree, context=None) -> List[FrozenSet[NodeId]]:
        """Node sets of the distinct answer sub-datatrees (cheaper than trees)."""
        seen: set = set()
        ordered: List[FrozenSet[NodeId]] = []
        for match in self.matches_with(tree, context=context):
            nodes = match.answer_nodes(tree)
            if nodes not in seen:
                seen.add(nodes)
                ordered.append(nodes)
        return ordered

    def selects(self, tree: DataTree, context=None) -> bool:
        """Whether the query has at least one match on *tree*."""
        return bool(self.matches_with(tree, context=context))

    def __call__(self, tree: DataTree) -> List[DataTree]:
        return self.results(tree)


class LocallyMonotoneQuery(Query):
    """Marker base class for queries known to be locally monotone."""

    locally_monotone = True


def is_locally_monotone_on(query: Query, tree: DataTree) -> bool:
    """Empirically check local monotonicity of *query* on *tree*.

    Verifies condition (ii) of Definition 6 — ``Q(t') = Q(t) ∩ Sub(t')`` for
    every sub-datatree ``t'`` of *tree*.  Exponential in the size of *tree*
    (it enumerates ``Sub(t)``), so only suitable for small trees; used by the
    test suite as an oracle on the query languages shipped here.
    """
    full_answers = {frozenset(answer.nodes()) for answer in query.results(tree)}
    for restricted in enumerate_sub_datatrees(tree):
        restricted_nodes = set(restricted.nodes())
        restricted_answers = {
            frozenset(answer.nodes()) for answer in query.results(restricted)
        }
        expected = {
            nodes for nodes in full_answers if set(nodes) <= restricted_nodes
        }
        if restricted_answers != expected:
            return False
    return True


__all__ = ["QueryNodeId", "Match", "Query", "LocallyMonotoneQuery", "is_locally_monotone_on"]
