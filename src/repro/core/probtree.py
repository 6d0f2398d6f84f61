"""The probabilistic tree (prob-tree) structure — Definition 2 of the paper.

A prob-tree is a 4-tuple ``(t, W, π, γ)``: a data tree ``t``, a finite set of
event variables ``W`` with a probability distribution ``π``, and a function
``γ`` assigning a *condition* (a conjunction of possibly-negated event
literals) to every non-root node.  The root carries no condition: it is
present in every possible world.

The central operation is :meth:`ProbTree.value_in_world`: given a world
``V ⊆ W``, the value ``V(T)`` is the subtree of ``t`` obtained by removing
every node whose condition is violated by ``V`` — together with its
descendants (Definition 4).  The possible-world semantics ``⟦T⟧`` built on
top of this lives in :mod:`repro.core.semantics`.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.core.events import EventFactory, ProbabilityDistribution
from repro.formulas.literals import Condition, Valuation
from repro.trees.datatree import DataTree, NodeId
from repro.utils.errors import InvalidConditionError, TransactionError
from repro.utils.faults import fire


class ProbTree:
    """A probabilistic tree ``(t, W, π, γ)``.

    The underlying :class:`DataTree` is owned by the prob-tree (mutating it
    from outside invalidates the conditions mapping); use :meth:`copy` before
    destructive experiments.
    """

    # __weakref__ lets repro.core.probability attach a per-probtree engine
    # cache without keeping dead prob-trees alive.
    __slots__ = (
        "_tree",
        "_distribution",
        "_conditions",
        "_state_version",
        "_undo",
        "_snapshot_pins",
        "__weakref__",
    )

    def __init__(
        self,
        tree: DataTree,
        distribution: ProbabilityDistribution | Mapping[str, float] | None = None,
        conditions: Mapping[NodeId, Condition] | None = None,
    ) -> None:
        if not isinstance(distribution, ProbabilityDistribution):
            distribution = ProbabilityDistribution(distribution or {})
        self._tree = tree
        self._distribution = distribution
        self._conditions: Dict[NodeId, Condition] = {}
        self._state_version: int = 0
        self._undo = None  # inverse records while inside a Transaction
        self._snapshot_pins = None  # managed by repro.core.snapshot
        if conditions:
            for node, condition in conditions.items():
                self.set_condition(node, condition)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def certain(tree: DataTree) -> "ProbTree":
        """A prob-tree with no events: its only possible world is *tree*."""
        return ProbTree(tree, ProbabilityDistribution.empty(), {})

    # -- components --------------------------------------------------------

    @property
    def tree(self) -> DataTree:
        """The underlying data tree ``t``."""
        return self._tree

    @property
    def distribution(self) -> ProbabilityDistribution:
        """The pair ``(W, π)``."""
        return self._distribution

    @property
    def state_version(self) -> int:
        """Mutation counter over ``γ`` and ``(W, π)``.

        Bumped by :meth:`set_condition` and :meth:`add_event` — the two ways
        a prob-tree's probabilistic state can change *without* touching the
        underlying data tree (whose own
        :attr:`~repro.trees.datatree.DataTree.version` covers structural and
        label mutations).  Together the two counters let the
        :class:`~repro.core.context.ExecutionContext` answer cache detect
        every mutation that could change cached answers or probabilities.
        """
        return self._state_version

    def events(self) -> Set[str]:
        """The declared event set ``W``."""
        return self._distribution.events()

    def used_events(self) -> Set[str]:
        """Events actually mentioned by at least one condition.

        Events in ``W`` that no condition mentions do not influence any
        ``V(T)``; restricting world enumeration to used events yields an
        isomorphic possible-world set, which most algorithms exploit.
        """
        result: Set[str] = set()
        for condition in self._conditions.values():
            result |= condition.events()
        return result

    # -- conditions ---------------------------------------------------------

    def condition(self, node: NodeId) -> Condition:
        """The condition ``γ(node)`` (the empty condition for the root)."""
        if not self._tree.has_node(node):
            raise KeyError(f"node {node!r} does not belong to the prob-tree")
        return self._conditions.get(node, Condition.true())

    def set_condition(self, node: NodeId, condition: Condition) -> None:
        """Assign a condition to a non-root node.

        Raises :class:`InvalidConditionError` if the node is the root or the
        condition mentions events absent from ``W``.
        """
        if not self._tree.has_node(node):
            raise KeyError(f"node {node!r} does not belong to the prob-tree")
        if node == self._tree.root:
            if condition.is_true():
                self._conditions.pop(node, None)
                return
            raise InvalidConditionError("the root of a prob-tree cannot carry a condition")
        distribution = self._distribution
        unknown = {
            literal.event
            for literal in condition.literals
            if literal.event not in distribution
        }
        if unknown:
            raise InvalidConditionError(
                f"condition mentions events not in W: {sorted(unknown)}"
            )
        self._notify_write()
        undo = self._undo
        if undo is not None:
            undo.append(("condition", node, self._conditions.get(node)))
        if condition.is_true():
            self._conditions.pop(node, None)
        else:
            self._conditions[node] = condition
        fire("probtree.set_condition")
        self._state_version += 1

    def conditions(self) -> Dict[NodeId, Condition]:
        """A copy of the (non-trivial) condition assignment ``γ``."""
        return dict(self._conditions)

    def accumulated_condition(self, node: NodeId) -> Condition:
        """Conjunction of the conditions of *node* and all its ancestors.

        A node is present in world ``V`` exactly when its accumulated
        condition holds in ``V``.
        """
        result = self.condition(node)
        for ancestor in self._tree.ancestors(node):
            result = result.conjoin(self.condition(ancestor))
        return result

    # -- construction helpers ----------------------------------------------

    def add_child(
        self,
        parent: NodeId,
        label: str,
        condition: Condition | None = None,
    ) -> NodeId:
        """Add a child node with an optional condition; return its id."""
        node = self._tree.add_child(parent, label)
        if condition is not None and not condition.is_true():
            self.set_condition(node, condition)
        return node

    def remove_subtree(self, node: NodeId) -> None:
        """Remove *node* and its descendants, dropping their conditions.

        Counterpart of :meth:`DataTree.delete_subtree` that keeps the
        condition assignment ``γ`` consistent with the remaining nodes.
        """
        removed = self._tree.delete_subtree(node)
        undo = self._undo
        for removed_node in removed:
            old = self._conditions.pop(removed_node, None)
            if undo is not None and old is not None:
                undo.append(("condition", removed_node, old))

    def add_event(self, event: str, probability: float) -> None:
        """Register a new event variable with probability *probability*."""
        new_distribution = self._distribution.with_event(event, probability)
        self._notify_write()
        undo = self._undo
        if undo is not None:
            undo.append(("distribution", self._distribution))
        self._distribution = new_distribution
        fire("probtree.add_event")
        self._state_version += 1

    def event_factory(self, prefix: str = "w") -> EventFactory:
        """An :class:`EventFactory` that avoids every event already in ``W``."""
        return EventFactory(prefix=prefix, reserved=self._distribution.events())

    # -- semantics ----------------------------------------------------------

    def value_in_world(self, world: AbstractSet[str] | Valuation) -> DataTree:
        """The value ``V(T)`` of the prob-tree in world *world* (Definition 4).

        Nodes whose condition contains a literal violated by *world* are
        removed together with their descendants.  The result shares node
        identifiers with the underlying data tree.
        """
        if isinstance(world, Valuation):
            world = world.true_events
        world_set = set(world)

        def should_remove(node: NodeId) -> bool:
            return not self.condition(node).holds_in(world_set)

        return self._tree.prune_where(should_remove)

    def world_probability(self, world: AbstractSet[str], over_used_only: bool = False) -> float:
        """Probability ``∏_{w∈V} π(w) ∏_{w∈W−V} (1−π(w))`` of a world."""
        domain = self.used_events() if over_used_only else self._distribution.events()
        return self._distribution.world_probability(set(world) & domain, over=domain)

    # -- size ---------------------------------------------------------------

    def node_count(self) -> int:
        return self._tree.node_count()

    def literal_count(self) -> int:
        """Total number of literals across all conditions."""
        return sum(len(condition) for condition in self._conditions.values())

    def size(self) -> int:
        """The size ``|T|`` used by the paper: nodes plus literals."""
        return self.node_count() + self.literal_count()

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, stats=None):
        """Pin an immutable view of this prob-tree at its current version.

        Returns a :class:`repro.core.snapshot.Snapshot` handle whose
        ``probtree`` property keeps answering for the pinned
        ``(tree.version, state_version)`` stamp: direct in-place mutations
        trigger a copy-on-write preserve of the pinned state, and warehouse
        updates leave a pinned document alone (they write a copy).  At most
        :data:`repro.core.snapshot.SNAPSHOT_RETENTION` distinct versions stay
        pinned per prob-tree — beyond that the oldest pins are retired and
        raise :class:`~repro.utils.errors.SnapshotRetiredError` on access.
        Prefer :meth:`ExecutionContext.read_snapshot
        <repro.core.context.ExecutionContext.read_snapshot>` inside sessions:
        it also counts pins in ``ContextStats`` and bounds retention across a
        whole document chain.
        """
        from repro.core.snapshot import SNAPSHOT_RETENTION, pin

        return pin(self, retention=SNAPSHOT_RETENTION, stats=stats)

    def _notify_write(self) -> None:
        """Give pinned snapshots their copy-on-write chance before mutating."""
        pins = self._snapshot_pins
        if pins is not None:
            pins.before_write()

    # -- transactions (undo log) ---------------------------------------------

    def begin_undo(self) -> int:
        """Open an undo scope over ``γ``/``π``; returns the rollback mark.

        Covers only this object's own state — the underlying tree has its
        own :meth:`DataTree.begin_undo
        <repro.trees.datatree.DataTree.begin_undo>`;
        :class:`repro.core.transactions.Transaction` drives both.
        """
        if self._undo is not None:
            raise TransactionError("this prob-tree is already inside a transaction")
        self._undo = []
        return self._state_version

    def commit_undo(self) -> None:
        self._undo = None

    def rollback_undo(self, mark: int) -> None:
        entries = self._undo
        self._undo = None
        if entries:
            for entry in reversed(entries):
                self._apply_undo(entry)
        self._state_version = mark

    def _apply_undo(self, entry: tuple) -> None:
        if entry[0] == "condition":
            _, node, old = entry
            if old is None:
                self._conditions.pop(node, None)
            else:
                self._conditions[node] = old
        else:  # distribution
            self._distribution = entry[1]

    # -- copies --------------------------------------------------------------

    def copy(self) -> "ProbTree":
        """Deep copy preserving node ids and ``state_version``.

        The distribution is shared (it is immutable) and the conditions are
        copied without re-validation: they were checked against this very
        distribution when they were set.  The copy carries no undo scope and
        no snapshot pins.
        """
        clone = ProbTree.__new__(ProbTree)
        clone._tree = self._tree.copy()
        clone._distribution = self._distribution
        clone._conditions = dict(self._conditions)
        clone._state_version = self._state_version
        clone._undo = None
        clone._snapshot_pins = None
        return clone

    def with_distribution(self, distribution: ProbabilityDistribution) -> "ProbTree":
        """Same tree and conditions, different probability assignment.

        Used by Proposition 4: structural equivalence quantifies over all
        probability assignments to the same event set.
        """
        unknown = self.used_events() - distribution.events()
        if unknown:
            raise InvalidConditionError(
                f"new distribution is missing used events: {sorted(unknown)}"
            )
        return ProbTree(self._tree.copy(), distribution, dict(self._conditions))

    # -- misc ----------------------------------------------------------------

    def pretty(self) -> str:
        """Human-readable multi-line rendering (label [condition] per node)."""
        lines = []

        def visit(node: NodeId, indent: int) -> None:
            condition = self.condition(node)
            suffix = "" if condition.is_true() else f"  [{condition}]"
            lines.append("  " * indent + self._tree.label(node) + suffix)
            for child in self._tree.children(node):
                visit(child, indent + 1)

        visit(self._tree.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ProbTree(nodes={self.node_count()}, literals={self.literal_count()}, "
            f"events={len(self._distribution)})"
        )


__all__ = ["ProbTree"]
