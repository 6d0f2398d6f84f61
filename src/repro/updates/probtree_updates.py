"""Probabilistic updates applied directly to prob-trees (Appendix A).

The algorithm never materializes the possible-world set:

**Insertion** ``(Q, i(n, t'))`` with confidence ``c``:  a fresh event ``w``
with ``π(w) = c`` is created (none when ``c = 1``); for every match of ``Q``
on the underlying data tree, a copy of ``t'`` is inserted as a child of the
matched node, its root annotated with ``{w} ∪ (cond − (γ(target) ∪
cond_ancestors))`` where ``cond`` is the union of the conditions of the
answer's nodes — i.e. exactly the extra constraints, beyond the target's own
presence, under which this particular match exists.

**Deletion** ``(Q, d(n))`` with confidence ``c``:  for every tree node ``x``
targeted by at least one match, the node must disappear in precisely the
worlds satisfying ``δ_x = w ∧ ⋁_k cond_k`` (one disjunct per match targeting
``x``).  The node and its subtree are replaced by one conditional copy per
disjunct of a *disjoint* DNF of ``¬δ_x`` (the Appendix A chain construction,
generalized in :mod:`repro.updates.disjoint`), each copy keeping the original
descendant conditions.  Targeted nodes are processed bottom-up so nested
targets compose correctly.  The number of copies — hence the output size —
may be exponential; Theorem 3 shows no equivalent prob-tree can avoid this.

There is one rewrite and two ways to run it.  :func:`apply_update_in_place`
rewrites the given prob-tree itself in O(Δ) — matches × subtree size — and
keeps every cache keyed by it warm; it is what ``ProbXMLWarehouse.apply``
runs.  :func:`apply_update_to_probtree` is the functional form — a
:meth:`~repro.core.probtree.ProbTree.copy` plus the same rewrite on the copy
— kept as the slow oracle the differential harness compares against, and
as the path for callers that need the input untouched (the warehouse's
copy path under pinned readers).

The consistency property ``⟦(τ,c)(T)⟧ ∼ (τ,c)(⟦T⟧)`` is exercised by the
test suite against :mod:`repro.updates.pw_updates` on enumerable instances.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.context import ExecutionContext, resolve_context
from repro.core.probtree import ProbTree
from repro.core.transactions import transaction
from repro.formulas.dnf import DNF
from repro.formulas.literals import Condition, Literal
from repro.queries.base import Match
from repro.trees.datatree import DataTree, NodeId
from repro.updates.disjoint import disjoint_negation
from repro.updates.operations import (
    Deletion,
    Insertion,
    ProbabilisticUpdate,
    UpdateOperation,
)
from repro.utils.errors import UpdateError
from repro.utils.faults import activated


def apply_update_in_place(
    probtree: ProbTree,
    update: ProbabilisticUpdate,
    context: Optional[ExecutionContext] = None,
) -> FrozenSet[str]:
    """Apply a probabilistic update to *probtree* itself, in O(Δ).

    The Appendix A rewrite on the live object: the cost follows matches ×
    inserted (or copied) subtree size, not the document size.  Nothing is
    copied, so everything keyed by the prob-tree stays warm — its structural
    index and columnar snapshot patch forward from the tree's mutation
    journal, its probability engine extends over the fresh event
    (:meth:`ExecutionContext.engine_for`), and its cached answers whose
    label fingerprints the update cannot touch are restamped to the new
    version (:meth:`ExecutionContext.retire_answers_in_place`).  Returns
    the labels the rewrite touched.

    All reads — the matches, every per-match answer and presence condition,
    the touched labels — happen before the first mutation, so nested
    deletion targets never read nodes an earlier target's rewrite removed.
    The mutations run inside one :func:`~repro.core.transactions.transaction`:
    on any exception (including an injected fault from the context's
    ``fault_plan``) the prob-tree, its journal, its version counters and its
    index are restored byte-identically and the exception propagates.

    Not safe against concurrent *unpinned* readers of *probtree*;
    ``ProbXMLWarehouse.apply`` runs it only under the snapshot layer's
    write handshake (:func:`repro.core.snapshot.exclusive_write`).
    """
    ctx = resolve_context(context)
    with activated(ctx.fault_plan, ctx.stats):
        before = (probtree.tree.version, probtree.state_version)
        touched = _rewrite(ctx, probtree, probtree, update)
        ctx.retire_answers_in_place(probtree, before, touched)
    ctx.stats.updates_in_place += 1
    return touched


def apply_update_to_probtree(
    probtree: ProbTree,
    update: ProbabilisticUpdate,
    matcher: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> ProbTree:
    """Apply a probabilistic update functionally, returning a new prob-tree.

    The slow oracle of the update axis: :meth:`ProbTree.copy` plus the very
    rewrite :func:`apply_update_in_place` performs, run on the copy (matches
    are found on *probtree*, whose node ids the copy preserves).  The input
    is never mutated, so a failed update has *no externally visible
    effect* on it.  The returned prob-tree owns a fresh
    :class:`~repro.trees.datatree.DataTree`, so context caches keyed by tree
    object never serve pre-update answers for it; match finding goes
    through the context's matcher policy (``matcher=`` overrides its
    default).

    Because the copy preserves surviving node identifiers, labels and
    conditions, the context's cached answers whose patterns cannot touch the
    mutated labels are *migrated* to the returned prob-tree
    (:meth:`ExecutionContext.migrate_answers`), and the per-probtree formula
    caches migrate alongside (:meth:`ExecutionContext.migrate_formulas`):
    the update's distribution only *adds* one fresh event, so every price
    computed against the old prob-tree is still exact on the new one.

    ``ProbXMLWarehouse.apply`` takes this path only while a reader holds a
    pin on the document; ``clean``-style callers that want a new object
    use it directly.  When the context carries a
    :class:`~repro.utils.faults.FaultPlan` (``fault_plan=``), it is
    activated around the whole operation — the crash-consistency harness
    injects failures at every mutator/migration site through this hook.
    """
    ctx = resolve_context(context, matcher=matcher)
    with activated(ctx.fault_plan, ctx.stats):
        result = probtree.copy()
        touched = _rewrite(ctx, probtree, result, update)
        ctx.migrate_answers(probtree, result, touched)
    ctx.stats.updates_copied += 1
    return result


def _rewrite(
    ctx: ExecutionContext,
    source: ProbTree,
    target: ProbTree,
    update: ProbabilisticUpdate,
) -> FrozenSet[str]:
    """Match on *source*, rewrite *target*; returns the touched labels.

    *target* is *source* itself (in place) or a copy of it preserving node
    ids (functional).  Every read goes to *source* and happens before the
    first tree mutation of *target*.
    """
    operation = update.operation
    matches = ctx.matches(operation.query, source.tree)
    if not matches:
        # No world can be selected by Q (local monotonicity), so nothing
        # changes and no event needs to be introduced.
        return frozenset()

    with transaction(target, context=ctx):
        extra_condition = Condition.true()
        if not update.is_certain:
            event = update.event or source.event_factory().fresh()
            if event in source.distribution:
                raise UpdateError(f"event {event!r} already exists in the prob-tree")
            target.add_event(event, update.confidence)
            extra_condition = Condition.positive(event)

        if isinstance(operation, Insertion):
            return _apply_insertion(
                source, target, operation, matches, extra_condition
            )
        if isinstance(operation, Deletion):
            return _apply_deletion(
                source, target, operation, matches, extra_condition
            )
        raise UpdateError(f"unknown update operation {operation!r}")


def apply_updates_to_probtree(
    probtree: ProbTree,
    updates: List[ProbabilisticUpdate],
    matcher: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> ProbTree:
    """Apply a sequence of probabilistic updates in order.

    Atomic with respect to the caller's prob-tree: each step consumes the
    previous step's *result* and the input is never mutated, so when the
    k-th operation raises, every intermediate prob-tree is discarded and the
    caller observes no effect at all — tree, index, journal, caches and
    version counters are exactly as before the batch.
    """
    current = probtree
    for update in updates:
        current = apply_update_to_probtree(current, update, matcher=matcher, context=context)
    return current


# ---------------------------------------------------------------------------
# Insertion
# ---------------------------------------------------------------------------


def _apply_insertion(
    source: ProbTree,
    target: ProbTree,
    operation: Insertion,
    matches: List[Match],
    extra_condition: Condition,
) -> FrozenSet[str]:
    """Apply the insertion; returns the labels the mutation touched."""
    planned = []
    for match in matches:
        node = match.target(operation.at)
        answer_condition = _answer_condition(source, match)
        presence = source.accumulated_condition(node)
        planned.append((node, answer_condition.minus(presence)))
    subtree = operation.subtree
    for node, reduced in planned:
        root_condition = extra_condition.conjoin(reduced)
        mapping = target.tree.add_subtree(node, subtree)
        if not root_condition.is_true():
            target.set_condition(mapping[subtree.root], root_condition)
    return frozenset(subtree.label(node) for node in subtree.nodes())


# ---------------------------------------------------------------------------
# Deletion
# ---------------------------------------------------------------------------


def _apply_deletion(
    source: ProbTree,
    target: ProbTree,
    operation: Deletion,
    matches: List[Match],
    extra_condition: Condition,
) -> FrozenSet[str]:
    """Apply the deletion; returns the labels the mutation touched."""
    tree = source.tree
    by_target: Dict[NodeId, List[Match]] = {}
    for match in matches:
        by_target.setdefault(match.target(operation.at), []).append(match)

    if tree.root in by_target:
        raise UpdateError("a deletion may not target the root of the tree")

    # Read phase: every condition and label the rewrite needs, before the
    # first mutation (in place, an outer target's answers may mention nodes
    # a nested target's rewrite removes).  Bottom-up (deepest first) so that
    # replacing an ancestor copies the already-rewritten descendants.
    planned: List[Tuple[NodeId, Condition, DNF]] = []
    touched: set = set()
    for node in sorted(by_target, key=lambda node: -tree.depth(node)):
        presence = source.accumulated_condition(node)
        disjuncts: List[Condition] = []
        for match in by_target[node]:
            reduced = extra_condition.conjoin(
                _answer_condition(source, match).minus(presence)
            )
            if reduced.is_consistent():
                disjuncts.append(reduced)
        if not disjuncts:
            # The deletion can never fire for this node: nothing changes.
            continue
        # Both the removal and the conditional re-insertions stay within the
        # target's label multiset, so these labels cover the whole rewrite.
        touched.update(
            tree.label(inner) for inner in tree.descendants(node, include_self=True)
        )
        planned.append(
            (node, source.condition(node), disjoint_negation(DNF(disjuncts)))
        )

    for node, node_condition, survival in planned:
        _replace_with_conditional_copies(target, node, node_condition, survival)
    return frozenset(touched)


def _replace_with_conditional_copies(
    result: ProbTree,
    target: NodeId,
    target_condition: Condition,
    survival: DNF,
) -> None:
    """Replace *target*'s subtree by one conditional copy per survival disjunct."""
    parent = result.tree.parent(target)
    if parent is None:  # pragma: no cover - guarded by the caller
        raise UpdateError("cannot replace the root with conditional copies")
    subtree, subtree_conditions = _extract_conditional_subtree(result, target)
    result.remove_subtree(target)
    for disjunct in survival.disjuncts:
        copy_condition = target_condition.conjoin(disjunct)
        if not copy_condition.is_consistent():
            continue
        mapping = result.tree.add_subtree(parent, subtree)
        for original_node, condition in subtree_conditions.items():
            node = mapping[original_node]
            if original_node == subtree.root:
                continue
            if not condition.is_true():
                result.set_condition(node, condition)
        if not copy_condition.is_true():
            result.set_condition(mapping[subtree.root], copy_condition)


def _extract_conditional_subtree(
    probtree: ProbTree, node: NodeId
) -> Tuple[DataTree, Dict[NodeId, Condition]]:
    """Copy the subtree at *node* together with its condition annotations.

    Returns the copied :class:`DataTree` (re-rooted, fresh ids) and the
    conditions keyed by the *copy's* node ids.  The copied root's own
    condition is intentionally excluded — callers decide what the copies'
    root conditions become.
    """
    tree = probtree.tree
    subtree = DataTree(tree.label(node))
    conditions: Dict[NodeId, Condition] = {}
    mapping: Dict[NodeId, NodeId] = {node: subtree.root}
    for current in tree.descendants(node):
        parent = tree.parent(current)
        assert parent is not None
        copied = subtree.add_child(mapping[parent], tree.label(current))
        mapping[current] = copied
        condition = probtree.condition(current)
        if not condition.is_true():
            conditions[copied] = condition
    return subtree, conditions


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _answer_condition(probtree: ProbTree, match: Match) -> Condition:
    """Union of the conditions of the nodes of the answer sub-datatree.

    Built through :meth:`Condition.conjoin_all`, which flattens the whole
    bundle in one pass and skips duplicate conjuncts — answers produced by
    repeated-insert update chains carry the same inserted-root condition
    once per copy, and folding pairwise conjunction over those was
    quadratic in the chain length.
    """
    tree = probtree.tree
    return Condition.conjoin_all(
        probtree.condition(node) for node in match.answer_nodes(tree)
    )


__all__ = [
    "apply_update_in_place",
    "apply_update_to_probtree",
    "apply_updates_to_probtree",
]
