"""The exact probability engine over event formulas.

The paper's central message is that a prob-tree answers probabilistic
questions *without* materializing its exponentially many possible worlds.
This module is where that promise is kept operationally:
:class:`ProbabilityEngine` evaluates event formulas compiled from a question
(query answers, DTD validity, world identity) by Shannon expansion over only
the events the formula mentions (see :mod:`repro.formulas.compute`), with a
memoization table shared across every question asked of the same prob-tree.

Four engine modes are exposed throughout the library:

* ``"formula"`` (default) — Shannon expansion / variable elimination with
  independent-component decomposition and memoization.  Optionally budgeted
  (:class:`~repro.formulas.sampling.PricingPolicy.max_expansions`): past the
  budget a typed :class:`~repro.utils.errors.BudgetExceededError` is raised
  instead of running unbounded;
* ``"enumerate"`` — the reference semantics: enumerate every world over the
  mentioned events.  Kept as a differential-testing oracle and for the
  benchmarks that reproduce the paper's exponential baselines;
* ``"sample"`` — seeded anytime Monte-Carlo over the event space
  (:mod:`repro.formulas.sampling`): scalar probabilities become estimates
  whose confidence interval tightens until the policy's
  ``epsilon``/``confidence``/``max_samples``/``deadline`` budget is hit;
  small formulas short-circuit to the budgeted exact path;
* ``"auto-sample"`` — budgeted-exact first, degrading to sampling on
  :class:`~repro.utils.errors.BudgetExceededError` (counted in
  :attr:`~repro.core.context.ContextStats.fallbacks`).

:func:`engine_for` hands out the per-probtree shared engine (a weak registry,
so prob-trees do not leak); :func:`formula_pwset` reconstructs the normalized
possible-world semantics by enumerating *achievable node subsets* — typically
far fewer than ``2^|W|`` worlds — with each subset's probability computed by
the engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.events import ProbabilityDistribution
from repro.core.probtree import ProbTree
from repro.formulas.boolean import BoolExpr, from_condition
from repro.formulas.compute import (
    DEFAULT_ENUMERATION_CUTOFF,
    dnf_to_expr,
    enumeration_probability,
)
from repro.formulas.dnf import DNF
from repro.formulas.ir import FormulaPool
from repro.formulas.literals import Condition, Literal
from repro.formulas.sampling import (
    DEFAULT_AUTO_EXPANSIONS,
    PricingPolicy,
    SampleEstimate,
    _bump,
    sample_probability,
)
from repro.pw.pwset import PWSet
from repro.trees.datatree import NodeId
from repro.utils.errors import BudgetExceededError, QueryError

#: The engine modes understood throughout the library.
ENGINE_MODES = ("formula", "enumerate", "sample", "auto-sample")

#: The modes whose scalar answers are Monte-Carlo estimates.
SAMPLING_MODES = ("sample", "auto-sample")


def require_engine_mode(mode: str) -> str:
    """Validate an ``engine=`` argument, returning it unchanged."""
    if mode not in ENGINE_MODES:
        raise QueryError(
            f"unknown probability engine {mode!r}; expected one of {ENGINE_MODES}"
        )
    return mode


class ProbabilityEngine:
    """Exact probabilities of event formulas under one distribution.

    The engine owns the memoization tables; creating it through
    :func:`engine_for` shares one instance (and therefore one cache) across
    every question asked of the same prob-tree.

    Since the formula-IR refactor the engine prices through a hash-consed
    :class:`~repro.formulas.ir.FormulaPool`: formulas are interned into a
    shared DAG of stable integer ids and the Shannon memo is keyed by node
    id, so a warm repeated question is an O(1) integer probe — no
    structural hashing, no deep equality.  Engines created through an
    :class:`~repro.core.context.ExecutionContext` all share the *context's*
    pool (one intern table per session); a bare engine creates a private
    one.  ``probability`` therefore accepts either a :class:`BoolExpr` (it
    is interned on entry) or an already-interned node id from the engine's
    pool.
    """

    __slots__ = (
        "_distribution",
        "_distribution_map",
        "_mode",
        "_cutoff",
        "_pool",
        "_formula_cache",
        "_condition_cache",
        "_stats",
        "_policy",
    )

    def __init__(
        self,
        distribution: ProbabilityDistribution,
        mode: str = "formula",
        enumeration_cutoff: int = DEFAULT_ENUMERATION_CUTOFF,
        stats=None,
        pool: Optional[FormulaPool] = None,
        policy: Optional[PricingPolicy] = None,
    ) -> None:
        self._distribution = distribution
        self._distribution_map = distribution.as_dict()
        self._mode = require_engine_mode(mode)
        self._cutoff = enumeration_cutoff
        self._pool = pool if pool is not None else FormulaPool(stats=stats)
        self._policy = policy if policy is not None else PricingPolicy()
        # Shannon memo keyed by interned node id, valid for this distribution
        # and its conservative extensions (extend_to() re-targets in place;
        # absorb() carries prices into another engine).
        self._formula_cache: Dict[int, float] = {}
        self._condition_cache: Dict[Condition, float] = {}
        # Optional ContextStats-like sink (duck-typed: only needs a mutable
        # ``formulas_evaluated`` attribute); engines created through an
        # ExecutionContext report every priced formula there.
        self._stats = stats

    # -- inspection --------------------------------------------------------

    @property
    def distribution(self) -> ProbabilityDistribution:
        return self._distribution

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def pool(self) -> FormulaPool:
        """The intern table this engine prices through."""
        return self._pool

    @property
    def policy(self) -> PricingPolicy:
        """The engine's pricing budget/tolerance knobs."""
        return self._policy

    def cache_size(self) -> int:
        """Number of memoized (sub)formulas — exposed for tests and benchmarks."""
        return len(self._formula_cache) + len(self._condition_cache)

    # -- probabilities -----------------------------------------------------

    def probability(self, expr: Union[BoolExpr, int]) -> float:
        """``P(expr)`` under the engine's distribution and mode.

        *expr* is a :class:`BoolExpr` or an interned node id of this
        engine's pool.  ``"formula"`` and ``"enumerate"`` return the exact
        value (``"formula"`` raises
        :class:`~repro.utils.errors.BudgetExceededError` past the policy's
        ``max_expansions``); ``"sample"`` returns the point estimate of
        :meth:`probability_anytime`; ``"auto-sample"`` tries budgeted-exact
        first and falls back to the estimate on a tripped budget.
        """
        if self._mode == "enumerate":
            if isinstance(expr, int):
                expr = self._pool.to_expr(expr)
            if self._stats is not None:
                self._stats.formulas_evaluated += 1
            return enumeration_probability(expr, self._distribution)
        node = expr if isinstance(expr, int) else self._pool.intern(expr)
        if self._mode == "sample":
            return self._sample(node).estimate
        if self._mode == "auto-sample":
            budget = self._policy.max_expansions
            if budget is None:
                budget = DEFAULT_AUTO_EXPANSIONS
            try:
                return self._exact(node, budget)
            except BudgetExceededError:
                _bump(self._stats, "fallbacks")
                return self._sample(node).estimate
        return self._exact(node, self._policy.max_expansions)

    def _exact(self, node: int, max_expansions: Optional[int]) -> float:
        """Budgeted exact pricing of an interned node (Shannon expansion)."""
        # Count only genuine evaluations: a top-level hit in the Shannon
        # memo table is free and must not blur the warm-vs-cold picture.
        if self._stats is not None and node not in self._formula_cache:
            self._stats.formulas_evaluated += 1
        try:
            return self._pool.probability(
                node,
                self._distribution_map,
                cache=self._formula_cache,
                enumeration_cutoff=self._cutoff,
                max_expansions=max_expansions,
            )
        except BudgetExceededError:
            _bump(self._stats, "exact_budget_exceeded")
            raise

    def _sample(self, node: int, **overrides) -> SampleEstimate:
        """Monte-Carlo estimate of an interned node under the engine policy."""
        policy = self._policy.merged(**overrides)
        return sample_probability(
            self._pool, node, self._distribution_map, policy=policy, stats=self._stats
        )

    def probability_anytime(
        self,
        expr: Union[BoolExpr, int],
        epsilon: Optional[float] = None,
        confidence: Optional[float] = None,
        max_samples: Optional[int] = None,
        deadline: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> SampleEstimate:
        """Anytime ``P(expr)`` with a confidence interval.

        Draws seeded worlds and tightens the interval until the effective
        ``epsilon`` (half-width) / ``max_samples`` / ``deadline`` budget is
        hit; per-call knobs override the engine policy's.  Formulas with few
        mentioned events (≤ the policy's ``exact_event_threshold``) are
        priced exactly and come back zero-width with ``exact=True``; in
        ``"enumerate"`` mode the oracle value is returned the same way.
        """
        if self._mode == "enumerate":
            value = self.probability(expr)
            return SampleEstimate(
                estimate=value,
                low=value,
                high=value,
                samples=0,
                confidence=1.0,
                exact=True,
                method="enumerate",
            )
        node = expr if isinstance(expr, int) else self._pool.intern(expr)
        return self._sample(
            node,
            epsilon=epsilon,
            confidence=confidence,
            max_samples=max_samples,
            deadline=deadline,
            seed=seed,
        )

    def condition_probability(self, condition: Condition) -> float:
        """``eval(γ)`` of Definition 8: a product over the literals (0 if inconsistent)."""
        cached = self._condition_cache.get(condition)
        if cached is None:
            # Count only genuine pricing work: memoized lookups are free and
            # must not blur the warm-vs-cold picture the counter exists for.
            if self._stats is not None:
                self._stats.formulas_evaluated += 1
            cached = condition.probability(self._distribution_map)
            self._condition_cache[condition] = cached
        return cached

    def dnf_probability(self, formula: DNF) -> float:
        """Probability of a DNF (e.g. the answer disjunction of a boolean query).

        In formula mode the DNF is interned disjunct-by-disjunct (each
        :class:`Condition` is memoized in the pool), so re-pricing the same
        answer disjunction costs one dictionary probe per disjunct plus one
        memo hit — the per-call ``dnf_to_expr`` tree rebuild is gone.
        """
        if self._mode == "enumerate":
            return self.probability(dnf_to_expr(formula))
        return self.probability(self._pool.dnf(formula))

    def interned_root_ids(self) -> List[int]:
        """The interned node ids this engine's Shannon memo still references.

        These are the GC roots the owning context passes to
        :meth:`~repro.formulas.ir.FormulaPool.collect`: every id-keyed price
        the engine could serve again must keep its node alive.  The
        condition cache holds no ids and is unaffected by pool compaction.
        """
        return list(self._formula_cache)

    def remap_interned(self, remap) -> None:
        """Rekey the Shannon memo after a pool compaction.

        *remap* is the surviving old→new id map returned by
        :meth:`~repro.formulas.ir.FormulaPool.collect`; entries whose node
        was swept (possible only when the caller rooted fewer ids than
        :meth:`interned_root_ids` reports) are dropped rather than left
        dangling.
        """
        self._formula_cache = {
            remap[node]: value
            for node, value in self._formula_cache.items()
            if node in remap
        }

    def extend_to(self, distribution: ProbabilityDistribution) -> bool:
        """Re-target this engine to *distribution*, keeping every memo.

        Succeeds (returns ``True``) exactly when *distribution* is a
        conservative extension of the engine's own — events added, none
        re-weighted or removed — so every memoized price stays exact, as
        no memoized formula can mention the added events.  Returns
        ``False`` and changes nothing otherwise; the caller then needs a
        fresh engine.
        """
        if not distribution.extends(self._distribution):
            return False
        self._distribution = distribution
        self._distribution_map = distribution.as_dict()
        return True

    def absorb(self, other: "ProbabilityEngine") -> int:
        """Copy *other*'s memoized prices into this engine's tables.

        The formula-cache analogue of
        :meth:`~repro.core.context.ExecutionContext.migrate_answers`: when an
        update or a cleaning pass replaces a prob-tree, the caller verifies
        the new distribution is a conservative extension of the old one
        (every old event keeps its probability — then every old price is
        still exact, as old formulas cannot mention the fresh event) and
        carries the Shannon and condition tables across instead of starting
        cold.  Requires both engines to share one pool (ids are only
        meaningful per pool); returns the number of entries copied.
        """
        if other._pool is not self._pool:
            return 0
        moved = 0
        formula_cache = self._formula_cache
        for key, value in other._formula_cache.items():
            if key not in formula_cache:
                formula_cache[key] = value
                moved += 1
        condition_cache = self._condition_cache
        for condition, value in other._condition_cache.items():
            if condition not in condition_cache:
                condition_cache[condition] = value
                moved += 1
        return moved

    def __repr__(self) -> str:
        return (
            f"ProbabilityEngine(mode={self._mode!r}, events={len(self._distribution)}, "
            f"cached={self.cache_size()})"
        )


# ---------------------------------------------------------------------------
# Shared per-probtree engines
# ---------------------------------------------------------------------------


def engine_for(probtree: ProbTree, mode: str = "formula") -> ProbabilityEngine:
    """The shared :class:`ProbabilityEngine` of *probtree* for *mode*.

    Successive calls on the same prob-tree return the same engine — and thus
    share its memoization caches — as long as the distribution only grows
    (an added event is folded into the engine in place; re-weighting or
    removing an event invalidates cached values, so a fresh engine is handed
    out then).

    The registry lives on the module default
    :class:`~repro.core.context.ExecutionContext`, so ad-hoc callers and the
    context-threaded entry points share one set of Shannon tables; sessions
    wanting isolated caches create their own context and use its
    :meth:`~repro.core.context.ExecutionContext.engine_for`.
    """
    # Imported lazily: repro.core.context imports this module at load time.
    from repro.core.context import default_context

    return default_context().engine_for(probtree, require_engine_mode(mode))


# ---------------------------------------------------------------------------
# Prob-tree formulas
# ---------------------------------------------------------------------------


def presence_expr(probtree: ProbTree, node: NodeId) -> BoolExpr:
    """The event formula under which *node* is present in the world's value.

    This is the accumulated condition of Definition 4 as a :class:`BoolExpr`.
    """
    return from_condition(probtree.accumulated_condition(node))


def node_presence_probability(
    probtree: ProbTree, node: NodeId, engine: str = "formula"
) -> float:
    """Probability that *node* survives in a random world."""
    return engine_for(probtree, mode=engine).probability(presence_expr(probtree, node))


# ---------------------------------------------------------------------------
# Normalized possible-world semantics without world enumeration
# ---------------------------------------------------------------------------


def formula_pwset(
    probtree: ProbTree, probability_engine: Optional[ProbabilityEngine] = None
) -> PWSet:
    """The normalized semantics ``⟦T⟧`` via achievable-node-subset enumeration.

    Rather than walking the ``2^|used events|`` worlds, this walks the tree
    and branches only on nodes with a non-trivial condition, enumerating the
    *achievable* surviving node sets ``S``.  The probability of each ``S`` is
    the probability of the event formula

    ``⋀_{n ∈ S} γ(n)  ∧  ⋀_{n ∉ S, parent(n) ∈ S} ¬γ(n)``

    computed by the shared formula engine.  The formulas for distinct ``S``
    are mutually exclusive and exhaustive, so the result is a proper PW set;
    isomorphic values are merged exactly as
    ``possible_worlds(..., restrict_to_used=True, normalize=True)`` does.

    Worlds of probability zero (possible only when some event has
    probability exactly 1) are silently dropped — the enumeration path
    cannot represent them at all (:class:`PWSet` requires positive
    probabilities and ``possible_worlds`` raises), so this path is strictly
    more permissive there.

    ``probability_engine`` lets a caller (an
    :class:`~repro.core.context.ExecutionContext`) supply its own
    formula-mode :class:`ProbabilityEngine` *object* so the pricing shares
    that session's Shannon tables; by default the module-shared engine is
    used.  (Deliberately not named ``engine`` — that kwarg means a mode
    string everywhere else in the library.)
    """
    engine = probability_engine
    if engine is None:
        engine = engine_for(probtree, mode="formula")
    tree = probtree.tree
    conditions = {node: probtree.condition(node) for node in tree.nodes()}
    pairs: List[Tuple[object, float]] = []

    def assignment_extension(
        assignment: Dict[str, bool], condition: Condition
    ) -> Optional[Dict[str, bool]]:
        """Assignment with *condition*'s literals added, or None on conflict."""
        extended = assignment
        for literal in condition.literals:
            wanted = not literal.negated
            current = extended.get(literal.event)
            if current is None:
                if extended is assignment:
                    extended = dict(assignment)
                extended[literal.event] = wanted
            elif current != wanted:
                return None
        return extended

    def entailed(condition: Condition, assignment: Dict[str, bool]) -> bool:
        return all(
            assignment.get(literal.event) == (not literal.negated)
            for literal in condition.literals
        )

    pool = engine.pool

    def emit(
        included: Set[NodeId],
        assignment: Dict[str, bool],
        excluded: List[Condition],
    ) -> None:
        positive = Condition(
            Literal(event, negated=not value) for event, value in assignment.items()
        )
        if excluded:
            expr = pool.conj(
                [
                    pool.condition(positive),
                    *(pool.neg(pool.condition(condition)) for condition in excluded),
                ]
            )
            probability = engine.probability(expr)
        else:
            # The common case: single-literal exclusions were folded into the
            # assignment during the walk, so the world is one plain literal
            # conjunction — a product, no Shannon expansion needed.
            probability = engine.condition_probability(positive)
        if probability > 0.0:
            pairs.append((tree.restrict(included), probability))

    # Iterative DFS with copy-on-branch: unconditional nodes are absorbed in
    # place (O(1) each, no recursion — documents are routinely thousands of
    # nodes deep/wide), and state is only copied at genuine decision points
    # (nodes whose condition the current assignment neither entails nor
    # refutes).
    stack: List[Tuple[List[NodeId], int, Set[NodeId], Dict[str, bool], List[Condition]]] = [
        (list(tree.children(tree.root)), 0, {tree.root}, {}, [])
    ]
    while stack:
        pending, index, included, assignment, excluded = stack.pop()
        while True:
            if index == len(pending):
                emit(included, assignment, excluded)
                break
            node = pending[index]
            index += 1
            condition = conditions[node]
            extended = assignment_extension(assignment, condition)
            can_exclude = not entailed(condition, assignment)
            if extended is not None and can_exclude:
                # Branch: snapshot the exclude side (γ(node) is undetermined
                # here — it neither conflicts with nor is entailed by the
                # assignment, so ¬γ(node) must be recorded) and continue on
                # the include side.  A single-literal ¬γ is itself a literal:
                # folding it into the assignment lets later siblings sharing
                # the event prune immediately instead of spawning
                # zero-probability branches.
                exclude_assignment = dict(assignment)
                exclude_constraints = list(excluded)
                if len(condition) == 1:
                    (literal,) = condition.literals
                    exclude_assignment[literal.event] = literal.negated
                else:
                    exclude_constraints.append(condition)
                stack.append(
                    (
                        list(pending),
                        index,
                        set(included),
                        exclude_assignment,
                        exclude_constraints,
                    )
                )
            if extended is not None:
                included.add(node)
                assignment = extended
                pending.extend(tree.children(node))
            else:
                # γ(node) contradicts the assignment: the node (and its whole
                # subtree) is forced out, with no residual constraint.
                pass
    return PWSet(pairs).normalize()


__all__ = [
    "ENGINE_MODES",
    "SAMPLING_MODES",
    "require_engine_mode",
    "ProbabilityEngine",
    "engine_for",
    "presence_expr",
    "node_presence_probability",
    "formula_pwset",
]
