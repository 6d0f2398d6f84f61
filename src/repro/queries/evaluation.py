"""Query evaluation on data trees, possible-world sets and prob-trees.

Three evaluation modes, mirroring the paper:

* on a **data tree** — just run the query (Definition 6);
* on a **PW set** — run the query in every world and keep the world's
  probability (Definition 7); answers do not sum to 1.  Worlds are first
  grouped by canonical encoding so each isomorphism class is queried once
  (answers are still emitted per original world);
* on a **prob-tree** — run the query once on the underlying data tree and
  attach to every answer the probability of the conjunction of the conditions
  of its nodes (Definition 8).  Theorem 1 states the last two agree up to
  isomorphism for locally monotone queries; :func:`answers_isomorphic` is the
  comparison used by the test suite to check exactly that.

Every entry point executes under an
:class:`~repro.core.context.ExecutionContext` — pass one with ``context=`` to
share a session's caches (per-probtree Shannon tables, structural indexes and
the answer-set cache) and policy across calls.  The legacy string kwargs
remain as a back-compat shim, each pairing a fast default with a slow
reference kept as a differential-testing oracle:

* ``engine="formula" | "enumerate"`` — how answer probabilities are priced
  (Shannon expansion over event formulas vs. possible-world enumeration, see
  :mod:`repro.core.probability`).  Formula-mode pricing goes through the
  context's hash-consed :class:`~repro.formulas.ir.FormulaPool`: answer
  conditions and boolean-query disjunctions intern to stable node ids, so a
  repeated question over an unchanged document is dictionary probes plus an
  integer-keyed memo hit;
* ``matcher=None | "naive"`` — how embeddings are found.  ``None``
  (default) is the fast path of :mod:`repro.queries.plan`: a bottom-up
  **plan** (candidate seeding, structural semijoins, join pushdown), then
  memoized **embedding enumeration**, run against the tree's shared
  structural **index** (preorder intervals + label posting lists,
  :mod:`repro.trees.index`) or, for large trees with numpy present, its
  flat columnar snapshot (:mod:`repro.trees.columnar`).  ``"naive"`` is the
  direct backtracking matcher.  All return identical match sets, so the
  semantics of Definitions 6–8 are untouched by the choice.

Per-call resolution precedence is uniform: an explicit string override wins
over the ``context=`` argument's defaults, which win over the module default
context (see :func:`repro.core.context.resolve_context`).

The ``*_many`` batch entry points evaluate several queries against one
prob-tree: the probability engine (with its memoized formula cache) is
resolved once and shared across all queries, and so is the tree's cached
structural index or column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.context import ExecutionContext, resolve_context
from repro.core.probability import ProbabilityEngine
from repro.core.probtree import ProbTree
from repro.formulas.compute import dnf_to_expr
from repro.formulas.dnf import DNF
from repro.formulas.sampling import SampleEstimate
from repro.formulas.literals import Condition
from repro.pw.pwset import PWSet
from repro.queries.base import Match, Query
from repro.trees.datatree import DataTree
from repro.trees.isomorphism import canonical_encoding
from repro.utils.errors import QueryError

_TOLERANCE = 1e-9


@dataclass(frozen=True)
class QueryAnswer:
    """One answer sub-datatree together with its probability.

    For evaluation over plain data trees the probability is 1.
    """

    tree: DataTree
    probability: float = 1.0


def evaluate_on_datatree(
    query: Query,
    tree: DataTree,
    matcher: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> List[QueryAnswer]:
    """Evaluate a query on a single data tree (all answers have probability 1)."""
    ctx = resolve_context(context, matcher=matcher)
    return [QueryAnswer(answer, 1.0) for answer in ctx.results(query, tree)]


def evaluate_on_pwset(
    query: Query,
    pwset: PWSet,
    matcher: Optional[str] = None,
    dedup_worlds: bool = True,
    context: Optional[ExecutionContext] = None,
) -> List[QueryAnswer]:
    """Evaluate a query on every possible world (Definition 7).

    With ``dedup_worlds`` (default) worlds are grouped by canonical encoding
    first, so a PW set carrying duplicate (isomorphic) worlds — unnormalized
    sets routinely do — runs the query once per distinct world instead of
    re-matching every duplicate.  Answers are still emitted once per
    *original* world with that world's own probability, so the answer
    multiset (cardinality and per-answer weights) is preserved up to
    isomorphism; note the answers of merged duplicates are sub-datatrees of
    the group's *representative* world.  Callers that resolve answer node
    ids against their own world objects, or feed already-normalized sets
    (where the grouping can only cost one canonical encoding per world
    without merging anything), can pass ``dedup_worlds=False`` for the
    plain world-by-world evaluation.
    """
    ctx = resolve_context(context, matcher=matcher)
    if not dedup_worlds:
        answers: List[QueryAnswer] = []
        for world_tree, probability in pwset:
            for answer in ctx.results(query, world_tree):
                answers.append(QueryAnswer(answer, probability))
        return answers
    grouped: Dict[str, List] = {}
    for world_tree, probability in pwset:
        key = canonical_encoding(world_tree)
        entry = grouped.get(key)
        if entry is None:
            grouped[key] = [world_tree, [probability]]
        else:
            entry[1].append(probability)
    answers = []
    for world_tree, probabilities in grouped.values():
        results = ctx.results(query, world_tree)
        for probability in probabilities:
            for answer in results:
                answers.append(QueryAnswer(answer, probability))
    return answers


def _answers_with_engine(
    query: Query,
    probtree: ProbTree,
    engine: ProbabilityEngine,
    keep_zero_probability: bool,
    ctx: ExecutionContext,
) -> List[QueryAnswer]:
    if not query.locally_monotone:
        raise QueryError(
            "evaluation on prob-trees is only defined for locally monotone queries"
        )
    tree = probtree.tree
    answers: List[QueryAnswer] = []
    for nodes in ctx.result_node_sets(query, tree):
        condition = Condition.conjoin_all(probtree.condition(node) for node in nodes)
        probability = engine.condition_probability(condition)
        if probability <= 0.0 and not keep_zero_probability:
            continue
        answers.append(QueryAnswer(tree.restrict(nodes), probability))
    return answers


def evaluate_on_probtree(
    query: Query,
    probtree: ProbTree,
    keep_zero_probability: bool = False,
    engine: Optional[str] = None,
    matcher: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> List[QueryAnswer]:
    """Evaluate a locally monotone query on a prob-tree (Definition 8).

    The query runs once on the underlying data tree; each answer ``u`` gets
    probability ``eval(⋃_{n ∈ u} γ(n))`` — zero (and dropped by default) when
    the union of conditions is inconsistent.  Answer probabilities go through
    the context's shared :class:`ProbabilityEngine`, so conditions repeated
    across answers (or across queries) are priced once; embeddings are found
    through the context's answer-set cache and matcher policy (see the
    module docstring).

    Raises :class:`QueryError` if the query declares itself non locally
    monotone: Definition 8 is not sound for such queries.

    Repeated evaluations of an equal query against an unchanged prob-tree
    are served from the context's answer cache.  Treat the returned answer
    trees as read-only — the cache shares them verbatim across calls
    (including the populating one); ``answer.tree.copy()`` before mutating.
    """
    ctx = resolve_context(context, engine=engine, matcher=matcher)
    return ctx.cached_answers(
        query,
        probtree,
        keep_zero_probability,
        lambda: _answers_with_engine(
            query, probtree, ctx.engine_for(probtree), keep_zero_probability, ctx
        ),
    )


def evaluate_many(
    queries: Sequence[Query],
    probtree: ProbTree,
    keep_zero_probability: bool = False,
    engine: Optional[str] = None,
    matcher: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> List[List[QueryAnswer]]:
    """Batched Definition 8 evaluation: one answer list per query.

    The probability engine (and its memoized formula cache) is resolved once
    through the context for the whole batch; every per-query plan reuses the
    tree's cached structural index or column.
    """
    ctx = resolve_context(context, engine=engine, matcher=matcher)
    shared = ctx.engine_for(probtree)
    return [
        ctx.cached_answers(
            query,
            probtree,
            keep_zero_probability,
            lambda query=query: _answers_with_engine(
                query, probtree, shared, keep_zero_probability, ctx
            ),
        )
        for query in queries
    ]


def _boolean_dnf(query: Query, probtree: ProbTree, ctx: ExecutionContext) -> DNF:
    """The DNF over answer-condition bundles whose probability is the query's."""
    disjuncts = []
    for nodes in ctx.result_node_sets(query, probtree.tree):
        condition = Condition.conjoin_all(probtree.condition(node) for node in nodes)
        if condition.is_consistent():
            disjuncts.append(condition)
    return DNF(disjuncts)


def boolean_probability(
    query: Query,
    probtree: ProbTree,
    engine: Optional[str] = None,
    matcher: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> float:
    """Probability that the query has at least one answer on the prob-tree.

    The query selects a world iff the condition bundle of at least one answer
    holds, so this is the probability of a DNF over the answers' conditions.
    With ``engine="formula"`` (default) the DNF is evaluated by Shannon
    expansion over only the events it mentions (memoized, shared per
    prob-tree within the context; budgeted when the context's pricing policy
    sets ``max_expansions`` — a typed
    :class:`~repro.utils.errors.BudgetExceededError` then replaces the
    unbounded blowup); ``engine="enumerate"`` enumerates the mentioned
    events' worlds — the exponential reference the paper's Section 5 shows
    is unavoidable in the worst case, kept as a differential oracle;
    ``engine="sample"`` / ``"auto-sample"`` return an anytime Monte-Carlo
    point estimate (see :func:`boolean_probability_anytime` for the full
    interval).
    """
    ctx = resolve_context(context, engine=engine, matcher=matcher)
    disjuncts = _boolean_dnf(query, probtree, ctx)
    if len(disjuncts) == 0:
        return 0.0
    mode = ctx.resolve_engine()
    if mode == "enumerate":
        return disjuncts.probability(probtree.distribution.as_dict())
    return ctx.engine_for(probtree, mode).dnf_probability(disjuncts)


def boolean_probability_anytime(
    query: Query,
    probtree: ProbTree,
    engine: Optional[str] = None,
    matcher: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
    epsilon: Optional[float] = None,
    confidence: Optional[float] = None,
    max_samples: Optional[int] = None,
    deadline: Optional[float] = None,
    seed: Optional[int] = None,
) -> SampleEstimate:
    """Anytime :func:`boolean_probability` with a confidence interval.

    Compiles the answer DNF exactly like :func:`boolean_probability`, then
    estimates its probability by seeded Monte-Carlo, tightening the interval
    until the ``epsilon`` (half-width) / ``max_samples`` / ``deadline``
    budget is hit — per-call knobs override the context policy's.  Small
    DNFs (few mentioned events) and ``engine="enumerate"`` come back exact
    with a zero-width interval.
    """
    ctx = resolve_context(context, engine=engine, matcher=matcher)
    disjuncts = _boolean_dnf(query, probtree, ctx)
    if len(disjuncts) == 0:
        return SampleEstimate(
            estimate=0.0,
            low=0.0,
            high=0.0,
            samples=0,
            confidence=1.0,
            exact=True,
            method="exact",
        )
    shared = ctx.engine_for(probtree, ctx.resolve_engine())
    if shared.mode == "enumerate":
        node: object = dnf_to_expr(disjuncts)
    else:
        node = shared.pool.dnf(disjuncts)
    return shared.probability_anytime(
        node,
        epsilon=epsilon,
        confidence=confidence,
        max_samples=max_samples,
        deadline=deadline,
        seed=seed,
    )


def boolean_probability_many(
    queries: Sequence[Query],
    probtree: ProbTree,
    engine: Optional[str] = None,
    matcher: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> List[float]:
    """Batched :func:`boolean_probability`.

    Like :func:`evaluate_many`, the context's per-probtree formula cache and
    the tree's cached index or column are shared across the whole batch.
    """
    ctx = resolve_context(context, engine=engine, matcher=matcher)
    return [boolean_probability(query, probtree, context=ctx) for query in queries]


def aggregate_by_isomorphism(answers: List[QueryAnswer]) -> Dict[str, float]:
    """Total probability per isomorphism class of answer trees."""
    totals: Dict[str, float] = {}
    for answer in answers:
        key = canonical_encoding(answer.tree)
        totals[key] = totals.get(key, 0.0) + answer.probability
    return totals


def answers_isomorphic(
    left: List[QueryAnswer], right: List[QueryAnswer], tolerance: float = 1e-6
) -> bool:
    """Whether two answer multisets agree up to isomorphism (Theorem 1's ``∼``)."""
    mine = aggregate_by_isomorphism(left)
    theirs = aggregate_by_isomorphism(right)
    for key in set(mine) | set(theirs):
        if not math.isclose(mine.get(key, 0.0), theirs.get(key, 0.0), abs_tol=tolerance):
            return False
    return True


def top_answers(
    answers: List[QueryAnswer], count: int = 1
) -> List[QueryAnswer]:
    """The *count* most probable answers, aggregating isomorphic duplicates.

    Implements the "rank results by probability" usage sketched in the
    paper's conclusion.
    """
    grouped: Dict[str, QueryAnswer] = {}
    totals: Dict[str, float] = {}
    for answer in answers:
        key = canonical_encoding(answer.tree)
        totals[key] = totals.get(key, 0.0) + answer.probability
        grouped.setdefault(key, answer)
    ranked = sorted(totals.items(), key=lambda item: -item[1])
    return [QueryAnswer(grouped[key].tree, total) for key, total in ranked[:count]]


__all__ = [
    "QueryAnswer",
    "evaluate_on_datatree",
    "evaluate_on_pwset",
    "evaluate_on_probtree",
    "evaluate_many",
    "boolean_probability",
    "boolean_probability_anytime",
    "boolean_probability_many",
    "aggregate_by_isomorphism",
    "answers_isomorphic",
    "top_answers",
]
