"""Ranked query answers over prob-trees.

A locally monotone query on a prob-tree yields at most ``|Q(t)|`` answers
(Definition 8), so ranking them exactly is cheap once they are computed;
the value added here is

* aggregation of isomorphic answers (the paper's answers form a multiset),
* an optional *probability floor*, dropping answers that cannot make the
  requested top-k (useful when ``|Q(t)|`` is large but the caller only needs
  a handful of results), and
* answer ranking for the explicit possible-worlds baseline, so both engines
  expose the same ranked interface in the E14 comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.context import ExecutionContext
from repro.core.probtree import ProbTree
from repro.pw.pwset import PWSet
from repro.queries.base import Query
from repro.queries.evaluation import QueryAnswer, evaluate_on_probtree, evaluate_on_pwset
from repro.trees.isomorphism import canonical_encoding


def rank_answers(
    answers: List[QueryAnswer],
    k: Optional[int] = None,
    aggregate_isomorphic: bool = True,
) -> List[QueryAnswer]:
    """Sort answers by decreasing probability, optionally merging duplicates."""
    if aggregate_isomorphic:
        grouped: Dict[str, QueryAnswer] = {}
        totals: Dict[str, float] = {}
        for answer in answers:
            key = canonical_encoding(answer.tree)
            totals[key] = totals.get(key, 0.0) + answer.probability
            grouped.setdefault(key, answer)
        ranked = [
            QueryAnswer(grouped[key].tree, total)
            for key, total in sorted(totals.items(), key=lambda item: -item[1])
        ]
    else:
        ranked = sorted(answers, key=lambda answer: -answer.probability)
    return ranked if k is None else ranked[:k]


def top_k_answers(
    query: Query,
    source: ProbTree | PWSet,
    k: int = 3,
    minimum_probability: float = 0.0,
    aggregate_isomorphic: bool = True,
    matcher: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> List[QueryAnswer]:
    """The *k* most probable answers of *query* on a prob-tree or a PW set.

    Args:
        query: a locally monotone query.
        source: either a prob-tree (Definition 8 evaluation) or an explicit
            possible-world set (Definition 7 evaluation).
        k: how many answers to return.
        minimum_probability: drop answers strictly below this probability
            before ranking (0 keeps everything).
        aggregate_isomorphic: merge isomorphic answer trees before ranking.
        matcher: embedding strategy (``None`` for the fast path or
            ``"naive"``), see :mod:`repro.queries.evaluation`.
        context: the :class:`~repro.core.context.ExecutionContext` to execute
            under (caches, policy); string overrides win over its defaults.
    """
    if k < 1:
        raise ValueError("top_k_answers needs k >= 1")
    if isinstance(source, ProbTree):
        answers = evaluate_on_probtree(query, source, matcher=matcher, context=context)
    else:
        answers = evaluate_on_pwset(query, source, matcher=matcher, context=context)
    if minimum_probability > 0.0:
        answers = [a for a in answers if a.probability >= minimum_probability]
    return rank_answers(answers, k=k, aggregate_isomorphic=aggregate_isomorphic)


__all__ = ["rank_answers", "top_k_answers"]
