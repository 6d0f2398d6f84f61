"""Queries over data trees, possible-world sets and prob-trees.

* :mod:`repro.queries.base` — the query abstraction (Definition 6), matches
  (the ``µ_Q`` mappings of Appendix A) and the locally-monotone marker;
* :mod:`repro.queries.treepattern` — tree-pattern queries with joins, the
  concrete locally monotone language of [3] / Theorem 1;
* :mod:`repro.queries.path` — a tiny XPath-like path syntax compiled to tree
  patterns (convenience layer for examples and workloads);
* :mod:`repro.queries.plan` — compiled tree-pattern plans over the
  structural index or the columnar snapshot (the fast path; ``"naive"``
  backtracking is the oracle);
* :mod:`repro.queries.evaluation` — evaluation on data trees, on PW sets
  (Definition 7) and on prob-trees (Definition 8 / Theorem 1), with batch
  entry points sharing the index and formula caches across queries.
"""

from repro.queries.base import Match, Query, LocallyMonotoneQuery, is_locally_monotone_on
from repro.queries.treepattern import PatternNode, TreePattern
from repro.queries.path import parse_path
from repro.queries.plan import PatternPlan, indexed_matches
from repro.queries.evaluation import (
    QueryAnswer,
    evaluate_on_datatree,
    evaluate_on_pwset,
    evaluate_on_probtree,
    evaluate_many,
    boolean_probability,
    boolean_probability_many,
    answers_isomorphic,
)

__all__ = [
    "Match",
    "Query",
    "LocallyMonotoneQuery",
    "is_locally_monotone_on",
    "PatternNode",
    "TreePattern",
    "parse_path",
    "PatternPlan",
    "indexed_matches",
    "QueryAnswer",
    "evaluate_on_datatree",
    "evaluate_on_pwset",
    "evaluate_on_probtree",
    "evaluate_many",
    "boolean_probability",
    "boolean_probability_many",
    "answers_isomorphic",
]
