"""Probabilistic updates (Appendix A of the paper).

* :mod:`repro.updates.operations` — elementary insertions/deletions defined
  by a query (Definitions 14–15) and probabilistic updates with a confidence
  (the pair ``(τ, c)``);
* :mod:`repro.updates.pw_updates` — applying probabilistic updates to
  possible-world sets (Definition 16), the semantic reference;
* :mod:`repro.updates.probtree_updates` — applying them directly to
  prob-trees, the paper's algorithm (Appendix A), including the general
  multi-match deletion whose exponential behaviour Theorem 3 proves
  unavoidable;
* :mod:`repro.updates.disjoint` — the disjoint negation of a DNF used by
  deletions (the generalization of Appendix A's sequential construction).
"""

from repro.updates.operations import (
    Insertion,
    Deletion,
    UpdateOperation,
    ProbabilisticUpdate,
    apply_to_datatree,
)
from repro.updates.pw_updates import apply_update_to_pwset
from repro.updates.probtree_updates import apply_update_in_place, apply_update_to_probtree
from repro.updates.disjoint import chain_negation, disjoint_negation

__all__ = [
    "Insertion",
    "Deletion",
    "UpdateOperation",
    "ProbabilisticUpdate",
    "apply_to_datatree",
    "apply_update_to_pwset",
    "apply_update_in_place",
    "apply_update_to_probtree",
    "chain_negation",
    "disjoint_negation",
]
