"""repro — a probabilistic XML (prob-tree) engine.

A from-scratch reproduction of *On the Complexity of Managing Probabilistic
XML Data* (Senellart & Abiteboul, PODS 2007): the probabilistic tree data
model, its possible-world semantics, locally monotone query evaluation,
probabilistic updates, the randomized structural-equivalence test, threshold
pruning, DTD reasoning and the model variants of the paper's Section 5.

Quickstart::

    from repro import ProbXMLWarehouse, tree

    warehouse = ProbXMLWarehouse("catalog")
    warehouse.insert("/catalog", tree("movie", tree("title", "Solaris")),
                     confidence=0.8)
    for answer in warehouse.query("/catalog/movie/title"):
        print(answer.probability, answer.tree.to_nested())

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the reproduced complexity results.
"""

from repro.core.context import (
    ContextStats,
    ExecutionContext,
    default_context,
    resolve_context,
    set_default_context,
)
from repro.core.engine import ProbXMLWarehouse
from repro.core.snapshot import SNAPSHOT_RETENTION, Snapshot
from repro.core.transactions import Transaction, transaction
from repro.core.events import EventFactory, ProbabilityDistribution
from repro.core.probability import ProbabilityEngine, engine_for, formula_pwset
from repro.core.probtree import ProbTree
from repro.core.cleaning import clean
from repro.core.semantics import normalized_worlds, possible_worlds
from repro.dtd.dtd import DTD, ChildConstraint
from repro.dtd.validation import validates
from repro.dtd.probtree_dtd import dtd_satisfiable, dtd_valid, dtd_restriction_probtree
from repro.equivalence.randomized import structurally_equivalent_randomized
from repro.equivalence.semantic import semantically_equivalent
from repro.equivalence.structural import structurally_equivalent_exhaustive
from repro.formulas.literals import Condition, Literal, Valuation
from repro.formulas.dnf import DNF
from repro.formulas.cnf import CNF
from repro.pw.convert import probtree_to_pwset, pwset_to_probtree
from repro.pw.pwset import PWSet
from repro.queries.base import Match, Query
from repro.formulas.sampling import PricingPolicy, SampleEstimate
from repro.queries.evaluation import (
    QueryAnswer,
    boolean_probability,
    boolean_probability_anytime,
    boolean_probability_many,
    evaluate_many,
    evaluate_on_datatree,
    evaluate_on_probtree,
    evaluate_on_pwset,
)
from repro.queries.path import parse_path
from repro.queries.treepattern import TreePattern
from repro.threshold.threshold import threshold_probtree, threshold_worlds
from repro.trees.builders import leaf, tree
from repro.trees.datatree import DataTree
from repro.trees.isomorphism import canonical_encoding, isomorphic
from repro.updates.operations import (
    Deletion,
    Insertion,
    ProbabilisticUpdate,
    apply_to_datatree,
)
from repro.updates.probtree_updates import apply_update_in_place, apply_update_to_probtree
from repro.updates.pw_updates import apply_update_to_pwset
from repro.variants.formula_probtree import FormulaProbTree
from repro.baselines.pw_engine import PossibleWorldsEngine
from repro.ranking.topk_worlds import top_k_worlds
from repro.ranking.topk_answers import top_k_answers
from repro.queries.aggregates import expected_match_count, match_count_distribution
from repro.simplification.approximate import simplify
from repro.simplification.distance import total_variation_distance
from repro.utils.errors import (
    BudgetExceededError,
    InjectedFault,
    SnapshotRetiredError,
    TransactionError,
)
from repro.utils.faults import FaultPlan
from repro.xmlio.parse import datatree_from_xml, probtree_from_xml
from repro.xmlio.serialize import datatree_to_xml, probtree_to_xml

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core model
    "ProbTree",
    "ProbabilityDistribution",
    "EventFactory",
    "ProbXMLWarehouse",
    "ExecutionContext",
    "ContextStats",
    "default_context",
    "set_default_context",
    "resolve_context",
    "ProbabilityEngine",
    "engine_for",
    "formula_pwset",
    "clean",
    "possible_worlds",
    "normalized_worlds",
    # trees
    "DataTree",
    "tree",
    "leaf",
    "isomorphic",
    "canonical_encoding",
    # conditions / formulas
    "Condition",
    "Literal",
    "Valuation",
    "DNF",
    "CNF",
    # possible worlds
    "PWSet",
    "probtree_to_pwset",
    "pwset_to_probtree",
    # queries
    "Query",
    "Match",
    "TreePattern",
    "parse_path",
    "QueryAnswer",
    "evaluate_on_datatree",
    "evaluate_on_pwset",
    "evaluate_on_probtree",
    "evaluate_many",
    "boolean_probability",
    "boolean_probability_anytime",
    "boolean_probability_many",
    # budgeted / anytime pricing
    "PricingPolicy",
    "SampleEstimate",
    "BudgetExceededError",
    # updates
    "Insertion",
    "Deletion",
    "ProbabilisticUpdate",
    "apply_to_datatree",
    "apply_update_in_place",
    "apply_update_to_probtree",
    "apply_update_to_pwset",
    # snapshots, transactions, fault injection
    "Snapshot",
    "SNAPSHOT_RETENTION",
    "Transaction",
    "transaction",
    "TransactionError",
    "SnapshotRetiredError",
    "FaultPlan",
    "InjectedFault",
    # equivalence
    "structurally_equivalent_exhaustive",
    "structurally_equivalent_randomized",
    "semantically_equivalent",
    # threshold / DTD
    "threshold_worlds",
    "threshold_probtree",
    "DTD",
    "ChildConstraint",
    "validates",
    "dtd_satisfiable",
    "dtd_valid",
    "dtd_restriction_probtree",
    # variants and baselines
    "FormulaProbTree",
    "PossibleWorldsEngine",
    # ranked retrieval, aggregates, simplification (the paper's future work)
    "top_k_worlds",
    "top_k_answers",
    "expected_match_count",
    "match_count_distribution",
    "simplify",
    "total_variation_distance",
    # XML I/O
    "datatree_to_xml",
    "probtree_to_xml",
    "datatree_from_xml",
    "probtree_from_xml",
]
