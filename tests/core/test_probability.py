"""Edge cases of the exact event-formula probability engine."""

import math

import pytest

from repro.core.events import ProbabilityDistribution
from repro.core.probability import (
    ENGINE_MODES,
    ProbabilityEngine,
    engine_for,
    formula_pwset,
    node_presence_probability,
    presence_expr,
    require_engine_mode,
)
from repro.core.probtree import ProbTree
from repro.core.semantics import normalized_worlds
from repro.dtd.dtd import DTD, ChildConstraint
from repro.dtd.probtree_dtd import dtd_satisfaction_probability
from repro.formulas.boolean import (
    FalseExpr,
    Not,
    Or,
    TrueExpr,
    Var,
    conjunction,
    disjunction,
)
from repro.formulas.compute import (
    cofactor,
    independent_components,
    negation,
    shannon_probability,
    simplify,
)
from repro.formulas.dnf import DNF
from repro.formulas.literals import Condition
from repro.queries.evaluation import boolean_probability, evaluate_on_probtree
from repro.queries.path import parse_path
from repro.trees.datatree import DataTree
from repro.utils.errors import QueryError


@pytest.fixture
def shared_event_probtree():
    """Root with two *distant* subtrees both conditioned on the same event."""
    tree = DataTree("R")
    left = tree.add_child(tree.root, "A")
    left_leaf = tree.add_child(left, "C")
    right = tree.add_child(tree.root, "B")
    right_leaf = tree.add_child(right, "C")
    probtree = ProbTree(tree, ProbabilityDistribution({"w": 0.3, "x": 0.6}))
    probtree.set_condition(left, Condition.of("w"))
    probtree.set_condition(left_leaf, Condition.of("x"))
    probtree.set_condition(right, Condition.of("w"))
    probtree.set_condition(right_leaf, Condition.of("not x"))
    return probtree


class TestEngineBasics:
    def test_empty_distribution(self):
        engine = ProbabilityEngine(ProbabilityDistribution.empty())
        assert engine.probability(TrueExpr()) == 1.0
        assert engine.probability(FalseExpr()) == 0.0
        assert engine.condition_probability(Condition.true()) == 1.0

    def test_empty_distribution_probtree(self):
        probtree = ProbTree.certain(DataTree("R"))
        worlds = formula_pwset(probtree)
        assert len(worlds) == 1
        assert worlds.total_probability() == pytest.approx(1.0)
        query = parse_path("/R")
        assert boolean_probability(query, probtree) == pytest.approx(1.0)

    def test_contradiction_is_zero(self):
        engine = ProbabilityEngine(ProbabilityDistribution({"w": 0.4}))
        contradiction = conjunction(Var("w"), Not(Var("w")))
        assert engine.probability(contradiction) == 0.0
        assert engine.condition_probability(Condition.of("w", "not w")) == 0.0

    def test_tautology_is_one(self):
        engine = ProbabilityEngine(ProbabilityDistribution({"w": 0.4, "v": 0.9}))
        assert engine.probability(disjunction(Var("w"), Not(Var("w")))) == 1.0
        tautology = disjunction(
            conjunction(Var("w"), Var("v")),
            negation(conjunction(Var("w"), Var("v"))),
        )
        assert engine.probability(tautology) == pytest.approx(1.0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(QueryError):
            require_engine_mode("magic")
        with pytest.raises(QueryError):
            ProbabilityEngine(ProbabilityDistribution.empty(), mode="magic")
        assert set(ENGINE_MODES) == {"formula", "enumerate", "sample", "auto-sample"}

    def test_dnf_probability_matches_reference(self):
        distribution = ProbabilityDistribution({"a": 0.2, "b": 0.5, "c": 0.7})
        dnf = DNF.of(["a", "b"], ["not b", "c"], ["a", "not c"])
        formula_engine = ProbabilityEngine(distribution, mode="formula")
        enumerate_engine = ProbabilityEngine(distribution, mode="enumerate")
        assert formula_engine.dnf_probability(dnf) == pytest.approx(
            enumerate_engine.dnf_probability(dnf), abs=1e-12
        )
        assert enumerate_engine.dnf_probability(dnf) == pytest.approx(
            dnf.probability(distribution.as_dict()), abs=1e-12
        )


class TestEnumerationFallback:
    def test_cutoff_controls_fallback(self):
        distribution = ProbabilityDistribution(
            {f"w{i}": 0.1 * (i + 1) for i in range(6)}
        )
        # One entangled component over 6 events: with an enormous cutoff the
        # whole formula goes through enumeration; with cutoff 0 every split is
        # done by Shannon expansion.  Results must agree exactly.
        chain = disjunction(
            *(conjunction(Var(f"w{i}"), Var(f"w{i+1}")) for i in range(5))
        )
        lazy = ProbabilityEngine(distribution, enumeration_cutoff=100)
        eager = ProbabilityEngine(distribution, enumeration_cutoff=0)
        reference = ProbabilityEngine(distribution, mode="enumerate")
        assert lazy.probability(chain) == pytest.approx(
            eager.probability(chain), abs=1e-12
        )
        assert eager.probability(chain) == pytest.approx(
            reference.probability(chain), abs=1e-12
        )
        # The eager engine memoized intermediate cofactors; the lazy one only
        # the top-level formula.
        assert eager.cache_size() >= lazy.cache_size()

    def test_shannon_probability_standalone(self):
        distribution = {"a": 0.25, "b": 0.5}
        expr = disjunction(Var("a"), Var("b"))
        assert shannon_probability(expr, distribution) == pytest.approx(
            1 - 0.75 * 0.5
        )


class TestFormulaHelpers:
    def test_cofactor_substitutes_and_simplifies(self):
        expr = conjunction(Var("a"), disjunction(Var("b"), Var("a")))
        assert cofactor(expr, "a", False) == FalseExpr()
        assert cofactor(expr, "a", True) == simplify(disjunction(Var("b"), TrueExpr()))

    def test_negation_folds(self):
        assert negation(TrueExpr()) == FalseExpr()
        assert negation(Not(Var("a"))) == Var("a")

    def test_independent_components_partition(self):
        parts = independent_components(
            [Var("a"), conjunction(Var("b"), Var("c")), Var("c"), Var("d")]
        )
        events = sorted(
            tuple(sorted(set().union(*(op.events() for op in group))))
            for group in parts
        )
        assert events == [("a",), ("b", "c"), ("d",)]


class TestSharedEvents:
    def test_shared_event_couples_distant_subtrees(self, shared_event_probtree):
        probtree = shared_event_probtree
        # Both 'A' and 'B' hang on the same event w: P(query spanning both)
        # is P(w), not P(w)^2.
        from repro.queries.treepattern import TreePattern

        pattern = TreePattern("R")
        pattern.add_child(pattern.root, "A")
        pattern.add_child(pattern.root, "B")
        assert boolean_probability(pattern, probtree, engine="formula") == pytest.approx(
            0.3
        )
        assert boolean_probability(
            pattern, probtree, engine="enumerate"
        ) == pytest.approx(0.3)

    def test_presence_probability_uses_accumulated_condition(
        self, shared_event_probtree
    ):
        probtree = shared_event_probtree
        tree = probtree.tree
        (left,) = [n for n in tree.nodes() if tree.label(n) == "A"]
        (left_leaf,) = [n for n in tree.children(left)]
        assert str(presence_expr(probtree, left)) == "w"
        assert node_presence_probability(probtree, left) == pytest.approx(0.3)
        assert node_presence_probability(probtree, left_leaf) == pytest.approx(
            0.3 * 0.6
        )

    def test_formula_pwset_respects_coupling(self, shared_event_probtree):
        worlds = formula_pwset(shared_event_probtree)
        assert worlds.total_probability() == pytest.approx(1.0)
        # When w is false both subtrees disappear together: the bare root has
        # probability 1 - P(w).
        assert worlds.probability_of(DataTree("R")) == pytest.approx(0.7)

    def test_dtd_satisfaction_with_shared_events(self, shared_event_probtree):
        dtd = DTD(
            {
                "R": [ChildConstraint.optional("A"), ChildConstraint.optional("B")],
                "A": [ChildConstraint.exactly("C", 1)],
                "B": [ChildConstraint.any_number("C")],
            }
        )
        fast = dtd_satisfaction_probability(shared_event_probtree, dtd, engine="formula")
        slow = dtd_satisfaction_probability(
            shared_event_probtree, dtd, engine="enumerate"
        )
        assert fast == pytest.approx(slow, abs=1e-12)
        # A is present iff w; its C child must then be present, i.e. x.
        # P(valid) = P(not w) + P(w)P(x) = 0.7 + 0.3*0.6
        assert fast == pytest.approx(0.7 + 0.3 * 0.6)


class TestEngineSharing:
    def test_engine_for_returns_shared_instance(self, figure1):
        first = engine_for(figure1)
        second = engine_for(figure1)
        assert first is second
        assert engine_for(figure1, mode="enumerate") is not first

    def test_engine_for_invalidated_by_distribution_change(self, figure1):
        before = engine_for(figure1)
        # A conservative extension (a fresh event) keeps the engine and its
        # memo; re-weighting an existing event invalidates it.
        figure1.add_event("fresh", 0.5)
        extended = engine_for(figure1)
        assert extended is before
        assert "fresh" in extended.distribution.events()
        figure1.add_event("fresh", 0.25)
        after = engine_for(figure1)
        assert after is not before
        assert after.distribution["fresh"] == 0.25

    def test_cache_shared_across_queries(self, figure1):
        engine = engine_for(figure1)
        evaluate_on_probtree(parse_path("//*"), figure1)
        populated = engine.cache_size()
        assert populated > 0
        assert engine_for(figure1).cache_size() == populated


class TestNormalizedWorldsDispatcher:
    def test_engines_agree(self, figure1):
        assert normalized_worlds(figure1, engine="formula").isomorphic(
            normalized_worlds(figure1, engine="enumerate")
        )

    def test_bad_engine_rejected(self, figure1):
        with pytest.raises(QueryError):
            normalized_worlds(figure1, engine="worlds")


class TestContradictoryConditions:
    def test_contradictory_node_never_appears(self):
        tree = DataTree("R")
        child = tree.add_child(tree.root, "A")
        probtree = ProbTree(tree, ProbabilityDistribution({"w": 0.5}))
        probtree.set_condition(child, Condition.of("w", "not w"))
        worlds = formula_pwset(probtree)
        assert len(worlds) == 1
        assert worlds.probability_of(DataTree("R")) == pytest.approx(1.0)
        assert boolean_probability(parse_path("/R/A"), probtree) == 0.0
        answers = evaluate_on_probtree(parse_path("/R/A"), probtree)
        assert answers == []


class TestLargeDocuments:
    def test_formula_pwset_handles_thousands_of_nodes(self):
        # Regression: the achievable-subset walk must not recurse per node —
        # a 3000-node document with one conditional node has just two worlds.
        tree = DataTree("R")
        for _ in range(3000):
            tree.add_child(tree.root, "A")
        conditional = tree.add_child(tree.root, "B")
        probtree = ProbTree(tree, ProbabilityDistribution({"w": 0.5}))
        probtree.set_condition(conditional, Condition.of("w"))
        worlds = formula_pwset(probtree)
        assert len(worlds) == 2
        assert sorted(worlds.probabilities()) == pytest.approx([0.5, 0.5])

    def test_deep_chain_document(self):
        tree = DataTree("R")
        node = tree.root
        for _ in range(2000):
            node = tree.add_child(node, "A")
        conditional = tree.add_child(node, "B")
        probtree = ProbTree(tree, ProbabilityDistribution({"w": 0.25}))
        probtree.set_condition(conditional, Condition.of("w"))
        worlds = formula_pwset(probtree)
        assert len(worlds) == 2
        assert sorted(worlds.probabilities()) == pytest.approx([0.25, 0.75])


class TestCertainEvents:
    def test_probability_one_event_handled_by_formula_engine(self):
        # An event with pi = 1 gives some worlds probability 0; the
        # enumeration path cannot even represent them (PWSet requires
        # positive probabilities) while the formula path drops them.
        tree = DataTree("R")
        child = tree.add_child(tree.root, "A")
        probtree = ProbTree(tree, ProbabilityDistribution({"e": 1.0}))
        probtree.set_condition(child, Condition.of("not e"))
        worlds = formula_pwset(probtree)
        assert len(worlds) == 1
        assert worlds.probability_of(DataTree("R")) == pytest.approx(1.0)
        assert boolean_probability(parse_path("/R/A"), probtree) == pytest.approx(0.0)


class TestDeepFormulas:
    @staticmethod
    def _star(n, probability):
        tree = DataTree("R")
        events = {}
        for i in range(n):
            tree.add_child(tree.root, "A")
            events[f"w{i}"] = probability
        probtree = ProbTree(tree, ProbabilityDistribution(events))
        for i, child in enumerate(tree.children(tree.root)):
            probtree.set_condition(child, Condition.of(f"w{i}"))
        return probtree

    def test_counting_window_dtd(self):
        # The general interval DP against an independent binomial reference.
        from repro.dtd.dtd import DTD as _DTD, ChildConstraint as _CC
        from repro.dtd.probtree_dtd import (
            dtd_satisfaction_probability,
            dtd_satisfiable,
            dtd_valid,
        )

        n = 60
        probtree = self._star(n, 0.5)
        dtd = _DTD({"R": [_CC("A", 25, 35)]})
        p = dtd_satisfaction_probability(probtree, dtd)
        row = [1.0]
        for _ in range(n):
            nxt = [0.0] * (len(row) + 1)
            for k, v in enumerate(row):
                nxt[k] += v * 0.5
                nxt[k + 1] += v * 0.5
            row = nxt
        assert p == pytest.approx(sum(row[25:36]), abs=1e-9)
        assert dtd_satisfiable(probtree, dtd)
        assert not dtd_valid(probtree, dtd)

    @pytest.mark.slow
    def test_counting_dtd_past_recursion_limit(self):
        # Regression: the DP construction used to recurse once per guard and
        # crash past ~1000 children; ">= 2" over 1100 exercises the general
        # DP with a narrow band, so it stays fast.
        from repro.dtd.dtd import DTD as _DTD, ChildConstraint as _CC
        from repro.dtd.probtree_dtd import dtd_satisfaction_probability

        n, q = 1100, 0.002
        probtree = self._star(n, q)
        p = dtd_satisfaction_probability(probtree, _DTD({"R": [_CC("A", 2, None)]}))
        none_survive = (1 - q) ** n
        one_survives = n * q * (1 - q) ** (n - 1)
        assert p == pytest.approx(1 - none_survive - one_survives, abs=1e-9)

    def test_long_chain_formula(self):
        # Regression: chain formulas recurse once per link; 500 links is past
        # the default recursion limit region the old code crashed in.
        from repro.formulas.compute import shannon_probability as _sp
        from repro.formulas.boolean import Var as _V

        links = 500
        chain = disjunction(
            *(conjunction(_V(f"w{i}"), _V(f"w{i+1}")) for i in range(links))
        )
        probabilities = {f"w{i}": 0.1 for i in range(links + 1)}
        p = _sp(chain, probabilities)
        assert 0.0 < p < 1.0
