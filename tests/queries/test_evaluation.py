"""Tests for query evaluation on data trees, PW sets and prob-trees."""

import pytest

from repro.core.semantics import possible_worlds
from repro.queries.evaluation import (
    aggregate_by_isomorphism,
    answers_isomorphic,
    boolean_probability,
    evaluate_on_datatree,
    evaluate_on_probtree,
    evaluate_on_pwset,
    top_answers,
)
from repro.queries.path import parse_path
from repro.queries.treepattern import TreePattern, child_chain, root_has_child
from repro.trees.builders import tree
from repro.utils.errors import QueryError


class TestOnDataTrees:
    def test_answers_have_probability_one(self):
        document = tree("A", "B", "B")
        answers = evaluate_on_datatree(root_has_child("A", "B"), document)
        assert len(answers) == 2
        assert all(answer.probability == 1.0 for answer in answers)


class TestOnPWSets:
    def test_definition7(self, figure1):
        worlds = possible_worlds(figure1, normalize=True)
        answers = evaluate_on_pwset(root_has_child("A", "B"), worlds)
        assert len(answers) == 1
        assert answers[0].probability == pytest.approx(0.24)

    def test_multiple_answers_per_world(self, figure1):
        worlds = possible_worlds(figure1, normalize=True)
        answers = evaluate_on_pwset(child_chain(["A", "C", "D"]), worlds)
        assert len(answers) == 1
        assert answers[0].probability == pytest.approx(0.70)

    def test_duplicate_worlds_are_matched_once(self):
        """Unnormalized sets run the query once per distinct world, while the
        per-world answer multiset (count and weights) is preserved."""
        from repro.pw.pwset import PWSet

        query = root_has_child("A", "B")
        evaluations = []
        original_results = type(query).results

        class CountingQuery(type(query)):
            def results(self, data_tree, context=None):
                evaluations.append(data_tree)
                return original_results(self, data_tree, context=context)

        counting = CountingQuery("A")
        counting.add_child(counting.root, "B")

        document = tree("A", "B")
        duplicated = PWSet([(document, 0.25), (document.copy(), 0.25), (tree("A"), 0.5)])
        answers = evaluate_on_pwset(counting, duplicated)
        # 3 worlds, 2 isomorphism classes: the query ran exactly twice ...
        assert len(evaluations) == 2
        # ... but both duplicate worlds keep their own answer and weight.
        assert sorted(a.probability for a in answers) == pytest.approx([0.25, 0.25])
        assert answers_isomorphic(
            answers, evaluate_on_pwset(root_has_child("A", "B"), duplicated.normalize())
        )


class TestOnProbTrees:
    def test_definition8_on_figure1(self, figure1):
        answers = evaluate_on_probtree(root_has_child("A", "B"), figure1)
        assert len(answers) == 1
        assert answers[0].probability == pytest.approx(0.8 * 0.3)

        answers = evaluate_on_probtree(child_chain(["A", "C", "D"]), figure1)
        assert answers[0].probability == pytest.approx(0.7)

    def test_inconsistent_answers_are_dropped(self, figure1):
        # B and C/D cannot coexist (B requires ¬w2, C requires w2).
        pattern = TreePattern("A")
        pattern.add_child(pattern.root, "B")
        pattern.add_child(pattern.root, "C")
        assert evaluate_on_probtree(pattern, figure1) == []
        kept = evaluate_on_probtree(pattern, figure1, keep_zero_probability=True)
        assert len(kept) == 1 and kept[0].probability == 0.0

    def test_non_locally_monotone_query_rejected(self, figure1):
        class Negative(TreePattern):
            locally_monotone = False

        with pytest.raises(QueryError):
            evaluate_on_probtree(Negative("A"), figure1)

    def test_root_only_query_has_probability_one(self, figure1):
        answers = evaluate_on_probtree(TreePattern("A"), figure1)
        assert len(answers) == 1
        assert answers[0].probability == pytest.approx(1.0)


class TestMatcherThreading:
    def test_matchers_agree_on_probtree_answers(self, figure1):
        from repro.queries.evaluation import evaluate_many

        queries = [root_has_child("A", "B"), child_chain(["A", "C", "D"]), parse_path("//D")]
        for query in queries:
            assert answers_isomorphic(
                evaluate_on_probtree(query, figure1),
                evaluate_on_probtree(query, figure1, matcher="naive"),
            )
        batched = evaluate_many(queries, figure1)
        singly = [evaluate_on_probtree(q, figure1, matcher="naive") for q in queries]
        for left, right in zip(batched, singly):
            assert answers_isomorphic(left, right)

    def test_boolean_probability_many_matches_loop(self, figure1):
        from repro.queries.evaluation import boolean_probability_many

        queries = [parse_path("/A/C/D"), parse_path("/A/Z"), parse_path("//B")]
        batched = boolean_probability_many(queries, figure1)
        looped = [boolean_probability(q, figure1, matcher="naive") for q in queries]
        assert batched == pytest.approx(looped)

    def test_unknown_matcher_rejected(self, figure1):
        with pytest.raises(QueryError):
            evaluate_on_probtree(root_has_child("A", "B"), figure1, matcher="bogus")


class TestBooleanProbability:
    def test_matches_world_enumeration(self, figure1):
        query = parse_path("/A/C/D")
        direct = boolean_probability(query, figure1)
        worlds = possible_worlds(figure1, normalize=True)
        by_worlds = sum(p for t, p in worlds if query.selects(t))
        assert direct == pytest.approx(by_worlds)

    def test_union_of_exclusive_answers(self, figure1):
        pattern = TreePattern("A")
        pattern.add_child(pattern.root, "*")
        # some child exists iff w1∧¬w2 or w2 = 0.24 + 0.7
        assert boolean_probability(pattern, figure1) == pytest.approx(0.94)

    def test_no_match_means_zero(self, figure1):
        assert boolean_probability(parse_path("/A/Z"), figure1) == 0.0


class TestAggregation:
    def test_aggregate_and_compare(self, figure1):
        query = root_has_child("A", "B")
        lhs = evaluate_on_probtree(query, figure1)
        rhs = evaluate_on_pwset(query, possible_worlds(figure1))
        assert answers_isomorphic(lhs, rhs)
        assert not answers_isomorphic(lhs, [])
        totals = aggregate_by_isomorphism(lhs)
        assert len(totals) == 1

    def test_top_answers_ranks_and_aggregates(self, figure1):
        pattern = TreePattern("A")
        pattern.add_child(pattern.root, "*")
        ranked = top_answers(evaluate_on_probtree(pattern, figure1), count=2)
        assert len(ranked) == 2
        assert ranked[0].probability >= ranked[1].probability
        assert ranked[0].probability == pytest.approx(0.7)
