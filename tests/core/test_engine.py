"""Tests for the ProbXMLWarehouse facade."""

import pytest

from repro.core.engine import ProbXMLWarehouse
from repro.dtd.dtd import DTD, ChildConstraint
from repro.queries.treepattern import TreePattern
from repro.trees.builders import tree
from repro.trees.isomorphism import isomorphic


@pytest.fixture
def catalog():
    warehouse = ProbXMLWarehouse("catalog")
    warehouse.insert("/catalog", tree("movie", tree("title", "Solaris")), confidence=0.8)
    warehouse.insert("/catalog", tree("movie", tree("title", "Stalker")), confidence=0.6)
    return warehouse


class TestConstruction:
    def test_from_label(self):
        warehouse = ProbXMLWarehouse("root")
        assert warehouse.document.root_label == "root"
        assert warehouse.event_count() == 0

    def test_from_datatree_and_probtree(self, figure1):
        assert ProbXMLWarehouse(figure1.tree.copy()).size() == 4
        assert ProbXMLWarehouse(figure1).event_count() == 2


class TestQueries:
    def test_path_query_returns_probabilistic_answers(self, catalog):
        answers = catalog.query("/catalog/movie/title")
        assert len(answers) == 2
        assert {round(a.probability, 2) for a in answers} == {0.8, 0.6}

    def test_pattern_query(self, catalog):
        pattern = TreePattern("catalog")
        pattern.add_child(pattern.root, "movie")
        assert len(catalog.query(pattern)) == 2

    def test_probability_of_boolean_query(self, catalog):
        # P(at least one movie) = 1 - 0.2*0.4
        assert catalog.probability("/catalog/movie") == pytest.approx(1 - 0.2 * 0.4)

    def test_matcher_modes_agree(self, catalog):
        from repro.utils.errors import QueryError

        assert catalog.matcher is None
        fast = catalog.query("/catalog/movie/title")
        catalog.matcher = "naive"
        naive = catalog.query("/catalog/movie/title")
        assert {round(a.probability, 2) for a in fast} == {
            round(a.probability, 2) for a in naive
        }
        assert catalog.probability("/catalog/movie") == pytest.approx(1 - 0.2 * 0.4)
        with pytest.raises(QueryError):
            catalog.matcher = "bogus"

    def test_query_many_shares_index(self, catalog):
        batched = catalog.query_many(["/catalog/movie", "/catalog/movie/title"])
        assert [len(answers) for answers in batched] == [2, 2]

    def test_top_answers_ranked(self, catalog):
        # Include the title text leaf so the two answers are distinguishable.
        top = catalog.top_answers("/catalog/movie/title/*", count=1)
        assert len(top) == 1
        assert top[0].probability == pytest.approx(0.8)
        labels = {top[0].tree.label(node) for node in top[0].tree.nodes()}
        assert "Solaris" in labels

    def test_isomorphic_answers_aggregate(self, catalog):
        # Without the text leaf both answers are isomorphic sub-datatrees, so
        # ranking aggregates their weights (Definition 7 answers are a
        # multiset, not a distribution).
        top = catalog.top_answers("/catalog/movie/title", count=1)
        assert top[0].probability == pytest.approx(0.8 + 0.6)


class TestUpdates:
    def test_insert_with_certainty_adds_plain_nodes(self):
        warehouse = ProbXMLWarehouse("catalog")
        warehouse.insert("/catalog", tree("movie"), confidence=1.0)
        assert warehouse.event_count() == 0
        assert warehouse.document.node_count() == 2

    def test_uncertain_insert_registers_event(self, catalog):
        assert catalog.event_count() == 2

    def test_delete_reduces_probability(self, catalog):
        catalog.delete("/catalog/movie", confidence=0.5)
        # every movie now also depends on the deletion not firing
        probability = catalog.probability("/catalog/movie")
        assert probability < 1 - 0.2 * 0.4

    def test_apply_prebuilt_update(self, catalog):
        from repro.updates.operations import Insertion, ProbabilisticUpdate

        pattern = TreePattern("catalog")
        update = ProbabilisticUpdate(
            Insertion(pattern, pattern.root, tree("source")), confidence=0.9
        )
        catalog.apply(update)
        assert catalog.probability("/catalog/source") == pytest.approx(0.9)


class TestMaintenance:
    def test_possible_worlds_and_most_probable(self, catalog):
        worlds = catalog.possible_worlds()
        assert worlds.total_probability() == pytest.approx(1.0)
        best, probability = catalog.most_probable_worlds(1)[0]
        assert probability == pytest.approx(0.8 * 0.6)
        assert isomorphic(
            best,
            tree(
                "catalog",
                tree("movie", tree("title", "Solaris")),
                tree("movie", tree("title", "Stalker")),
            ),
        )

    def test_prune_below_keeps_mass_at_one(self, catalog):
        catalog.prune_below(0.3)
        worlds = catalog.possible_worlds()
        assert worlds.total_probability() == pytest.approx(1.0)
        assert all(p >= 0.3 or w.node_count() == 1 for w, p in worlds)

    def test_clean_is_a_noop_on_clean_trees(self, catalog):
        before = catalog.size()
        catalog.clean()
        assert catalog.size() <= before

    def test_dtd_checks(self, catalog):
        movies_only = DTD(
            {
                "catalog": [ChildConstraint.any_number("movie")],
                "movie": [ChildConstraint.optional("title")],
                "title": [ChildConstraint.any_number("Solaris"), ChildConstraint.any_number("Stalker")],
            }
        )
        assert catalog.dtd_satisfiable(movies_only)
        assert catalog.dtd_valid(movies_only)
        at_least_one = DTD({"catalog": [ChildConstraint.at_least_one("movie")]})
        # the catalog root also has no other children allowed -> still fine,
        # but the empty world (both inserts failed) violates it.
        assert catalog.dtd_satisfiable(at_least_one)
        assert not catalog.dtd_valid(at_least_one)
        assert 0.0 < catalog.dtd_probability(at_least_one) < 1.0


class TestEngineSelection:
    def test_default_engine_is_formula(self, catalog):
        assert catalog.engine == "formula"
        assert "formula" in repr(catalog)

    def test_invalid_engine_rejected(self):
        from repro.utils.errors import QueryError

        with pytest.raises(QueryError):
            ProbXMLWarehouse("catalog", engine="guess")
        warehouse = ProbXMLWarehouse("catalog")
        with pytest.raises(QueryError):
            warehouse.engine = "guess"

    def test_engines_agree_on_facade_operations(self, catalog):
        enumerating = ProbXMLWarehouse(catalog.probtree.copy(), engine="enumerate")
        assert catalog.probability("/catalog/movie") == pytest.approx(
            enumerating.probability("/catalog/movie"), abs=1e-12
        )
        dtd = DTD({"catalog": [ChildConstraint.at_least_one("movie")]})
        assert catalog.dtd_probability(dtd) == pytest.approx(
            enumerating.dtd_probability(dtd), abs=1e-12
        )
        for (_, p_formula), (_, p_enumerate) in zip(
            catalog.most_probable_worlds(3), enumerating.most_probable_worlds(3)
        ):
            assert p_formula == pytest.approx(p_enumerate, abs=1e-12)

    def test_query_many_shares_one_cache(self, catalog):
        batched = catalog.query_many(["/catalog/movie", "/catalog/movie/title"])
        assert [len(answers) for answers in batched] == [2, 2]
        singles = [catalog.query("/catalog/movie"), catalog.query("/catalog/movie/title")]
        for batch, single in zip(batched, singles):
            assert [a.probability for a in batch] == pytest.approx(
                [a.probability for a in single]
            )


class TestDefaultFocus:
    def test_query_without_node_count_raises(self, catalog):
        from repro.queries.base import Match, Query
        from repro.utils.errors import QueryError

        class OpaqueQuery(Query):
            """A query exposing matches but no node_count()."""

            def matches(self, tree):
                return [Match.from_dict({0: tree.root})]

        with pytest.raises(QueryError, match="node_count"):
            catalog.insert(OpaqueQuery(), tree("extra"), confidence=0.5)
        with pytest.raises(QueryError, match="at="):
            catalog.delete(OpaqueQuery(), confidence=0.5)

    def test_explicit_at_still_works_without_node_count(self, catalog):
        from repro.queries.base import Match, Query

        class OpaqueQuery(Query):
            def matches(self, tree):
                return [Match.from_dict({0: tree.root})]

        before = catalog.document.node_count()
        catalog.insert(OpaqueQuery(), tree("extra"), at=0, confidence=0.5)
        assert catalog.document.node_count() == before + 1
