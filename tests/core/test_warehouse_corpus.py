"""Tests for the multi-document warehouse corpus API."""

import pytest

from repro.core.context import ExecutionContext
from repro.core.engine import DEFAULT_DOCUMENT, ProbXMLWarehouse
from repro.core.probtree import ProbTree
from repro.trees.builders import tree
from repro.trees.datatree import DataTree
from repro.utils.errors import ProbXMLError
from repro.xmlio.serialize import datatree_to_xml, probtree_to_xml


def _movie_doc(title: str, confidence: float) -> ProbXMLWarehouse:
    warehouse = ProbXMLWarehouse("catalog")
    warehouse.insert("/catalog", tree("movie", tree("title", title)), confidence=confidence)
    return warehouse


class TestCorpusManagement:
    def test_single_document_construction_is_implicitly_default(self):
        warehouse = ProbXMLWarehouse("catalog")
        assert warehouse.names() == (DEFAULT_DOCUMENT,)
        assert len(warehouse) == 1
        assert DEFAULT_DOCUMENT in warehouse
        assert warehouse.document.root_label == "catalog"

    def test_empty_construction_then_add(self):
        warehouse = ProbXMLWarehouse()
        assert warehouse.names() == ()
        warehouse.add_document("a", "alpha")
        warehouse.add_document("b", DataTree("beta"))
        assert warehouse.names() == ("a", "b")
        assert warehouse.get("a").tree.root_label == "alpha"
        assert warehouse.get("b").tree.root_label == "beta"

    def test_add_existing_name_raises(self):
        warehouse = ProbXMLWarehouse("catalog")
        with pytest.raises(ProbXMLError, match="already exists"):
            warehouse.add_document(DEFAULT_DOCUMENT, "other")

    def test_duplicate_error_names_both_remedies(self):
        warehouse = ProbXMLWarehouse()
        warehouse.add_document("a", "alpha")
        with pytest.raises(ProbXMLError, match="replace=True"):
            warehouse.add_document("a", "other")
        # The failed add must not have clobbered the original.
        assert warehouse.get("a").tree.root_label == "alpha"

    def test_replace_overwrites_deliberately(self):
        warehouse = ProbXMLWarehouse()
        warehouse.add_document("a", "alpha")
        stored = warehouse.add_document("a", "omega", replace=True)
        assert stored.tree.root_label == "omega"
        assert warehouse.get("a").tree.root_label == "omega"
        assert warehouse.names() == ("a",)

    def test_replace_on_a_fresh_name_is_a_plain_add(self):
        warehouse = ProbXMLWarehouse()
        warehouse.add_document("a", "alpha", replace=True)
        assert warehouse.names() == ("a",)

    def test_drop(self):
        warehouse = ProbXMLWarehouse()
        warehouse.add_document("a", "alpha")
        dropped = warehouse.drop("a")
        assert isinstance(dropped, ProbTree)
        assert warehouse.names() == ()
        with pytest.raises(ProbXMLError, match="no document"):
            warehouse.drop("a")

    def test_name_resolution(self):
        warehouse = ProbXMLWarehouse()
        with pytest.raises(ProbXMLError, match="no documents"):
            warehouse.probtree
        warehouse.add_document("only", "alpha")
        # A single document resolves without a name even if not "default".
        assert warehouse.probtree.tree.root_label == "alpha"
        warehouse.add_document("second", "beta")
        with pytest.raises(ProbXMLError, match="pass name="):
            warehouse.probtree
        assert warehouse.get("second").tree.root_label == "beta"
        with pytest.raises(ProbXMLError, match="no document named"):
            warehouse.get("missing")

    def test_repr_mentions_corpus_size(self):
        warehouse = ProbXMLWarehouse()
        warehouse.add_document("a", "alpha")
        warehouse.add_document("b", "beta")
        assert "documents=2" in repr(warehouse)


class TestXMLStringConstruction:
    """Satellite: markup-looking strings are parsed, not turned into labels."""

    def test_node_markup_is_parsed(self):
        doc = tree("catalog", tree("movie", tree("title", "Solaris")))
        warehouse = ProbXMLWarehouse(datatree_to_xml(doc))
        assert warehouse.document.root_label == "catalog"
        assert warehouse.document.node_count() == 4

    def test_probtree_markup_is_parsed_with_events(self):
        source = _movie_doc("Solaris", 0.8).probtree
        warehouse = ProbXMLWarehouse(probtree_to_xml(source))
        assert warehouse.event_count() == 1
        assert warehouse.probability("/catalog/movie") == pytest.approx(0.8)

    def test_markup_with_leading_whitespace_is_parsed(self):
        doc = tree("catalog", tree("movie"))
        warehouse = ProbXMLWarehouse("\n  " + datatree_to_xml(doc))
        assert warehouse.document.node_count() == 2

    def test_plain_label_still_means_one_node_document(self):
        warehouse = ProbXMLWarehouse("catalog")
        assert warehouse.document.node_count() == 1
        assert warehouse.document.root_label == "catalog"

    def test_malformed_markup_raises_library_error(self):
        # A '<'-leading non-XML string raises within the library's own error
        # hierarchy (never a bare ElementTree.ParseError), with a hint.
        with pytest.raises(ProbXMLError, match="not well-formed XML"):
            ProbXMLWarehouse("<not really xml")
        with pytest.raises(ProbXMLError, match="plain label"):
            ProbXMLWarehouse("<3 movies")


class TestCorpusQueries:
    def _corpus(self) -> ProbXMLWarehouse:
        warehouse = ProbXMLWarehouse()
        warehouse.add_document("left", _movie_doc("Solaris", 0.8).probtree)
        warehouse.add_document("right", _movie_doc("Stalker", 0.6).probtree)
        return warehouse

    def test_query_all_matches_per_document_loops(self):
        warehouse = self._corpus()
        fanned = warehouse.query_all("/catalog/movie/title")
        assert set(fanned) == {"left", "right"}
        for name in warehouse.names():
            looped = warehouse.query("/catalog/movie/title", name=name)
            assert [a.probability for a in fanned[name]] == pytest.approx(
                [a.probability for a in looped]
            )

    def test_probability_all(self):
        warehouse = self._corpus()
        assert warehouse.probability_all("/catalog/movie") == pytest.approx(
            {"left": 0.8, "right": 0.6}
        )

    def test_query_all_shares_one_context(self):
        warehouse = self._corpus()
        warehouse.query_all("/catalog/movie")
        misses = warehouse.stats.answer_cache_misses
        assert misses == 2  # one per document
        warehouse.query_all("/catalog/movie")
        assert warehouse.stats.answer_cache_hits == 2
        assert warehouse.stats.answer_cache_misses == misses

    def test_per_name_updates_are_isolated(self):
        warehouse = self._corpus()
        warehouse.insert(
            "/catalog", tree("movie", tree("title", "Mirror")), confidence=0.9, name="left"
        )
        assert len(warehouse.query("/catalog/movie", name="left")) == 2
        assert len(warehouse.query("/catalog/movie", name="right")) == 1

    def test_maintenance_targets_one_document(self):
        warehouse = self._corpus()
        warehouse.prune_below(0.5, name="right")
        assert warehouse.possible_worlds(name="right").total_probability() == pytest.approx(1.0)
        assert warehouse.probability("/catalog/movie", name="left") == pytest.approx(0.8)

    def test_query_many_still_batches_per_document(self):
        warehouse = self._corpus()
        batched = warehouse.query_many(
            ["/catalog/movie", "/catalog/movie/title"], name="left"
        )
        assert [len(answers) for answers in batched] == [1, 1]

    def test_shared_context_construction(self):
        session = ExecutionContext(engine="enumerate")
        warehouse = ProbXMLWarehouse("catalog", context=session)
        assert warehouse.context.shares_caches_with(session)
        assert warehouse.engine == "enumerate"
        assert warehouse.matcher is None
        # Legacy string kwargs override the supplied context's modes but
        # keep its caches.
        other = ProbXMLWarehouse("catalog", context=session, matcher="naive")
        assert other.matcher == "naive"
        assert other.context.shares_caches_with(session)

    def test_context_setter_type_checked(self):
        warehouse = ProbXMLWarehouse("catalog")
        with pytest.raises(TypeError):
            warehouse.context = "nope"
        warehouse.context = ExecutionContext(engine="enumerate")
        assert warehouse.engine == "enumerate"
