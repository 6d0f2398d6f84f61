"""Tests for XML serialization and parsing."""

import pytest
from hypothesis import given, settings

from repro.core.semantics import possible_worlds
from repro.trees.builders import tree
from repro.trees.isomorphism import isomorphic
from repro.utils.errors import InvalidTreeError
from repro.xmlio.parse import datatree_from_xml, probtree_from_xml
from repro.xmlio.serialize import datatree_to_xml, probtree_to_xml

from tests.conftest import small_datatrees, small_probtrees


class TestDataTreeRoundTrip:
    def test_simple_tree(self):
        document = tree("catalog", tree("movie", "title"), "source")
        text = datatree_to_xml(document)
        assert "<node" in text and 'label="movie"' in text
        rebuilt = datatree_from_xml(text)
        assert isomorphic(document, rebuilt)

    def test_compact_rendering(self):
        document = tree("A", "B")
        compact = datatree_to_xml(document, pretty=False)
        assert "\n" not in compact
        assert isomorphic(datatree_from_xml(compact), document)

    def test_wrong_root_element_rejected(self):
        with pytest.raises(InvalidTreeError):
            datatree_from_xml("<document label='A'/>")

    @given(small_datatrees())
    @settings(max_examples=30)
    def test_round_trip_preserves_isomorphism_class(self, document):
        rebuilt = datatree_from_xml(datatree_to_xml(document))
        assert isomorphic(document, rebuilt)


class TestProbTreeRoundTrip:
    def test_figure1(self, figure1):
        text = probtree_to_xml(figure1)
        assert 'name="w1"' in text and 'condition="w1 and not w2"' in text
        rebuilt = probtree_from_xml(text)
        assert rebuilt.distribution.as_dict() == figure1.distribution.as_dict()
        assert possible_worlds(rebuilt, normalize=True).isomorphic(
            possible_worlds(figure1, normalize=True)
        )

    def test_missing_tree_rejected(self):
        with pytest.raises(InvalidTreeError):
            probtree_from_xml("<probtree><events/></probtree>")

    def test_wrong_root_element_rejected(self):
        with pytest.raises(InvalidTreeError):
            probtree_from_xml("<node label='A'/>")

    @pytest.mark.parametrize(
        "event", ["<event name='w1'/>", "<event name='w1' probability='x'/>"]
    )
    def test_malformed_event_rejected(self, event):
        with pytest.raises(InvalidTreeError):
            probtree_from_xml(
                f"<probtree><events>{event}</events><node label='A'/></probtree>"
            )

    @given(small_probtrees())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_preserves_semantics(self, probtree):
        rebuilt = probtree_from_xml(probtree_to_xml(probtree))
        assert possible_worlds(rebuilt, normalize=True).isomorphic(
            possible_worlds(probtree, normalize=True)
        )
        assert rebuilt.distribution.as_dict() == pytest.approx(
            probtree.distribution.as_dict()
        )


@pytest.mark.parametrize("parse", [datatree_from_xml, probtree_from_xml])
@pytest.mark.parametrize("text", ["<a><b></a>", "", "<node label='A'>", 42, None])
def test_malformed_or_non_text_input_is_typed(parse, text):
    with pytest.raises(InvalidTreeError):
        parse(text)
