"""Columnar-cache invalidation audit: every mutator and version rewind.

PR 9 covered ``copy``/``restrict``/``rollback_undo`` staleness; with columns
now *journal-patched forward* through the accessor there are more ways for a
stale column to masquerade as fresh — a version counter that rewinds under a
patched cache, a clean/threshold pass replacing the whole document, a
restriction sharing node ids with a tree whose cache is warm.  One
regression test per path, each asserting the columnar matcher answers equal
the naive oracle after the transition.
"""

from __future__ import annotations

import pytest

import repro.core.context as context_module
import repro.trees.columnar as columnar_module
from repro.core.engine import ProbXMLWarehouse
from repro.queries.plan import ColumnarPlan, PatternPlan
from repro.queries.treepattern import TreePattern
from repro.trees.builders import tree as build_tree
from repro.trees.columnar import ColumnarTree, columnar_tree
from repro.utils.errors import StaleColumnarTreeError


@pytest.fixture(params=["numpy", "fallback"])
def backend(request, monkeypatch):
    if request.param == "numpy":
        if columnar_module._np is None:
            pytest.skip("numpy not available")
    else:
        monkeypatch.setattr(columnar_module, "_np", None)
    return request.param


def _title_pattern() -> TreePattern:
    pattern = TreePattern("catalog")
    movie = pattern.add_child(pattern.root, "movie")
    pattern.add_child(movie, "title")
    return pattern


def _answers(warehouse: ProbXMLWarehouse, matcher=None):
    return {
        (round(answer.probability, 6), str(answer.tree.to_nested()))
        for answer in warehouse.query(_title_pattern(), matcher=matcher)
    }


@pytest.fixture
def catalog(backend, monkeypatch):
    """A small warehouse whose fast path is columnar wherever numpy is."""
    monkeypatch.setattr(context_module, "AUTO_COLUMNAR_NODES", 0)
    warehouse = ProbXMLWarehouse("catalog")
    warehouse.insert(
        "/catalog", build_tree("movie", build_tree("title", "Solaris")), confidence=0.8
    )
    warehouse.insert(
        "/catalog", build_tree("movie", build_tree("title", "Stalker")), confidence=0.4
    )
    return warehouse


class TestWarehouseReplacements:
    def test_clean_replacement_serves_fresh_column(self, backend, catalog):
        assert _answers(catalog) == _answers(catalog, "naive")
        catalog.delete("/catalog/movie/title", confidence=0.9)
        catalog.clean()
        assert _answers(catalog) == _answers(catalog, "naive")

    def test_prune_below_serves_fresh_column(self, backend, catalog):
        assert _answers(catalog) == _answers(catalog, "naive")
        # Thresholding re-encodes the document wholesale (fresh node ids);
        # a column cached for the old tree must not leak through.
        catalog.prune_below(0.3)
        assert _answers(catalog) == _answers(catalog, "naive")

    def test_update_replacement_serves_fresh_column(self, backend, catalog):
        assert _answers(catalog) == _answers(catalog, "naive")
        catalog.insert(
            "/catalog", build_tree("movie", build_tree("title", "Mirror")), confidence=0.7
        )
        assert _answers(catalog) == _answers(catalog, "naive")
        columnar = catalog.stats.auto_chose_columnar
        assert columnar > 0 if backend == "numpy" else columnar == 0


class TestDerivedTreesStartCold:
    def test_restrict_and_prune_where_start_cold(self, backend):
        source = build_tree(
            "A", build_tree("B", "C"), build_tree("B", "D"), build_tree("E")
        )
        columnar_tree(source)  # warm the source cache
        restricted = source.prune_where(lambda node: source.label(node) == "E")
        assert restricted._columnar_cache is None
        pattern = TreePattern("A")
        pattern.add_child(pattern.root, "B")
        assert (
            ColumnarPlan(pattern, columnar_tree(restricted)).matches()
            == PatternPlan(pattern, restricted).matches()
        )

    def test_copy_starts_cold(self, backend):
        source = build_tree("A", build_tree("B"))
        columnar_tree(source)
        assert source.copy()._columnar_cache is None


class TestVersionRewinds:
    def test_rollback_past_patch_restore_point_drops_cache(self, backend):
        tree = build_tree("A", build_tree("B", "C"), build_tree("B"))
        columnar_tree(tree)
        mark = tree.begin_undo()
        tree.add_child(tree.root, "B")
        patched = columnar_tree(tree)  # patched *inside* the transaction
        assert patched.version == tree.version
        tree.rollback_undo(mark)
        # The journal entries anchoring the patched column were rolled back.
        assert tree._columnar_cache is None
        rebuilt = columnar_tree(tree)
        assert (
            rebuilt.structural_state()
            == ColumnarTree.from_tree(tree).structural_state()
        )
        with pytest.raises(StaleColumnarTreeError):
            patched.require_fresh()

    def test_rollback_keeps_pretransaction_column(self, backend):
        tree = build_tree("A", build_tree("B"))
        column = columnar_tree(tree)
        mark = tree.begin_undo()
        tree.add_child(tree.root, "B")
        tree.rollback_undo(mark)
        # The restored tree is byte-identical to the column's version: the
        # cache survives and is fresh.
        assert tree._columnar_cache is column
        assert columnar_tree(tree) is column
        column.require_fresh()

    def test_rewound_version_collision_cannot_serve_stale_column(self, backend):
        tree = build_tree("A", build_tree("B"))
        columnar_tree(tree)
        mark = tree.begin_undo()
        tree.add_child(tree.root, "X")
        columnar_tree(tree)  # cache now patched to the in-transaction version
        tree.rollback_undo(mark)
        # A *different* mutation brings the version counter back to the same
        # number the stale patched column was stamped with.
        tree.add_child(tree.root, "Y")
        column = columnar_tree(tree)
        labels = {column.label_of(rank) for rank in range(column.node_count)}
        assert "Y" in labels and "X" not in labels
        assert (
            column.structural_state()
            == ColumnarTree.from_tree(tree).structural_state()
        )

    def test_journal_trim_past_limit_forces_rebuild(self, backend):
        tree = build_tree("A")
        column = columnar_tree(tree)
        for index in range(300):  # exceeds JOURNAL_LIMIT: journal base advances
            tree.add_child(tree.root, f"B{index % 7}")
        assert column.patch(tree) is None
        fresh = columnar_tree(tree)
        assert (
            fresh.structural_state()
            == ColumnarTree.from_tree(tree).structural_state()
        )
