"""Tests for the session-scoped execution layer (repro.core.context)."""

import pytest

import repro.trees.columnar as columnar_module
from repro.core.context import (
    AUTO_COLUMNAR_NODES,
    ContextStats,
    ExecutionContext,
    default_context,
    resolve_context,
    set_default_context,
)
from repro.core.engine import ProbXMLWarehouse
from repro.queries.evaluation import (
    boolean_probability,
    evaluate_on_probtree,
)
from repro.queries.path import parse_path
from repro.queries.plan import columnar_matches, indexed_matches
from repro.queries.treepattern import EDGE_DESCENDANT, TreePattern, descendant_anywhere
from repro.trees.builders import tree
from repro.trees.columnar import have_numpy
from repro.utils.errors import QueryError
from repro.workloads.random_probtrees import random_probtree
from repro.workloads.random_queries import random_matching_pattern
from repro.workloads.random_trees import random_datatree


def _catalog() -> ProbXMLWarehouse:
    warehouse = ProbXMLWarehouse("catalog")
    warehouse.insert("/catalog", tree("movie", tree("title", "Solaris")), confidence=0.8)
    warehouse.insert("/catalog", tree("movie", tree("title", "Stalker")), confidence=0.6)
    return warehouse


class TestModeResolution:
    def test_defaults(self):
        context = ExecutionContext()
        assert context.engine == "formula"
        assert context.matcher is None

    def test_invalid_modes_rejected(self):
        with pytest.raises(QueryError):
            ExecutionContext(engine="guess")
        with pytest.raises(QueryError):
            ExecutionContext().resolve_engine("guess")

    @pytest.mark.parametrize("name", ["indexed", "columnar", "auto", "guess"])
    def test_only_the_fast_path_and_naive_are_matchers(self, name):
        """The fast path is chosen by size; no fast matcher is selectable."""
        assert ExecutionContext(matcher="naive").matcher == "naive"
        with pytest.raises(QueryError, match="unknown matcher"):
            ExecutionContext(matcher=name)
        with pytest.raises(QueryError):
            ExecutionContext().resolve_matcher(name)
        with pytest.raises(QueryError):
            ExecutionContext().with_modes(matcher=name)
        with pytest.raises(QueryError):
            descendant_anywhere("A").matches(tree("A"), matcher=name)
        with pytest.raises(QueryError):
            ProbXMLWarehouse("catalog", matcher=name)
        with pytest.raises(QueryError):
            evaluate_on_probtree(
                parse_path("//A"), random_probtree(node_count=5, event_count=2, seed=1),
                matcher=name,
            )

    def test_with_modes_shares_caches(self):
        context = ExecutionContext(engine="formula")
        view = context.with_modes(engine="enumerate", matcher="naive")
        assert view.engine == "enumerate"
        assert view.matcher == "naive"
        assert view.shares_caches_with(context)
        assert view.stats is context.stats
        # No overrides → the very same object (no pointless view allocation).
        assert context.with_modes() is context

    def test_resolve_context_precedence(self):
        session = ExecutionContext(engine="enumerate")
        # 1. string overrides beat the explicit context's defaults …
        resolved = resolve_context(session, engine="formula", matcher="naive")
        assert resolved.engine == "formula"
        assert resolved.matcher == "naive"
        assert resolved.shares_caches_with(session)
        # 2. … the explicit context beats the module default …
        assert resolve_context(session) is session
        # 3. … and with nothing at all, the module default applies.
        assert resolve_context() is default_context()

    def test_per_call_none_keeps_the_context_matcher(self):
        """``matcher=None`` per call means "keep"; only a new context (or the
        warehouse setter) turns a naive session back to the fast path."""
        naive = ExecutionContext(matcher="naive")
        assert resolve_context(naive, matcher=None) is naive
        assert naive.with_modes(matcher=None).matcher == "naive"
        warehouse = _catalog()
        warehouse.matcher = "naive"
        stats = warehouse.stats
        fast_choices = stats.auto_chose_indexed + stats.auto_chose_columnar
        warehouse.query("/catalog/movie", matcher=None)
        assert stats.auto_chose_indexed + stats.auto_chose_columnar == fast_choices
        warehouse.matcher = None
        warehouse.query("/catalog/movie/title")
        assert stats.auto_chose_indexed == fast_choices + 1

    def test_set_default_context_roundtrip(self):
        replacement = ExecutionContext(engine="enumerate")
        previous = set_default_context(replacement)
        try:
            assert default_context() is replacement
            assert resolve_context().engine == "enumerate"
        finally:
            set_default_context(previous)
        with pytest.raises(TypeError):
            set_default_context("not a context")

    def test_per_call_override_beats_warehouse_default(self):
        warehouse = _catalog()
        warehouse.engine = "enumerate"
        warehouse.matcher = "naive"
        expected = 1 - 0.2 * 0.4
        # The warehouse default (enumerate/naive) and every per-call override
        # must agree numerically, and overrides must not disturb the default.
        assert warehouse.probability("/catalog/movie") == pytest.approx(expected)
        assert warehouse.probability(
            "/catalog/movie", engine="formula"
        ) == pytest.approx(expected)
        override = ExecutionContext(engine="formula")
        assert warehouse.probability(
            "/catalog/movie", context=override
        ) == pytest.approx(expected)
        assert warehouse.engine == "enumerate"
        assert warehouse.matcher == "naive"

    def test_warehouse_engine_setter_still_validates(self):
        warehouse = _catalog()
        with pytest.raises(QueryError):
            warehouse.engine = "guess"
        with pytest.raises(QueryError):
            warehouse.matcher = "guess"
        with pytest.raises(QueryError):
            warehouse.matcher = "auto"
        warehouse.matcher = "naive"
        assert warehouse.matcher == "naive"
        warehouse.matcher = None  # back to the fast path
        assert warehouse.matcher is None
        assert warehouse.probability("/catalog/movie") == pytest.approx(1 - 0.2 * 0.4)


def _sized_tree(nodes: int):
    """A *nodes*-node document holding a few rare ``Q`` leaves."""
    doc = random_datatree(nodes - 3, seed=nodes)
    for parent in (doc.root, next(iter(doc.children(doc.root))), doc.root):
        doc.add_child(parent, "Q")
    return doc


@pytest.fixture(params=["numpy", "fallback"])
def backend(request, monkeypatch):
    """Run under the numpy backend (skipped when absent) and the fallback."""
    if request.param == "numpy":
        if not have_numpy():
            pytest.skip("numpy is not installed")
    else:
        monkeypatch.setattr(columnar_module, "_np", None)
    return request.param


class TestFastPathRule:
    """One fast path, chosen by backend and tree size; naive is the oracle."""

    @pytest.mark.parametrize(
        "nodes, choice_with_numpy",
        [(2_000, "indexed"), (7_600, "indexed"), (30_000, "columnar")],
    )
    def test_choice_is_a_function_of_backend_and_size(
        self, backend, nodes, choice_with_numpy
    ):
        doc = _sized_tree(nodes)
        assert doc.node_count() == nodes
        expected = choice_with_numpy if backend == "numpy" else "indexed"
        context = ExecutionContext()
        pattern = descendant_anywhere("Q")
        # Warm caches do not sway it: build both structures first.
        indexed_matches(pattern, doc)
        columnar_matches(pattern, doc)
        assert context.effective_matcher(doc) == expected
        assert context.with_modes(matcher="naive").effective_matcher(doc) == "naive"
        assert context.stats.auto_chose_columnar == (expected == "columnar")
        assert context.stats.auto_chose_indexed == (expected == "indexed")

    def test_answers_identical_on_either_side_of_the_threshold(self, backend):
        doc = _sized_tree(AUTO_COLUMNAR_NODES - 1)
        pattern = TreePattern("*")
        pattern.add_child(pattern.root, "Q", edge=EDGE_DESCENDANT)
        context = ExecutionContext()
        below = pattern.matches(doc, context=context)
        assert below == indexed_matches(pattern, doc) == columnar_matches(pattern, doc)
        doc.add_child(doc.root, "Q")  # crosses AUTO_COLUMNAR_NODES
        above = pattern.matches(doc, context=context)
        columnar = backend == "numpy"
        assert context.stats.auto_chose_indexed == 2 - columnar
        assert context.stats.auto_chose_columnar == columnar
        assert len(above) == len(below) + 1
        assert above == indexed_matches(pattern, doc) == columnar_matches(pattern, doc)
        assert set(above) == set(pattern.matches(doc, matcher="naive"))

    @pytest.mark.parametrize("seed", range(40))
    def test_fast_path_agrees_with_naive(self, seed):
        """The fast-path choice must be observationally invisible."""
        size = 1 + (seed * 11) % 150
        doc = random_datatree(size, seed=seed)
        pattern, _ = random_matching_pattern(
            doc, seed=seed, wildcard_probability=0.3, descendant_probability=0.4
        )
        fast = pattern.matches(doc, context=ExecutionContext())
        naive = pattern.matches(doc, matcher="naive")
        assert fast == indexed_matches(pattern, doc) == columnar_matches(pattern, doc)
        assert set(fast) == set(naive)
        assert len(fast) == len(naive)

    def test_one_decision_per_evaluation_none_on_hits(self):
        probtree = random_probtree(node_count=20, event_count=4, seed=5)
        context = ExecutionContext()
        query = parse_path("//A")
        evaluate_on_probtree(query, probtree, context=context)
        decisions = context.stats.auto_chose_indexed + context.stats.auto_chose_columnar
        assert decisions == 1  # cache-key resolution must not double-count
        evaluate_on_probtree(query, probtree, context=context)
        assert context.stats.answer_cache_hits == 1
        assert (
            context.stats.auto_chose_indexed + context.stats.auto_chose_columnar
            == decisions  # a pure cache hit runs no matching → no decision
        )

    def test_formulas_evaluated_counts_only_pricing_work(self):
        probtree = random_probtree(node_count=30, event_count=5, seed=6)
        context = ExecutionContext()
        engine = context.engine_for(probtree)
        condition = probtree.condition(
            next(n for n in probtree.tree.nodes() if not probtree.condition(n).is_true())
        )
        engine.condition_probability(condition)
        cold = context.stats.formulas_evaluated
        assert cold == 1
        engine.condition_probability(condition)  # memoized: not a new formula
        assert context.stats.formulas_evaluated == cold


class TestAnswerSetCache:
    def test_repeated_query_hits_the_cache(self):
        probtree = random_probtree(node_count=40, event_count=6, seed=7)
        context = ExecutionContext()
        query = parse_path("//A")
        first = evaluate_on_probtree(query, probtree, context=context)
        assert context.stats.answer_cache_misses == 1
        assert context.stats.answer_cache_hits == 0
        second = evaluate_on_probtree(query, probtree, context=context)
        assert context.stats.answer_cache_hits == 1
        assert [a.probability for a in first] == [a.probability for a in second]

    def test_equal_patterns_share_cache_entries(self):
        """The key is the structural fingerprint, not object identity."""
        probtree = random_probtree(node_count=40, event_count=6, seed=8)
        context = ExecutionContext()
        evaluate_on_probtree(parse_path("//B"), probtree, context=context)
        evaluate_on_probtree(parse_path("//B"), probtree, context=context)
        assert context.stats.answer_cache_hits == 1

    def test_matcher_modes_key_separately_but_agree(self):
        probtree = random_probtree(node_count=40, event_count=6, seed=9)
        context = ExecutionContext()
        query = parse_path("//A")
        fast = evaluate_on_probtree(query, probtree, context=context)
        naive = evaluate_on_probtree(query, probtree, matcher="naive", context=context)
        assert context.stats.answer_cache_misses == 2
        assert {round(a.probability, 9) for a in fast} == {
            round(a.probability, 9) for a in naive
        }

    def test_engine_modes_key_separately(self):
        """engine="enumerate" must run the oracle, not hit formula's cache."""
        probtree = random_probtree(node_count=30, event_count=5, seed=16)
        context = ExecutionContext()
        query = parse_path("//A")
        formula = evaluate_on_probtree(query, probtree, engine="formula", context=context)
        enumerated = evaluate_on_probtree(
            query, probtree, engine="enumerate", context=context
        )
        assert context.stats.answer_cache_hits == 0
        assert context.stats.answer_cache_misses == 2
        assert [a.probability for a in formula] == pytest.approx(
            [a.probability for a in enumerated]
        )

    def test_queries_without_fingerprint_bypass_the_cache(self):
        from repro.queries.base import Match, Query

        class OpaqueQuery(Query):
            def matches(self, tree):
                return [Match.from_dict({0: tree.root})]

        probtree = random_probtree(node_count=10, event_count=3, seed=10)
        context = ExecutionContext()
        evaluate_on_probtree(OpaqueQuery(), probtree, context=context)
        evaluate_on_probtree(OpaqueQuery(), probtree, context=context)
        assert context.stats.answer_cache_hits == 0
        assert context.stats.answer_cache_misses == 0

    def test_default_context_returns_fresh_answer_trees(self):
        """Anonymous legacy callers must never receive cache-aliased trees."""
        probtree = random_probtree(node_count=25, event_count=4, seed=15)
        query = parse_path("//A")
        first = evaluate_on_probtree(query, probtree)
        second = evaluate_on_probtree(query, probtree)
        for left, right in zip(first, second):
            assert left.tree is not right.tree
        # Mutating a returned answer cannot leak into later results.
        if first:
            first[0].tree.set_label(first[0].tree.root, "HACKED")
            third = evaluate_on_probtree(query, probtree)
            assert all(a.tree.root_label != "HACKED" for a in third)

    def test_in_place_mutation_invalidates(self):
        """Version bumps must start a fresh per-tree cache table."""
        probtree = random_probtree(node_count=30, event_count=4, seed=11)
        context = ExecutionContext()
        query = descendant_anywhere("A")
        before = boolean_probability(query, probtree, context=context)
        # Graft a certain A right under the root: the query now always holds.
        probtree.add_child(probtree.tree.root, "A")
        after = boolean_probability(query, probtree, context=context)
        assert after == pytest.approx(1.0)
        assert context.stats.nodeset_cache_misses == 2
        del before

    def test_stats_reset(self):
        context = ExecutionContext()
        probtree = random_probtree(node_count=20, event_count=3, seed=12)
        evaluate_on_probtree(parse_path("//A"), probtree, context=context)
        assert context.stats.formulas_evaluated > 0 or context.stats.answer_cache_misses > 0
        context.stats.reset()
        assert all(value == 0 for value in context.stats.as_dict().values())

    def test_stats_counters_observable(self):
        context = ExecutionContext()
        probtree = random_probtree(node_count=40, event_count=6, seed=13)
        evaluate_on_probtree(parse_path("//A/B"), probtree, context=context)
        snapshot = context.stats.as_dict()
        assert snapshot["plans_compiled"] >= 1
        assert snapshot["engines_created"] == 1
        assert snapshot["formulas_evaluated"] >= 0
        assert isinstance(repr(context.stats), str)


class TestUpdateInvalidation:
    """Satellite: query → update → re-query must never serve stale answers."""

    def test_warehouse_query_update_requery(self):
        warehouse = ProbXMLWarehouse("catalog")
        warehouse.insert("/catalog", tree("movie", tree("title", "Solaris")), confidence=0.8)
        first = warehouse.query("/catalog/movie")
        assert len(first) == 1
        # Cache warm: the same query again must hit …
        warehouse.query("/catalog/movie")
        assert warehouse.stats.answer_cache_hits >= 1
        # … and an update in between must invalidate, not replay.
        warehouse.insert("/catalog", tree("movie", tree("title", "Stalker")), confidence=0.6)
        second = warehouse.query("/catalog/movie")
        assert len(second) == 2

    def test_warehouse_delete_invalidates(self):
        warehouse = _catalog()
        assert len(warehouse.query("/catalog/movie")) == 2
        warehouse.delete("/catalog/movie", confidence=1.0)
        assert warehouse.query("/catalog/movie") == []

    def test_clean_and_threshold_replace_trees(self):
        warehouse = _catalog()
        baseline = warehouse.probability("/catalog/movie")
        warehouse.clean()
        assert warehouse.probability("/catalog/movie") == pytest.approx(baseline)
        warehouse.prune_below(0.3)
        worlds = warehouse.possible_worlds()
        assert worlds.total_probability() == pytest.approx(1.0)
        # The post-threshold document answers from its own (fresh) cache entry.
        assert len(warehouse.query("/catalog/movie")) >= 1

    def test_direct_apply_update_gets_fresh_tree(self):
        from repro.updates.operations import Insertion, ProbabilisticUpdate
        from repro.updates.probtree_updates import apply_update_to_probtree

        context = ExecutionContext()
        probtree = ProbXMLWarehouse("catalog").probtree
        pattern = TreePattern("catalog")
        updated = apply_update_to_probtree(
            probtree,
            ProbabilisticUpdate(
                Insertion(pattern, pattern.root, tree("movie")), confidence=0.5
            ),
            context=context,
        )
        assert updated.tree is not probtree.tree
        before = evaluate_on_probtree(
            descendant_anywhere("movie"), probtree, context=context
        )
        after = evaluate_on_probtree(
            descendant_anywhere("movie"), updated, context=context
        )
        assert before == []
        assert len(after) == 1


class TestFormulaPoolSharing:
    """Tentpole: one hash-consed intern table per context state."""

    def test_engines_share_the_context_pool(self):
        context = ExecutionContext()
        left = random_probtree(node_count=15, event_count=3, seed=21)
        right = random_probtree(node_count=15, event_count=3, seed=22)
        assert context.engine_for(left).pool is context.formula_pool
        assert context.engine_for(right).pool is context.formula_pool
        # Mode-override views share the pool too (same cache state).
        assert context.with_modes(engine="enumerate").formula_pool is (
            context.formula_pool
        )

    def test_intern_counters_surface_in_stats(self):
        probtree = random_probtree(node_count=30, event_count=5, seed=23)
        context = ExecutionContext()
        query = parse_path("//A")
        boolean_probability(query, probtree, context=context)
        cold_misses = context.stats.intern_misses
        assert cold_misses > 0
        # Re-pricing the identical question resolves to intern hits, not
        # fresh allocations.
        boolean_probability(query, probtree, context=context)
        assert context.stats.intern_misses == cold_misses
        assert context.stats.intern_hits > 0

    def test_warm_repricing_does_no_new_formula_work(self):
        # Two independently inserted movies give the boolean query a genuine
        # compound disjunction (w1 ∨ w2) that the Shannon memo retains.
        context = ExecutionContext(cache_answers=False)
        warehouse = ProbXMLWarehouse("catalog", context=context)
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.8)
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.6)
        query = parse_path("/catalog/movie")
        probtree = warehouse.probtree
        boolean_probability(query, probtree, context=context)
        cold = context.stats.formulas_evaluated
        boolean_probability(query, probtree, context=context)
        assert context.stats.formulas_evaluated == cold


class TestFormulaMigration:
    """Satellite of the tentpole: prices migrate across update/clean."""

    def test_update_migrates_formula_caches(self):
        context = ExecutionContext()
        warehouse = ProbXMLWarehouse("catalog", context=context)
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.8)
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.6)
        query = parse_path("/catalog/movie")
        baseline = boolean_probability(query, warehouse.probtree, context=context)
        assert context.stats.formulas_migrated == 0
        engines = context.stats.engines_created
        # A label-disjoint insert rewrites the prob-tree in place; its engine
        # extends over the fresh event, so the (w1 ∨ w2) price survives
        # without a new engine.
        warehouse.insert("/catalog", tree("book", "isbn"), confidence=0.9)
        warm = context.stats.formulas_evaluated
        assert boolean_probability(
            query, warehouse.probtree, context=context
        ) == pytest.approx(baseline)
        assert context.stats.formulas_evaluated == warm
        assert context.stats.engines_created == engines

    def test_migrated_prices_agree_with_a_cold_context(self):
        from repro.updates.operations import Deletion, ProbabilisticUpdate
        from repro.updates.probtree_updates import apply_update_to_probtree

        warm_context = ExecutionContext()
        cold_context = ExecutionContext()
        probtree = random_probtree(node_count=25, event_count=4, seed=25)
        query, _focus = random_matching_pattern(probtree.tree, seed=3)
        boolean_probability(query, probtree, context=warm_context)
        update = ProbabilisticUpdate(
            Deletion(query, query.node_count() - 1), confidence=0.5, event="fresh"
        )
        updated_warm = apply_update_to_probtree(probtree, update, context=warm_context)
        updated_cold = apply_update_to_probtree(probtree, update, context=cold_context)
        assert boolean_probability(
            query, updated_warm, context=warm_context
        ) == pytest.approx(
            boolean_probability(query, updated_cold, context=cold_context)
        )

    def test_clean_migrates_formula_caches(self):
        from repro.core.cleaning import clean

        context = ExecutionContext()
        warehouse = ProbXMLWarehouse("catalog", context=context)
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.8)
        probtree = warehouse.probtree
        # evaluate_on_probtree prices each answer's condition bundle through
        # the shared engine, populating the caches clean() must carry over.
        answers = warehouse.query("/catalog/movie")
        baseline = answers[0].probability
        cleaned = clean(probtree, context=context)
        assert context.stats.formulas_migrated > 0
        warm = evaluate_on_probtree(
            parse_path("/catalog/movie"), cleaned, context=context
        )
        assert warm[0].probability == pytest.approx(baseline)

    def test_no_migration_across_distribution_rewrites(self):
        context = ExecutionContext()
        source = random_probtree(node_count=15, event_count=3, seed=26)
        query, _focus = random_matching_pattern(source.tree, seed=4)
        boolean_probability(query, source, context=context)
        # A re-weighted distribution invalidates every price: nothing moves.
        target = source.with_distribution(
            source.distribution.with_events(
                {event: 0.123 for event in source.distribution.events()}
            )
        )
        assert context.migrate_formulas(source, target) == 0
        assert context.stats.formulas_migrated == 0

    def test_stale_engine_prices_never_migrate(self):
        # An engine cut under w=0.4 goes stale when the *source* re-weights
        # w in place; migration must validate against the engine's own
        # distribution, not the source's current one.
        from repro.formulas.literals import Condition

        context = ExecutionContext()
        warehouse = ProbXMLWarehouse("catalog", context=context)
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.4)
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.4)
        probtree = warehouse.probtree
        query = parse_path("/catalog/movie")
        boolean_probability(query, probtree, context=context)  # priced at 0.4
        event = sorted(probtree.distribution.events())[0]
        probtree.add_event(event, 0.9)  # re-weight in place: engine is stale
        target = probtree.copy()
        assert context.migrate_formulas(probtree, target) == 0
        fresh = ExecutionContext()
        assert boolean_probability(query, target, context=context) == pytest.approx(
            boolean_probability(query, target, context=fresh)
        )


class TestFormulaPoolRestart:
    def test_oversized_pool_is_garbage_collected_in_place(self):
        # Dead nodes past the bound are swept — warm caches survive and the
        # pool object (and every engine's reference to it) stays the same.
        from repro.core.context import FORMULA_POOL_NODE_LIMIT

        context = ExecutionContext()
        warehouse = ProbXMLWarehouse("catalog", context=context)
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.8)
        probtree = warehouse.probtree
        query = parse_path("/catalog/movie")
        baseline = boolean_probability(query, probtree, context=context)
        old_pool = context.formula_pool
        assert not context._state.restart_formula_layer_if_oversized()
        # Inflate past the bound with unreachable vars; the next engine_for
        # sweeps them without touching the live formula layer.
        for i in range(FORMULA_POOL_NODE_LIMIT + 1):
            old_pool.var(f"pad{i}")
        engine = context.engine_for(probtree)
        assert context.formula_pool is old_pool
        assert engine.pool is old_pool
        assert old_pool.node_count() <= FORMULA_POOL_NODE_LIMIT
        assert context.stats.pool_gc_runs == 1
        assert context.stats.pool_nodes_swept > FORMULA_POOL_NODE_LIMIT
        assert context.stats.pool_restarts == 0
        # Pricing stays correct after the compaction remapped the memos.
        assert boolean_probability(query, probtree, context=context) == (
            pytest.approx(baseline)
        )

    def test_fully_live_pool_still_restarts_wholesale(self):
        # When GC cannot reclaim enough (every node reachable from a Shannon
        # memo), the atomic restart remains the backstop.
        context = ExecutionContext(formula_pool_node_limit=64)
        warehouse = ProbXMLWarehouse("catalog", context=context)
        for _ in range(16):
            warehouse.insert("/catalog", tree("movie", "title"), confidence=0.8)
        probtree = warehouse.probtree
        query = parse_path("/catalog/movie")
        baseline = boolean_probability(query, probtree, context=context)
        old_pool = context.formula_pool
        engine = context.engine_for(probtree)
        # Every priced conjunction lands in the engine's Shannon memo: the
        # whole pool becomes live roots no sweep can reclaim.
        events = sorted(probtree.distribution.events())
        for i, first in enumerate(events):
            for second in events[i + 1 :]:
                engine.probability(
                    old_pool.conj([old_pool.var(first), old_pool.var(second)])
                )
        assert old_pool.node_count() > 64
        assert context.engine_for(probtree).pool is not old_pool
        assert context.formula_pool is not old_pool
        assert context.stats.pool_restarts >= 1
        assert context.stats.pool_gc_runs >= 1
        # Pricing stays correct after the cold restart.
        assert boolean_probability(query, probtree, context=context) == (
            pytest.approx(baseline)
        )

    def test_sat_only_workloads_enforce_the_bound_too(self):
        # dtd_satisfiable / dtd_valid never call engine_for; the bound must
        # trigger through validity_formula_for instead.
        from repro.core.context import FORMULA_POOL_NODE_LIMIT
        from repro.dtd.dtd import DTD, ChildConstraint
        from repro.dtd.probtree_dtd import dtd_satisfiable, dtd_valid

        context = ExecutionContext()
        warehouse = ProbXMLWarehouse("catalog", context=context)
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.8)
        probtree = warehouse.probtree
        dtd = DTD({"catalog": [ChildConstraint.optional("movie")]})
        assert dtd_satisfiable(probtree, dtd, context=context)
        old_pool = context.formula_pool
        for i in range(FORMULA_POOL_NODE_LIMIT + 1):
            old_pool.var(f"pad{i}")
        assert dtd_satisfiable(probtree, dtd, context=context)
        # The pads were unreachable: swept in place, compiled formula kept.
        assert context.formula_pool is old_pool
        assert old_pool.node_count() <= FORMULA_POOL_NODE_LIMIT
        assert context.stats.pool_gc_runs == 1
        assert context.stats.pool_restarts == 0
        # Decisions after the sweep agree with the enumerate oracle.
        assert dtd_valid(probtree, dtd, context=context) == dtd_valid(
            probtree, dtd, engine="enumerate"
        )

    def test_explicit_gc_reclaims_dropped_documents(self):
        context = ExecutionContext()
        warehouse = ProbXMLWarehouse(context=context)
        warehouse.add_document("a", tree("catalog", "movie"))
        warehouse.insert("/catalog", tree("movie", "title"), confidence=0.5, name="a")
        warehouse.probability("/catalog/movie", name="a")
        grown = context.formula_pool.node_count()
        warehouse.drop("a")
        import gc

        gc.collect()  # release the weak engine registry entry
        swept = context.gc_formula_pool()
        assert swept > 0
        assert context.formula_pool.node_count() < grown
        assert context.stats.pool_nodes_swept == swept


class TestContextStatsType:
    def test_as_dict_covers_all_slots(self):
        stats = ContextStats()
        assert set(stats.as_dict()) == set(ContextStats.__slots__)
