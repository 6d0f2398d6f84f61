"""Tests for the session-scoped execution layer (repro.core.context)."""

import pytest

from repro.core.context import (
    AUTO_NAIVE_COST,
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
from repro.queries.treepattern import TreePattern, descendant_anywhere
from repro.trees.builders import tree
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
        assert context.matcher == "indexed"

    def test_invalid_modes_rejected(self):
        with pytest.raises(QueryError):
            ExecutionContext(engine="guess")
        with pytest.raises(QueryError):
            ExecutionContext(matcher="guess")
        with pytest.raises(QueryError):
            ExecutionContext().resolve_engine("guess")
        with pytest.raises(QueryError):
            ExecutionContext().resolve_matcher("guess")

    def test_auto_is_a_valid_context_matcher(self):
        assert ExecutionContext(matcher="auto").matcher == "auto"

    def test_with_modes_shares_caches(self):
        context = ExecutionContext(engine="formula", matcher="indexed")
        view = context.with_modes(engine="enumerate", matcher="naive")
        assert view.engine == "enumerate"
        assert view.matcher == "naive"
        assert view.shares_caches_with(context)
        assert view.stats is context.stats
        # No overrides → the very same object (no pointless view allocation).
        assert context.with_modes() is context

    def test_resolve_context_precedence(self):
        session = ExecutionContext(engine="enumerate", matcher="naive")
        # 1. string overrides beat the explicit context's defaults …
        resolved = resolve_context(session, engine="formula", matcher="indexed")
        assert resolved.engine == "formula"
        assert resolved.matcher == "indexed"
        assert resolved.shares_caches_with(session)
        # 2. … the explicit context beats the module default …
        assert resolve_context(session) is session
        # 3. … and with nothing at all, the module default applies.
        assert resolve_context() is default_context()

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
            "/catalog/movie", engine="formula", matcher="indexed"
        ) == pytest.approx(expected)
        override = ExecutionContext(engine="formula", matcher="indexed")
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
        warehouse.matcher = "auto"  # now a legal warehouse-level mode
        assert warehouse.matcher == "auto"
        assert warehouse.probability("/catalog/movie") == pytest.approx(1 - 0.2 * 0.4)


class TestAutoMatcher:
    @pytest.mark.parametrize("seed", range(40))
    def test_auto_agrees_with_both_fixed_matchers(self, seed):
        """The cost-model choice must be observationally invisible."""
        size = 1 + (seed * 11) % 150
        doc = random_datatree(size, seed=seed)
        pattern, _ = random_matching_pattern(
            doc, seed=seed, wildcard_probability=0.3, descendant_probability=0.4
        )
        context = ExecutionContext(matcher="auto")
        auto = pattern.matches(doc, context=context)
        naive = pattern.matches(doc, matcher="naive")
        indexed = pattern.matches(doc, matcher="indexed")
        assert set(auto) == set(naive) == set(indexed)
        assert len(auto) == len(naive) == len(indexed)

    def test_auto_picks_naive_on_tiny_products(self):
        doc = random_datatree(10, seed=1)
        assert doc._index_cache is None
        pattern = descendant_anywhere("A")
        context = ExecutionContext(matcher="auto")
        assert pattern.node_count() * doc.node_count() <= AUTO_NAIVE_COST
        assert context.effective_matcher(pattern, doc) == "naive"
        assert context.stats.auto_chose_naive == 1

    def test_auto_picks_indexed_on_large_products(self):
        doc = random_datatree(600, seed=2)
        pattern = descendant_anywhere("A")
        context = ExecutionContext(matcher="auto")
        assert context.effective_matcher(pattern, doc) == "indexed"
        assert context.stats.auto_chose_indexed == 1

    def test_auto_prefers_a_fresh_cached_index(self):
        doc = random_datatree(10, seed=3)
        context = ExecutionContext(matcher="auto")
        pattern = descendant_anywhere("A")
        context.index_for(doc)  # sunk cost: the index exists and is fresh
        assert context.effective_matcher(pattern, doc) == "indexed"

    def test_auto_treats_a_patchable_stale_index_as_almost_fresh(self):
        # Journal-aware cost model: a stale index whose pending journal fits
        # under PATCH_JOURNAL_LIMIT will be patched, not rebuilt, so even a
        # tiny pattern×tree product keeps the compiled plans.
        from repro.trees.index import PATCH_JOURNAL_LIMIT

        doc = random_datatree(10, seed=3)
        context = ExecutionContext(matcher="auto")
        pattern = descendant_anywhere("A")
        context.index_for(doc)
        doc.add_child(doc.root, "Z")  # stale, one journal entry: patchable
        assert context.effective_matcher(pattern, doc) == "indexed"
        # Push the journal past the patch threshold: the cost model must fall
        # back to assuming a full rebuild, and the tiny product goes naive.
        for _ in range(PATCH_JOURNAL_LIMIT + 1):
            doc.add_child(doc.root, "Z")
        assert context.effective_matcher(pattern, doc) == "naive"

    def test_auto_patchable_index_differential(self):
        # The journal-aware decision must not change results: evaluate the
        # same query under auto (with a stale-but-patchable index) and under
        # both fixed matchers.
        doc = random_datatree(60, seed=11)
        pattern = descendant_anywhere("A")
        context = ExecutionContext(matcher="auto")
        context.index_for(doc)
        doc.add_child(doc.root, "A")  # stale but patchable
        auto = pattern.matches(doc, context=context)
        naive = pattern.matches(doc, matcher="naive")
        indexed = pattern.matches(doc, matcher="indexed")
        assert set(auto) == set(naive) == set(indexed)
        assert len(auto) == len(naive) == len(indexed)

    def test_fixed_override_bypasses_the_cost_model(self):
        doc = random_datatree(10, seed=4)
        context = ExecutionContext(matcher="auto")
        assert context.effective_matcher(descendant_anywhere("A"), doc, "indexed") == "indexed"
        assert context.stats.auto_chose_naive == 0
        assert context.stats.auto_chose_indexed == 0

    def test_auto_counts_one_decision_per_evaluation_none_on_hits(self):
        probtree = random_probtree(node_count=20, event_count=4, seed=5)
        context = ExecutionContext(matcher="auto")
        query = parse_path("//A")
        evaluate_on_probtree(query, probtree, context=context)
        decisions = context.stats.auto_chose_naive + context.stats.auto_chose_indexed
        assert decisions == 1  # cache-key resolution must not double-count
        evaluate_on_probtree(query, probtree, context=context)
        assert context.stats.answer_cache_hits == 1
        assert (
            context.stats.auto_chose_naive + context.stats.auto_chose_indexed
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
        indexed = evaluate_on_probtree(query, probtree, matcher="indexed", context=context)
        naive = evaluate_on_probtree(query, probtree, matcher="naive", context=context)
        assert context.stats.answer_cache_misses == 2
        assert {round(a.probability, 9) for a in indexed} == {
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

    def test_oldest_style_overrides_without_matcher_kwarg_still_work(self):
        """Pre-matcher-era subclasses override results/result_node_sets(tree)."""
        from repro.queries.base import Match, Query

        class AncientQuery(Query):
            def matches(self, tree):
                return [Match.from_dict({0: tree.root})]

            def result_node_sets(self, tree):
                return [frozenset({tree.root})]

            def results(self, tree):
                return [tree.restrict({tree.root})]

        probtree = random_probtree(node_count=8, event_count=2, seed=14)
        context = ExecutionContext()
        answers = evaluate_on_probtree(AncientQuery(), probtree, context=context)
        assert len(answers) == 1
        from repro.queries.evaluation import evaluate_on_datatree

        assert len(evaluate_on_datatree(AncientQuery(), probtree.tree)) == 1

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
