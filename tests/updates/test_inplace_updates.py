"""In-place updates: differential against the functional oracle, crash sweep.

:func:`apply_update_in_place` rewrites the live prob-tree;
:func:`apply_update_to_probtree` is the same rewrite on a copy.  The
differential harness drives both over seeded random insert/delete streams
and asserts the two documents are byte-identical after every update (the
copy preserves node ids, so the serialized XML, the canonical encoding, the
condition map and the distribution must all agree exactly), and that a warm
context kept across the in-place stream answers like a fresh one.

The crash sweep arms a fault at the first and last crossing of every fault
site an in-place update crosses and asserts the rollback leaves the live
document, its journal and its index byte-identical, with warm-context
answers still equal to fresh-context answers.
"""

from __future__ import annotations

import random

import pytest

from repro.core.context import ExecutionContext
from repro.core.engine import ProbXMLWarehouse
from repro.core.events import ProbabilityDistribution
from repro.core.probtree import ProbTree
from repro.core.transactions import transaction
from repro.formulas.literals import Condition
from repro.queries.evaluation import evaluate_on_probtree
from repro.queries.treepattern import EDGE_DESCENDANT, TreePattern
from repro.trees.datatree import DataTree
from repro.trees.index import TreeIndex, tree_index
from repro.trees.isomorphism import canonical_encoding
from repro.updates.operations import Deletion, Insertion, ProbabilisticUpdate
from repro.updates.probtree_updates import (
    apply_update_in_place,
    apply_update_to_probtree,
)
from repro.utils.errors import InjectedFault, UpdateError
from repro.utils.faults import FaultPlan
from repro.workloads.random_queries import random_matching_pattern, random_update
from repro.xmlio.serialize import probtree_to_xml

from tests.conftest import draw_probtree


def _state(probtree: ProbTree) -> tuple:
    return (
        probtree_to_xml(probtree),
        canonical_encoding(probtree.tree),
        probtree.conditions(),
        probtree.distribution,
    )


def _fingerprint(probtree: ProbTree) -> tuple:
    tree = probtree.tree
    structure = tuple(
        (node, tree.label(node), tree.parent(node), tree.children(node))
        for node in sorted(tree.nodes())
    )
    return (
        structure,
        tree.version,
        tuple(tree._journal),
        tree._journal_base,
        tree._next_id,
        probtree.state_version,
        tuple(sorted(probtree._conditions.items())),
        tuple(sorted(probtree.distribution.items())),
    )


def _digest(answers) -> tuple:
    return tuple(
        sorted(
            (canonical_encoding(answer.tree), round(answer.probability, 9))
            for answer in answers
        )
    )


def _assert_equivalent(live: ProbTree, oracle: ProbTree) -> None:
    assert live.tree.same_tree(oracle.tree)
    assert _state(live) == _state(oracle)


def _no_match_update(tree: DataTree, confidence: float) -> ProbabilisticUpdate:
    pattern = TreePattern(tree.root_label)
    missing = pattern.add_child(pattern.root, "no-such-label")
    return ProbabilisticUpdate(Deletion(pattern, missing), confidence=confidence)


def _run_stream(seed: int, steps: int) -> None:
    rng = random.Random(seed)
    live = draw_probtree(rng, max_nodes=12)
    oracle = live.copy()
    warm = ExecutionContext()
    for step in range(steps):
        if step % 5 == 4:
            update = _no_match_update(live.tree, round(rng.uniform(0.3, 1.0), 2))
        else:
            update = random_update(live.tree, seed=rng)
        query, _focus = random_matching_pattern(live.tree, seed=rng)
        # Warm every cache the in-place path must keep honest.
        evaluate_on_probtree(query, live, context=warm)
        apply_update_in_place(live, update, context=warm)
        oracle = apply_update_to_probtree(oracle, update, context=ExecutionContext())
        _assert_equivalent(live, oracle)
        assert _digest(evaluate_on_probtree(query, live, context=warm)) == _digest(
            evaluate_on_probtree(query, oracle, context=ExecutionContext())
        ), f"warm context served stale answers after step {step}"
        if live.node_count() > 60:
            break


@pytest.mark.differential
@pytest.mark.parametrize("seed", range(40))
def test_in_place_matches_functional_oracle(seed):
    _run_stream(4100 + seed, steps=8)


@pytest.mark.differential
@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40, 240))
def test_in_place_matches_functional_oracle_deep(seed):
    _run_stream(4100 + seed, steps=16)


def _nested_document() -> ProbTree:
    tree = DataTree("A")
    outer = tree.add_child(tree.root, "B")
    middle = tree.add_child(outer, "B")
    inner = tree.add_child(middle, "B")
    tree.add_child(inner, "L")
    tree.add_child(middle, "C")
    return ProbTree(
        tree,
        ProbabilityDistribution({"u": 0.5, "v": 0.4}),
        {middle: Condition.of("u"), inner: Condition.of("not v")},
    )


@pytest.mark.parametrize("confidence", [1.0, 0.5])
def test_nested_deletion_targets(confidence):
    # Every B at any depth: three nested targets, rewritten bottom-up; the
    # outer targets' answer conditions mention nodes the inner rewrites
    # remove, so all of them must be read before the first mutation.
    pattern = TreePattern("A")
    target = pattern.add_child(pattern.root, "B", edge=EDGE_DESCENDANT)
    pattern.add_child(target, "*", edge=EDGE_DESCENDANT)
    update = ProbabilisticUpdate(Deletion(pattern, target), confidence=confidence)
    live = _nested_document()
    oracle = apply_update_to_probtree(live, update)
    apply_update_in_place(live, update)
    _assert_equivalent(live, oracle)


def test_no_match_update_changes_nothing():
    live = _nested_document()
    before = _fingerprint(live)
    context = ExecutionContext()
    touched = apply_update_in_place(live, _no_match_update(live.tree, 0.5), context=context)
    assert touched == frozenset()
    assert _fingerprint(live) == before
    assert context.stats.updates_in_place == 1


def test_root_deletion_rolls_back():
    live = _nested_document()
    before = _fingerprint(live)
    context = ExecutionContext()
    with pytest.raises(UpdateError):
        apply_update_in_place(
            live, ProbabilisticUpdate(Deletion(TreePattern("A"), 0), 0.5), context=context
        )
    assert _fingerprint(live) == before
    assert context.stats.rollbacks == 1
    assert context.stats.updates_in_place == 0


def test_in_place_keeps_index_patched_and_engine_warm():
    context = ExecutionContext()
    live = _nested_document()
    query = TreePattern("A")
    query.add_child(query.root, "B")
    evaluate_on_probtree(query, live, context=context)
    index = tree_index(live.tree)
    engines = context.stats.engines_created
    subtree = DataTree("D")
    subtree.add_child(subtree.root, "E")
    apply_update_in_place(
        live, ProbabilisticUpdate(Insertion(query, 1, subtree), 0.7), context=context
    )
    evaluate_on_probtree(query, live, context=context)
    assert tree_index(live.tree) is index  # patched forward, not rebuilt
    assert index.structural_state() == TreeIndex(live.tree).structural_state()
    assert context.stats.engines_created == engines


def test_rolled_back_add_event_gets_a_fresh_engine():
    context = ExecutionContext()
    live = _nested_document()
    engine = context.engine_for(live)
    with pytest.raises(RuntimeError):
        with transaction(live):
            live.add_event("w", 0.5)
            # The engine extends over the (still uncommitted) event...
            assert context.engine_for(live) is engine
            raise RuntimeError("abort")
    # ...so once the event is rolled back it no longer describes the
    # document, and a fresh engine is handed out.
    assert "w" not in live.distribution
    fresh = context.engine_for(live)
    assert fresh is not engine
    assert fresh.distribution == live.distribution


def test_warehouse_counts_the_path_each_update_took():
    warehouse = ProbXMLWarehouse("catalog")
    warehouse.insert("/catalog", DataTree("movie"), confidence=0.8)
    original = warehouse.get()
    with warehouse.read_snapshot():
        warehouse.insert("/catalog", DataTree("book"), confidence=0.6)
    assert warehouse.get() is not original  # pinned: copied and swapped
    warehouse.insert("/catalog", DataTree("book"), confidence=0.5)
    stats = warehouse.stats
    assert (stats.updates_in_place, stats.updates_copied) == (2, 1)


# ---------------------------------------------------------------------------
# Crash consistency of the in-place path
# ---------------------------------------------------------------------------


def _crash_case(seed: int) -> int:
    rng = random.Random(seed)
    live = draw_probtree(rng, max_nodes=rng.randint(3, 12))
    armed_runs = 0
    for _op in range(2):
        query, _focus = random_matching_pattern(live.tree, seed=rng)
        update = random_update(live.tree, seed=rng)

        def warmed(probtree, plan):
            ctx = ExecutionContext(fault_plan=plan)
            evaluate_on_probtree(query, probtree, context=ctx)
            tree_index(probtree.tree)
            return ctx

        # Record the sites on a rehearsal copy: the in-place path commits.
        recorder = FaultPlan()
        apply_update_in_place(live.copy(), update, context=warmed(live.copy(), recorder))
        for site, count in sorted(recorder.hits.items()):
            for at in sorted({1, count}):
                plan = FaultPlan().arm(site, at=at)
                context = warmed(live, plan)
                before = _fingerprint(live)
                index = tree_index(live.tree)
                index_before = index.structural_state()
                with pytest.raises(InjectedFault) as excinfo:
                    apply_update_in_place(live, update, context=context)
                assert excinfo.value.site == site
                assert _fingerprint(live) == before, "rollback left visible changes"
                assert live.tree._index_cache is index
                assert tree_index(live.tree).structural_state() == index_before
                assert index_before == TreeIndex(live.tree).structural_state()
                warm = _digest(evaluate_on_probtree(query, live, context=context))
                fresh = _digest(
                    evaluate_on_probtree(query, live, context=ExecutionContext())
                )
                assert warm == fresh, "warm context serves stale answers after rollback"
                armed_runs += 1
        oracle = apply_update_to_probtree(live, update)
        apply_update_in_place(live, update, context=warmed(live, None))
        _assert_equivalent(live, oracle)
    return armed_runs


@pytest.mark.differential
@pytest.mark.parametrize("seed", range(30))
def test_in_place_crash_consistency(seed):
    assert _crash_case(52000 + seed) > 0


@pytest.mark.differential
@pytest.mark.slow
@pytest.mark.parametrize("seed", range(30, 200))
def test_in_place_crash_consistency_deep(seed):
    assert _crash_case(52000 + seed) > 0
