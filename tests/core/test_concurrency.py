"""Concurrent interleaving harness: every read matches *some* committed version.

Reader threads hammer a shared warehouse while a writer commits a seeded
update sequence.  After the threads join, an oracle (a fresh context per
version, over the committed prob-tree chain the writer recorded) computes the
answer digest of every committed version; the harness asserts each digest a
reader observed equals the oracle's digest at some committed version — i.e.
snapshot isolation never exposes a torn or intermediate state.  A global-lock
warehouse (``isolation="lock"``) runs the same schedule as the serialized
baseline the MVCC mode must agree with.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.core.context import ExecutionContext
from repro.core.engine import ProbXMLWarehouse
from repro.core.events import ProbabilityDistribution
from repro.core.probtree import ProbTree
from repro.queries.evaluation import evaluate_on_probtree
from repro.queries.treepattern import TreePattern
from repro.trees.datatree import DataTree
from repro.trees.isomorphism import canonical_encoding
from repro.workloads.random_queries import random_update

READERS = 3
UPDATES = 12
JOIN_TIMEOUT = 30.0
SWITCH_INTERVAL = 0.0001


def _base_probtree() -> ProbTree:
    tree = DataTree("A")
    b = tree.add_child(tree.root, "B")
    tree.add_child(b, "C")
    tree.add_child(tree.root, "B")
    return ProbTree(tree, ProbabilityDistribution({"w0": 0.5}), {})


def _query() -> TreePattern:
    pattern = TreePattern("A")
    pattern.add_child(pattern.root, "B")
    return pattern


def _digest(answers) -> frozenset:
    return frozenset(
        (canonical_encoding(answer.tree), round(answer.probability, 9))
        for answer in answers
    )


def _run_schedule(isolation: str, seed: int):
    """Readers vs. one writer; returns (observed digests, committed digests)."""
    warehouse = ProbXMLWarehouse(_base_probtree(), isolation=isolation)
    query = _query()
    rng = random.Random(seed)

    commit_lock = threading.Lock()
    # Each committed version is recorded as a copy taken right after it
    # committed: updates rewrite the live document in place, so the live
    # object itself only ever shows the latest version.
    committed = [warehouse.get().copy()]  # version 0
    done = threading.Event()
    observed = [set() for _ in range(READERS)]
    errors = []

    def reader(slot: int) -> None:
        try:
            while not done.is_set():
                observed[slot].add(_digest(warehouse.query(query)))
            observed[slot].add(_digest(warehouse.query(query)))  # one final read
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            errors.append(("reader", slot, exc))

    def writer() -> None:
        try:
            for _ in range(UPDATES):
                update = random_update(warehouse.get().tree, seed=rng)
                warehouse.apply(update)
                with commit_lock:
                    committed.append(warehouse.get().copy())
        except BaseException as exc:  # noqa: BLE001
            errors.append(("writer", None, exc))
        finally:
            done.set()

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(READERS)
    ]
    threads.append(threading.Thread(target=writer, daemon=True))
    # A short switch interval interleaves the threads finely, so reads land
    # inside in-place writes rather than between them.
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive(), "thread still running: probable hung lock"
    finally:
        sys.setswitchinterval(previous_interval)

    assert errors == []
    assert len(committed) == UPDATES + 1

    # Oracle: a fresh context per committed version — no shared-cache help.
    oracle = {
        _digest(evaluate_on_probtree(query, version, context=ExecutionContext()))
        for version in committed
    }
    seen = set().union(*observed)
    return seen, oracle


@pytest.mark.concurrency
@pytest.mark.differential
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snapshot_reads_match_committed_versions(seed):
    seen, oracle = _run_schedule("snapshot", 31337 + seed)
    torn = seen - oracle
    assert not torn, f"reads observed states never committed: {len(torn)} digests"


@pytest.mark.concurrency
@pytest.mark.differential
def test_lock_reads_match_committed_versions():
    seen, oracle = _run_schedule("lock", 99)
    assert seen <= oracle


@pytest.mark.concurrency
def test_pinned_snapshot_survives_concurrent_commits():
    warehouse = ProbXMLWarehouse(_base_probtree())
    query = _query()
    baseline = _digest(warehouse.query(query))
    snap = warehouse.read_snapshot()
    rng = random.Random(7)

    def writer() -> None:
        for _ in range(6):
            warehouse.apply(random_update(warehouse.get().tree, seed=rng))

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()

    # The pin still answers exactly like the version it captured.
    pinned = _digest(
        evaluate_on_probtree(query, snap.probtree, context=ExecutionContext())
    )
    assert pinned == baseline
    snap.release()


@pytest.mark.concurrency
def test_pinned_reader_keeps_its_version_across_interleaved_write_paths():
    """In-place (unpinned) and copy-path (pinned) writes interleave freely."""
    warehouse = ProbXMLWarehouse(_base_probtree())
    query = _query()
    rng = random.Random(11)
    pinned = []  # (snapshot, digest at pin time, oracle copy at pin time)
    errors = []
    gates = [threading.Event() for _ in range(3)]
    resumed = [threading.Event() for _ in range(3)]

    def reader() -> None:
        try:
            for gate, resume in zip(gates, resumed):
                gate.wait(JOIN_TIMEOUT)
                snap = warehouse.read_snapshot()
                digest = _digest(
                    evaluate_on_probtree(query, snap.probtree, context=ExecutionContext())
                )
                pinned.append((snap, digest, snap.probtree.copy()))
                resume.set()
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)
            for resume in resumed:
                resume.set()

    def write() -> None:
        warehouse.apply(random_update(warehouse.get().tree, seed=rng))

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    for gate, resume in zip(gates, resumed):
        write()  # unpinned, or the previous pin is superseded: in place
        gate.set()
        resume.wait(JOIN_TIMEOUT)
        write()  # a reader holds a pin on this very object: copy path
        write()  # the swapped-in copy is unpinned again: in place
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert errors == []

    stats = warehouse.stats
    assert stats.updates_copied == 3
    assert stats.updates_in_place == 6
    for snap, digest, frozen in pinned:
        view = snap.probtree
        assert _digest(evaluate_on_probtree(query, view, context=ExecutionContext())) == digest
        assert view.tree.same_tree(frozen.tree)
        assert view.conditions() == frozen.conditions()
        snap.release()


@pytest.mark.concurrency
def test_pin_waits_for_an_in_place_write_to_commit():
    """A reader arriving mid-write pins the committed version, never a torn one."""
    from repro.core import snapshot
    from repro.utils.faults import FaultPlan

    plan = FaultPlan().arm("datatree.add_child", at=1, action="delay", delay=0.2)
    warehouse = ProbXMLWarehouse(
        _base_probtree(), context=ExecutionContext(fault_plan=plan)
    )
    probtree = warehouse.get()
    subtree = DataTree("D")
    subtree.add_child(subtree.root, "E")
    writer = threading.Thread(
        target=warehouse.insert, args=(_query(), subtree), kwargs={"confidence": 0.5},
        daemon=True,
    )
    writer.start()
    while id(probtree) not in snapshot._WRITING and writer.is_alive():
        time.sleep(0.001)
    assert id(probtree) in snapshot._WRITING, "the write was not caught in flight"
    with warehouse.read_snapshot() as snap:
        # The pin waited for the write: the write-busy mark is gone and the
        # pinned stamp is the committed post-update one.
        assert id(probtree) not in snapshot._WRITING
        stamp = (probtree.tree.version, probtree.state_version)
        assert snap.stamp == stamp
        assert len(list(snap.probtree.tree.nodes_with_label("D"))) == 2
    writer.join(JOIN_TIMEOUT)
    assert not writer.is_alive()
    assert warehouse.get() is probtree
    assert warehouse.stats.updates_in_place == 1
