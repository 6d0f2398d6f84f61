"""Copy-on-write snapshot pinning for prob-trees (MVCC reads).

A :class:`Snapshot` pins one immutable ``(tree.version, state_version)`` view
of a :class:`~repro.core.probtree.ProbTree`.  Three mechanisms keep the view
stable while writers proceed:

* **The pin/writer handshake.**  ``ProbXMLWarehouse.apply`` rewrites the
  live document in place, but only inside :func:`exclusive_write`: under
  the module lock it checks the document's live pins.  Unpinned, the
  document is marked write-busy and rewritten in place; a :func:`pin` that
  arrives meanwhile waits for that one O(Δ) write to commit or roll back,
  so no reader ever holds a half-rewritten document.  Pinned, the writer
  is told to take the copy path instead.
* **New-object updates** (the copy path:
  :func:`~repro.updates.probtree_updates.apply_update_to_probtree`, and
  ``clean``/``prune_below``) never mutate the old prob-tree at all — a pin
  simply keeps the superseded object alive, which costs nothing until the
  last pin is released.  Readers never wait on this path; the O(n) copy
  is paid only while reads are in flight.
* **Direct in-place mutations** (``set_label``/``add_child``/
  ``set_condition``/...) call the tree's ``_notify_write`` hook *before*
  touching anything; when pins exist at the current stamp, the hook copies
  the prob-tree once and parks the frozen copy on every such pin
  (copy-on-write: all pins at one stamp share one preserved copy).

Retention is bounded: :func:`pin` retires the oldest pins of a prob-tree
past :data:`SNAPSHOT_RETENTION` distinct handles, and
``ExecutionContext.read_snapshot`` additionally bounds live handles across a
whole session (covering version *chains* produced by copy-path updates,
where every pinned version is a different object).  A retired or released
handle raises :class:`~repro.utils.errors.SnapshotRetiredError` on access,
so readers learn their consistency guarantee is gone instead of silently
racing.

Thread model: pin/release/retire, the copy-on-write preserve and the
write-busy mark run under one module lock.  A thread that mutates a
prob-tree other threads read *live* (not through pins) must hold a lock of
its own; readers that pin are safe against any writer that goes through
:func:`exclusive_write` or the copy path.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.core.probtree import ProbTree
from repro.utils.errors import SnapshotRetiredError

#: Default bound on pinned-but-unreleased snapshots (per prob-tree in
#: :func:`pin`, per session in ``ExecutionContext.read_snapshot``).  Beyond
#: it the oldest pins retire so writers never preserve unbounded history.
SNAPSHOT_RETENTION = 8

_LOCK = threading.RLock()

#: Signalled (under :data:`_LOCK`) whenever an exclusive write ends.
_WRITE_DONE = threading.Condition(_LOCK)

#: ``id(probtree)`` -> thread ident of the writer rewriting it in place.
_WRITING: Dict[int, int] = {}

#: ``id(probtree)`` -> number of :func:`pin` calls waiting for that write.
_WAITING: Dict[int, int] = {}


def _await_writer(key: int, me: int) -> None:
    """Block (holding :data:`_LOCK`) until no other thread writes *key* in place."""
    while _WRITING.get(key, me) != me:
        _WAITING[key] = _WAITING.get(key, 0) + 1
        try:
            _WRITE_DONE.wait()
        finally:
            remaining = _WAITING[key] - 1
            if remaining:
                _WAITING[key] = remaining
            else:
                del _WAITING[key]


@contextmanager
def exclusive_write(probtree: ProbTree) -> Iterator[bool]:
    """Claim *probtree* for one in-place write, unless it is pinned.

    Yields ``True`` when no live pin holds the prob-tree: it is then marked
    write-busy until the block exits (commit or rollback alike), and every
    :func:`pin` on it from another thread waits for that.  Yields ``False``
    when a reader holds a pin, or is still waiting to pin after the previous
    in-place write (so back-to-back writes cannot starve readers): the
    caller must then leave the object untouched and write a copy instead.
    The check and the mark are one step under the module lock, so no pin
    can slip in between them.  A concurrent in-place write on the same
    object (two warehouses sharing it) is waited out first, as in
    :func:`pin`.
    """
    key = id(probtree)
    me = threading.get_ident()
    with _LOCK:
        _await_writer(key, me)  # another thread's in-place write on it
        pins = probtree._snapshot_pins
        if (pins is not None and pins.handles) or key in _WAITING or key in _WRITING:
            claimed = False
        else:
            _WRITING[key] = me
            claimed = True
    if not claimed:
        yield False
        return
    try:
        yield True
    finally:
        with _LOCK:
            del _WRITING[key]
            _WRITE_DONE.notify_all()


class _PinSet:
    """The pins attached to one live prob-tree (and its data tree).

    Holds the prob-tree weakly — handles hold it strongly, so an unpinned
    tree dies normally — and is installed on both ``probtree._snapshot_pins``
    and ``probtree.tree._snapshot_pins`` so every mutator reaches
    :meth:`before_write` without knowing about prob-trees.
    """

    __slots__ = ("_ref", "handles")

    def __init__(self, probtree: ProbTree) -> None:
        import weakref

        self._ref = weakref.ref(probtree)
        self.handles: list = []

    def before_write(self) -> None:
        """Copy-on-write preserve, called by mutators *before* they mutate."""
        with _LOCK:
            probtree = self._ref()
            if probtree is None:
                return
            stamp = (probtree.tree.version, probtree.state_version)
            needy = [
                handle
                for handle in self.handles
                if handle._frozen is None and handle.stamp == stamp
            ]
            if not needy:
                return
            frozen = probtree.copy()
            for handle in needy:
                handle._frozen = frozen

    def _detach_if_empty(self) -> None:
        if self.handles:
            return
        probtree = self._ref()
        if probtree is not None and probtree._snapshot_pins is self:
            probtree._snapshot_pins = None
            if probtree.tree._snapshot_pins is self:
                probtree.tree._snapshot_pins = None


class Snapshot:
    """A pinned, immutable view of one prob-tree version.

    Usable as a context manager (releases on exit)::

        with probtree.snapshot() as snap:
            answers = evaluate_on_probtree(query, snap.probtree)

    ``probtree`` resolves to the live object while it still sits at the
    pinned stamp (zero copies on the read path) and to the preserved frozen
    copy after any in-place mutation.  After :meth:`release` or retirement
    (retention overrun) access raises :class:`SnapshotRetiredError`.
    """

    __slots__ = ("_live", "_pins", "stamp", "_frozen", "_retired", "_released", "_stats")

    def __init__(self, probtree: ProbTree, pins: _PinSet, stats=None) -> None:
        self._live = probtree
        self._pins = pins
        self.stamp: Tuple[int, int] = (probtree.tree.version, probtree.state_version)
        self._frozen: Optional[ProbTree] = None
        self._retired = False
        self._released = False
        self._stats = stats

    # -- access --------------------------------------------------------------

    @property
    def probtree(self) -> ProbTree:
        """The pinned prob-tree view (live while unchanged, frozen after COW)."""
        with _LOCK:
            if self._released:
                raise SnapshotRetiredError("snapshot was already released")
            if self._retired:
                raise SnapshotRetiredError(
                    f"snapshot at stamp {self.stamp} was retired: too many "
                    "distinct versions pinned (see SNAPSHOT_RETENTION / the "
                    "context's snapshot_retention)"
                )
            if self._frozen is not None:
                return self._frozen
            live = self._live
            if (live.tree.version, live.state_version) != self.stamp:
                # A mutation bypassed the copy-on-write hooks (e.g. direct
                # surgery on private state): the pinned view is gone.
                raise SnapshotRetiredError(
                    f"pinned stamp {self.stamp} no longer exists and was not "
                    "preserved; the prob-tree was mutated outside its mutators"
                )
            return live

    @property
    def tree(self):
        """The pinned data tree (shorthand for ``.probtree.tree``)."""
        return self.probtree.tree

    @property
    def active(self) -> bool:
        return not (self._released or self._retired)

    @property
    def retired(self) -> bool:
        return self._retired

    @property
    def released(self) -> bool:
        return self._released

    def is_current(self) -> bool:
        """Whether the live prob-tree still sits at the pinned stamp."""
        with _LOCK:
            live = self._live
            return self.active and (
                (live.tree.version, live.state_version) == self.stamp
            )

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        """Unpin; idempotent.  The handle refuses all access afterwards."""
        with _LOCK:
            if self._released:
                return
            self._released = True
            self._drop()

    def retire(self) -> None:
        """Forcibly expire the pin (retention overrun); idempotent."""
        with _LOCK:
            if self._retired or self._released:
                return
            self._retired = True
            if self._stats is not None:
                self._stats.snapshots_retired += 1
            self._drop()

    def _drop(self) -> None:
        self._frozen = None
        pins = self._pins
        if pins is not None:
            try:
                pins.handles.remove(self)
            except ValueError:
                pass
            pins._detach_if_empty()
            self._pins = None

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "active" if self.active else ("retired" if self._retired else "released")
        return f"Snapshot(stamp={self.stamp}, {state}, frozen={self._frozen is not None})"


def pin(probtree: ProbTree, retention: Optional[int] = None, stats=None) -> Snapshot:
    """Pin *probtree* at its current stamp and return the :class:`Snapshot`.

    With *retention* set, at most that many handles stay pinned on this
    prob-tree: older ones are retired (oldest first).  Pass ``None`` when a
    caller — ``ExecutionContext.read_snapshot`` — enforces its own bound
    across documents.
    """
    with _LOCK:
        # Wait out an in-place write on another thread: the pin must see a
        # committed (or rolled-back) version, never a half-rewritten one.
        _await_writer(id(probtree), threading.get_ident())
        pins = probtree._snapshot_pins
        if pins is None:
            pins = _PinSet(probtree)
            probtree._snapshot_pins = pins
            probtree.tree._snapshot_pins = pins
        handle = Snapshot(probtree, pins, stats=stats)
        pins.handles.append(handle)
        if stats is not None:
            stats.snapshots_pinned += 1
        if retention is not None and retention >= 1:
            while len(pins.handles) > retention:
                pins.handles[0].retire()
        return handle


__all__ = ["Snapshot", "SNAPSHOT_RETENTION", "exclusive_write", "pin"]
