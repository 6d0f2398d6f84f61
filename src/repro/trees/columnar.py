"""Columnar (struct-of-arrays) tree storage with a zero-copy disk format.

The object :class:`~repro.trees.datatree.DataTree` spends one Python object
and three dict entries per node; past ~100k nodes every whole-tree pass the
compiled matcher makes (candidate seeding, semijoin pruning) is dominated by
pointer chasing.  A :class:`ColumnarTree` stores the same structural facts
the :class:`~repro.trees.index.TreeIndex` derives — preorder intervals,
depths, parents, label postings — as **flat parallel arrays indexed by
preorder rank**:

* ``node_ids[r]``    — the :class:`DataTree` node identifier at rank ``r``;
* ``parent_ranks[r]`` — rank of the parent (``-1`` for the root);
* ``last_ranks[r]``  — the largest rank in the subtree of ``r`` (so the
  subtree of ``r`` is exactly the rank interval ``[r, last_ranks[r]]``);
* ``depths[r]``      — edges to the root;
* ``label_codes[r]`` — index into the sorted ``label_table``;
* per-label posting lists of ranks, concatenated into one array with a
  CSR-style offsets table.

Arrays are numpy ``int64`` when numpy is importable and stdlib
``array('q')`` otherwise — the same optionality shape as
:mod:`repro.formulas.sampling` (the library never *requires* numpy, it just
gets faster with it).  The columnar matcher (the fast path on large trees,
see :class:`repro.queries.plan.ColumnarPlan`) turns the per-node Python loops of
candidate seeding and descendant semijoins into vectorized interval merges
over these arrays.

The on-disk format (:meth:`ColumnarTree.save` / :meth:`ColumnarTree.load`)
is a JSON header followed by the raw native-endian arrays; :meth:`load`
memory-maps the file and builds **zero-copy views** into the mapping, so a
large corpus opens in O(header) time instead of re-parsing XML.

Staleness contract: a :class:`ColumnarTree` built from a live tree records
the tree's mutation :attr:`~repro.trees.datatree.DataTree.version` and is a
*snapshot* — it is never patched in place.  Use :func:`columnar_tree` (the
cached accessor, mirroring :func:`~repro.trees.index.tree_index`) to always
get a fresh column; a *held* handle whose source tree has mutated raises a
typed :class:`~repro.utils.errors.StaleColumnarTreeError` instead of serving
torn arrays.

Incremental maintenance: the accessor does **not** rebuild a stale cached
column from scratch when the pending mutations are few.  :meth:`ColumnarTree.patch`
replays the tree's mutation journal (``mutations_since``) over the stale
arrays as bounded splices — ``np.insert``/masked rank shifts confined to the
affected preorder interval on the numpy backend, the observationally
identical list splices on the fallback — and produces a **new** column at
the tree's current version.  Held snapshots are never touched (copy-on-patch
keeps the staleness contract intact); past
:data:`~repro.trees.index.PATCH_JOURNAL_LIMIT` pending entries a full
:meth:`ColumnarTree.from_tree` rebuild is cheaper and is what happens.

Bulk ingest: :meth:`ColumnarTree.from_xml` builds the flat arrays straight
from an XML document in one pass — no per-node :class:`DataTree` objects on
the hot path — producing a column byte-identical to
``ColumnarTree.from_tree(datatree_from_xml(text))``.
"""

from __future__ import annotations

import json
import mmap
import os
import sys
import weakref
from array import array
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised through whichever backend is present
    import numpy as _np
except ImportError:  # pragma: no cover - pure-python fallback container
    _np = None

from repro.trees.datatree import DataTree, NodeId
from repro.trees.index import PATCH_JOURNAL_LIMIT
from repro.utils.errors import (
    ColumnarFormatError,
    InvalidTreeError,
    StaleColumnarTreeError,
)
from repro.utils.faults import fire

#: File magic of the columnar disk format (version 1).
MAGIC = b"RPROCOL1"

#: The parallel arrays, in their fixed on-disk order.
_ARRAY_NAMES = (
    "node_ids",
    "parent_ranks",
    "last_ranks",
    "depths",
    "label_codes",
    "posting_ranks",
    "posting_offsets",
)

_ITEM_SIZE = 8  # int64 everywhere — simple, alignment-friendly, mmap-able


def have_numpy() -> bool:
    """Whether the numpy backend is active (module-level switch, test-patchable)."""
    return _np is not None


def _freeze(values: List[int]):
    """An int64 column from a built-up Python list (numpy or array fallback)."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    return array("q", values)


class ColumnarTree:
    """One document's structure as flat parallel arrays (preorder-rank indexed).

    Build with :meth:`from_tree` (or the cached :func:`columnar_tree`
    accessor), persist with :meth:`save`, reopen with :meth:`load`.  The
    arrays are exposed directly (``last_ranks``, ``parent_ranks``, ...) for
    the vectorized matcher — treat them as read-only; a column is an
    immutable snapshot of one tree version.
    """

    __slots__ = (
        "node_ids",
        "parent_ranks",
        "last_ranks",
        "depths",
        "label_codes",
        "posting_ranks",
        "posting_offsets",
        "label_table",
        "version",
        "_source",
        "_code_of",
        "_nonroot",
        "_children_order",
        "_children_offsets",
        "_mmap",
    )

    def __init__(self) -> None:
        raise TypeError(
            "ColumnarTree cannot be built directly; use ColumnarTree.from_tree, "
            "ColumnarTree.load or the columnar_tree accessor"
        )

    @classmethod
    def _blank(cls) -> "ColumnarTree":
        self = cls.__new__(cls)
        self._source = None
        self._code_of = None
        self._nonroot = None
        self._children_order = None
        self._children_offsets = None
        self._mmap = None
        return self

    # -- construction --------------------------------------------------------

    @classmethod
    def from_tree(cls, tree: DataTree) -> "ColumnarTree":
        """Snapshot *tree* into columnar form (one O(n) DFS).

        The column records ``tree.version`` and keeps a weak reference to
        the source, so using it after the tree mutates raises
        :class:`StaleColumnarTreeError` (see :meth:`require_fresh`).
        """
        node_ids: List[int] = []
        parent_ranks: List[int] = []
        last_ranks: List[int] = []
        depths: List[int] = []
        labels: List[str] = []
        rank_of: Dict[NodeId, int] = {}
        # Iterative DFS in child insertion order — the same visit order as
        # TreeIndex, so sibling ranks ascend in insertion order and the
        # columnar matcher enumerates embeddings in the same order as the
        # object-plan matcher.
        stack: List[Tuple[NodeId, bool]] = [(tree.root, True)]
        while stack:
            node, enter = stack.pop()
            if not enter:
                last_ranks[rank_of[node]] = len(node_ids) - 1
                continue
            rank = len(node_ids)
            rank_of[node] = rank
            node_ids.append(node)
            parent = tree.parent(node)
            parent_rank = -1 if parent is None else rank_of[parent]
            parent_ranks.append(parent_rank)
            depths.append(0 if parent_rank < 0 else depths[parent_rank] + 1)
            labels.append(tree.label(node))
            last_ranks.append(rank)
            stack.append((node, False))
            for child in reversed(tree.children(node)):
                stack.append((child, True))

        return cls._assemble(
            node_ids, parent_ranks, last_ranks, depths, labels, tree.version, tree
        )

    @classmethod
    def _assemble(
        cls,
        node_ids: List[int],
        parent_ranks: List[int],
        last_ranks: List[int],
        depths: List[int],
        labels: List[str],
        version: int,
        source: Optional[DataTree],
    ) -> "ColumnarTree":
        """Freeze flat per-rank lists (labels still as strings) into a column."""
        label_table = tuple(sorted(set(labels)))
        code_of = {label: code for code, label in enumerate(label_table)}
        label_codes = [code_of[label] for label in labels]
        # CSR postings: ranks grouped by label code, each group ascending.
        counts = [0] * (len(label_table) + 1)
        for code in label_codes:
            counts[code + 1] += 1
        offsets = counts
        for index in range(1, len(offsets)):
            offsets[index] += offsets[index - 1]
        posting_ranks = [0] * len(label_codes)
        cursor = list(offsets)
        for rank, code in enumerate(label_codes):
            posting_ranks[cursor[code]] = rank
            cursor[code] += 1

        self = cls._blank()
        self.node_ids = _freeze(node_ids)
        self.parent_ranks = _freeze(parent_ranks)
        self.last_ranks = _freeze(last_ranks)
        self.depths = _freeze(depths)
        self.label_codes = _freeze(label_codes)
        self.posting_ranks = _freeze(posting_ranks)
        self.posting_offsets = _freeze(offsets)
        self.label_table = label_table
        self.version = version
        self._source = None if source is None else weakref.ref(source)
        return self

    @classmethod
    def from_xml(cls, text: str) -> "ColumnarTree":
        """Build a column straight from a ``<node>`` XML document, in one pass.

        The bulk-ingest fast path: no per-node :class:`DataTree` objects (or
        dict entries, or journal records) are materialized — the element tree
        is walked once and the flat rank-indexed lists are appended to
        directly.  Node identifiers are allocated in preorder starting at 0,
        exactly as :func:`repro.xmlio.parse.datatree_from_xml` would allocate
        them, so every array is byte-identical to
        ``ColumnarTree.from_tree(datatree_from_xml(text))`` — only the
        version stamp differs (0 here, like any freshly ingested document)
        and there is no live-tree backref, so a column ingested this way
        never goes stale.
        """
        import xml.etree.ElementTree as ET

        element = ET.fromstring(text)
        if element.tag != "node":
            raise InvalidTreeError(
                f"expected a <node> root element, got <{element.tag}>"
            )
        parent_ranks: List[int] = []
        last_ranks: List[int] = []
        depths: List[int] = []
        labels: List[str] = []
        # (element, parent_rank) entries open a node; (None, rank) close it.
        stack: List[Tuple[Optional[ET.Element], int]] = [(element, -1)]
        while stack:
            node, parent_rank = stack.pop()
            if node is None:
                last_ranks[parent_rank] = len(labels) - 1
                continue
            rank = len(labels)
            parent_ranks.append(parent_rank)
            depths.append(0 if parent_rank < 0 else depths[parent_rank] + 1)
            labels.append(node.get("label", ""))
            last_ranks.append(rank)
            stack.append((None, rank))
            children = [child for child in node if child.tag == "node"]
            for child in reversed(children):
                stack.append((child, rank))
        node_ids = list(range(len(labels)))
        return cls._assemble(
            node_ids, parent_ranks, last_ranks, depths, labels, 0, None
        )

    # -- incremental maintenance ---------------------------------------------

    def patch(self, tree: Optional[DataTree] = None) -> Optional["ColumnarTree"]:
        """A **new** column at *tree*'s current version, derived from this one.

        Replays the journal suffix ``tree.mutations_since(self.version)``
        over copies of this column's arrays as bounded splices: an
        ``add_child`` inserts one slot at the new preorder rank and shifts
        only the ranks at or after it, a ``delete_subtree`` removes one
        contiguous rank interval, a ``set_label`` moves one posting.  On the
        numpy backend the shifts are vectorized (``np.insert`` plus masked
        adds); the pure-Python fallback performs the observationally
        identical list splices.

        Mirrors :meth:`~repro.trees.index.TreeIndex.patch` with one
        deliberate difference: the stale column is **not** updated in place.
        Held handles stay immutable (and keep raising
        :class:`StaleColumnarTreeError`) — only the
        :func:`columnar_tree` accessor swaps the patched replacement into
        the tree's cache.

        Returns ``None`` when patching is not possible or not worthwhile
        (no live source tree, *tree* is not this column's source, the
        journal no longer reaches back, or the suffix exceeds
        :data:`~repro.trees.index.PATCH_JOURNAL_LIMIT` — a rebuild is then
        cheaper), and ``self`` when already fresh.  Each replayed entry
        crosses the ``"columnar.patch"`` fault site; a fault mid-replay
        discards the partial replacement and *poisons* this column
        (``version = -1``) so the next accessor call rebuilds instead of
        replaying into the same fault.
        """
        source = self._source() if self._source is not None else None
        if tree is None:
            tree = source
        if tree is None or source is not tree:
            return None
        if self.version == tree.version:
            return self
        if self.version < 0:  # poisoned by an earlier mid-patch fault
            return None
        entries = tree.mutations_since(self.version)
        if entries is None or len(entries) > PATCH_JOURNAL_LIMIT:
            return None
        try:
            state = _PatchState(self)
            for op, node, payload in entries:
                fire("columnar.patch")
                state.apply(op, node, payload)
            return state.freeze(tree)
        except BaseException:
            self.version = -1
            raise

    # -- staleness -----------------------------------------------------------

    def is_fresh(self) -> bool:
        """Whether the source tree (if still alive) is at this column's version."""
        source = self._source() if self._source is not None else None
        return source is None or source.version == self.version

    def require_fresh(self) -> None:
        """Raise :class:`StaleColumnarTreeError` if the source tree has moved on.

        Columns are immutable snapshots — unlike a
        :class:`~repro.trees.index.TreeIndex` they are never patched in
        place, so a version mismatch means every rank, interval and posting
        may describe nodes that no longer exist.  Serving those arrays would
        silently return wrong (or phantom) matches; the typed error makes
        the broken handle loud.  Fresh columns come from
        :func:`columnar_tree`, never from holding on to an old one.
        """
        source = self._source() if self._source is not None else None
        if source is not None and source.version != self.version:
            raise StaleColumnarTreeError(
                f"this ColumnarTree snapshot was built at tree version "
                f"{self.version} but the tree is now at version "
                f"{source.version}; re-fetch it through columnar_tree()"
            )

    # -- basic accessors -----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def root_label(self) -> str:
        return self.label_table[self.label_codes[0]]

    def label_of(self, rank: int) -> str:
        return self.label_table[self.label_codes[rank]]

    def label_code(self, label: str) -> int:
        """The code of *label* in this column's table, or ``-1`` when absent."""
        code_of = self._code_of
        if code_of is None:
            code_of = {lbl: code for code, lbl in enumerate(self.label_table)}
            self._code_of = code_of
        return code_of.get(label, -1)

    def postings(self, code: int):
        """Preorder-sorted ranks carrying label *code* (zero-copy slice)."""
        if code < 0:
            return self.posting_ranks[0:0]
        return self.posting_ranks[self.posting_offsets[code] : self.posting_offsets[code + 1]]

    def nonroot_ranks(self):
        """All ranks except the root, shared across calls (wildcard seeding)."""
        cached = self._nonroot
        if cached is None:
            if _np is not None:
                cached = _np.arange(1, self.node_count, dtype=_np.int64)
            else:
                cached = range(1, self.node_count)
            self._nonroot = cached
        return cached

    def children_of(self, rank: int):
        """Child ranks of *rank*, ascending (== child insertion order)."""
        offsets, order = self._children_offsets, self._children_order
        if offsets is None:
            order, offsets = self._build_children()
        return order[offsets[rank] : offsets[rank + 1]]

    def _build_children(self):
        """Lazy CSR of the child relation (ranks grouped by parent rank)."""
        n = self.node_count
        parents = self.parent_ranks
        if _np is not None:
            # Stable argsort keeps sibling ranks ascending within a parent;
            # the root's -1 parent sorts first and is skipped by the +1.
            order = _np.argsort(parents, kind="stable").astype(_np.int64)[1:]
            sorted_parents = parents[order] if len(order) else parents[:0]
            offsets = _np.searchsorted(
                sorted_parents, _np.arange(n + 1, dtype=_np.int64), side="left"
            ).astype(_np.int64)
        else:
            counts = [0] * (n + 1)
            for rank in range(1, n):
                counts[parents[rank] + 1] += 1
            for index in range(1, n + 1):
                counts[index] += counts[index - 1]
            offsets = counts
            order_list = [0] * (n - 1 if n else 0)
            cursor = list(offsets)
            for rank in range(1, n):
                parent = parents[rank]
                order_list[cursor[parent]] = rank
                cursor[parent] += 1
            order = array("q", order_list)
            offsets = array("q", offsets)
        self._children_order = order
        self._children_offsets = offsets
        return order, offsets

    # -- conversions ---------------------------------------------------------

    def to_tree(self) -> DataTree:
        """Materialize an object :class:`DataTree` (node identifiers preserved).

        The inverse of :meth:`from_tree` up to the journal (the result is a
        fresh tree at version 0).  Ranks ascend in sibling insertion order,
        so one pass rebuilds the child lists in their original order.
        """
        node_ids = self.node_ids
        parents = self.parent_ranks
        labels = {}
        children: Dict[NodeId, List[NodeId]] = {}
        parent_map: Dict[NodeId, Optional[NodeId]] = {}
        for rank in range(self.node_count):
            node = int(node_ids[rank])
            labels[node] = self.label_of(rank)
            children[node] = []
            parent_rank = parents[rank]
            if parent_rank < 0:
                parent_map[node] = None
            else:
                parent = int(node_ids[parent_rank])
                parent_map[node] = parent
                children[parent].append(node)
        tree = DataTree.__new__(DataTree)
        tree._labels = labels
        tree._children = children
        tree._parent = parent_map
        tree._root = int(node_ids[0])
        tree._next_id = (max(labels) + 1) if labels else 1
        tree._version = 0
        tree._index_cache = None
        tree._columnar_cache = None
        tree._journal = []
        tree._journal_base = 0
        tree._undo = None
        tree._snapshot_pins = None
        return tree

    def matches(self, pattern):
        """All embeddings of *pattern* against this column (no object tree).

        Convenience for columns loaded from disk: matching needs only the
        arrays, so a saved corpus can answer pattern/boolean queries without
        ever materializing :class:`DataTree` objects.
        """
        from repro.queries.plan import ColumnarPlan  # local: plan imports us

        return ColumnarPlan(pattern, self).matches()

    def structural_state(self) -> Dict[str, tuple]:
        """Canonical tuple snapshot of every column (differential/IO tests)."""
        state = {name: tuple(getattr(self, name)) for name in _ARRAY_NAMES}
        state["label_table"] = self.label_table
        state["version"] = self.version
        return state

    # -- disk format ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the column to *path* (native-endian int64 arrays + JSON header)."""
        arrays = {}
        blobs = []
        offset = 0
        for name in _ARRAY_NAMES:
            column = getattr(self, name)
            if _np is not None:
                blob = _np.ascontiguousarray(column, dtype=_np.int64).tobytes()
            else:
                blob = column.tobytes()
            arrays[name] = (offset, len(column))
            blobs.append(blob)
            offset += len(blob)
        header = json.dumps(
            {
                "node_count": self.node_count,
                "label_table": list(self.label_table),
                "version": self.version,
                "byteorder": sys.byteorder,
                "arrays": {name: list(span) for name, span in arrays.items()},
            }
        ).encode("utf-8")
        prefix = MAGIC + len(header).to_bytes(8, "little") + header
        padding = (-len(prefix)) % _ITEM_SIZE
        with open(path, "wb") as handle:
            handle.write(prefix + b"\0" * padding)
            for blob in blobs:
                handle.write(blob)

    @classmethod
    def load(cls, path) -> "ColumnarTree":
        """Memory-map *path*; array columns are zero-copy views into the map.

        O(header) — no per-node work at all: with numpy the columns are
        ``frombuffer`` views, without it ``memoryview.cast('q')`` slices,
        both directly over the OS page cache.  The mapping stays alive as
        long as the returned column (any views pin it).  Raises
        :class:`ColumnarFormatError` on a foreign or corrupt file, including
        an endianness mismatch (the format is native-endian by design —
        byte-swapping would forfeit the zero-copy load).
        """
        with open(path, "rb") as handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # empty file cannot be mapped
                raise ColumnarFormatError(f"not a columnar tree file: {path}") from exc
        if mapped[: len(MAGIC)] != MAGIC:
            mapped.close()
            raise ColumnarFormatError(f"not a columnar tree file: {path}")
        try:
            header_length = int.from_bytes(mapped[len(MAGIC) : len(MAGIC) + 8], "little")
            header_start = len(MAGIC) + 8
            header = json.loads(mapped[header_start : header_start + header_length])
            if header["byteorder"] != sys.byteorder:
                raise ColumnarFormatError(
                    f"columnar file {path} was written on a "
                    f"{header['byteorder']}-endian machine; this machine is "
                    f"{sys.byteorder}-endian (the format is native-endian for "
                    f"zero-copy loads)"
                )
            base = header_start + header_length
            base += (-base) % _ITEM_SIZE
            self = cls._blank()
            view = memoryview(mapped)
            for name in _ARRAY_NAMES:
                offset, count = header["arrays"][name]
                start = base + offset
                stop = start + count * _ITEM_SIZE
                if stop > len(mapped):
                    raise ColumnarFormatError(
                        f"columnar file {path} is truncated ({name} ends at "
                        f"{stop}, file has {len(mapped)} bytes)"
                    )
                if _np is not None:
                    column = _np.frombuffer(
                        mapped, dtype=_np.int64, count=count, offset=start
                    )
                else:
                    column = view[start:stop].cast("q")
                setattr(self, name, column)
            self.label_table = tuple(header["label_table"])
            self.version = int(header["version"])
            self._mmap = mapped
            return self
        except ColumnarFormatError:
            raise
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise ColumnarFormatError(f"corrupt columnar tree file: {path}") from exc

    def __repr__(self) -> str:
        backend = "numpy" if _np is not None else "array"
        return (
            f"ColumnarTree(nodes={self.node_count}, "
            f"labels={len(self.label_table)}, version={self.version}, "
            f"backend={backend!r}, mmap={self._mmap is not None})"
        )


class _PatchState:
    """Working copies of one column's arrays while a journal suffix replays.

    Postings are exploded from their CSR encoding into one working list (or
    numpy array) per label code — every journal entry touches only one or
    two labels plus rank shifts, and re-concatenating at :meth:`freeze` is a
    straight memcpy, so the explode/concat pair is far cheaper than splicing
    the packed CSR arrays per entry.  New labels are *appended* to the
    working table (codes stay stable during the replay); :meth:`freeze`
    re-sorts the table and remaps the codes only when the label set actually
    changed.
    """

    __slots__ = (
        "np",
        "ids",
        "par",
        "last",
        "dep",
        "codes",
        "table",
        "code_of",
        "post",
        "table_dirty",
    )

    def __init__(self, column: ColumnarTree) -> None:
        np = _np
        self.np = np
        if np is not None:
            self.ids = np.array(column.node_ids, dtype=np.int64)
            self.par = np.array(column.parent_ranks, dtype=np.int64)
            self.last = np.array(column.last_ranks, dtype=np.int64)
            self.dep = np.array(column.depths, dtype=np.int64)
            self.codes = np.array(column.label_codes, dtype=np.int64)
        else:
            self.ids = list(column.node_ids)
            self.par = list(column.parent_ranks)
            self.last = list(column.last_ranks)
            self.dep = list(column.depths)
            self.codes = list(column.label_codes)
        self.table = list(column.label_table)
        self.code_of = {label: code for code, label in enumerate(self.table)}
        offsets = column.posting_offsets
        ranks = column.posting_ranks
        if np is not None:
            self.post = {
                code: np.array(
                    ranks[offsets[code] : offsets[code + 1]], dtype=np.int64
                )
                for code in range(len(self.table))
            }
        else:
            self.post = {
                code: list(ranks[offsets[code] : offsets[code + 1]])
                for code in range(len(self.table))
            }
        self.table_dirty = False

    # -- shared helpers ------------------------------------------------------

    def _rank_of(self, node: NodeId) -> int:
        if self.np is not None:
            hits = self.np.nonzero(self.ids == node)[0]
            if not len(hits):
                raise LookupError(f"node {node} not present in the column")
            return int(hits[0])
        return self.ids.index(node)

    def _code_for(self, label: str) -> int:
        code = self.code_of.get(label)
        if code is None:
            code = len(self.table)
            self.table.append(label)
            self.code_of[label] = code
            self.post[code] = (
                self.np.empty(0, dtype=self.np.int64) if self.np is not None else []
            )
            self.table_dirty = True
        return code

    # -- journal replay ------------------------------------------------------

    def apply(self, op: str, node: NodeId, payload: tuple) -> None:
        if op == "add_child":
            self._add_child(node, payload[0], payload[1])
        elif op == "set_label":
            self._set_label(node, payload[0], payload[1])
        elif op == "delete_subtree":
            self._delete_subtree(node)
        else:
            raise LookupError(f"unknown journal op {op!r}")

    def _add_child(self, node: NodeId, parent: NodeId, label: str) -> None:
        p = self._rank_of(parent)
        r = int(self.last[p]) + 1
        code = self._code_for(label)
        np = self.np
        if np is not None:
            positions = np.arange(len(self.ids), dtype=np.int64)
            self.ids = np.insert(self.ids, r, node)
            self.par = np.insert(self.par + (self.par >= r), r, p)
            # A node's interval grows iff its subtree shifted right (rank
            # >= r) or it is an ancestor-or-self of the parent (rank <= p
            # with an interval reaching the parent's old end r-1).
            grow = (positions >= r) | ((positions <= p) & (self.last >= r - 1))
            self.last = np.insert(self.last + grow, r, r)
            self.dep = np.insert(self.dep, r, int(self.dep[p]) + 1)
            self.codes = np.insert(self.codes, r, code)
            for group_code, group in self.post.items():
                group += group >= r
            group = self.post[code]
            self.post[code] = np.insert(
                group, int(np.searchsorted(group, r)), r
            )
        else:
            par = self.par
            for index in range(len(par)):
                if par[index] >= r:
                    par[index] += 1
            par.insert(r, p)
            last = self.last
            for index in range(len(last)):
                if index >= r or (index <= p and last[index] >= r - 1):
                    last[index] += 1
            last.insert(r, r)
            self.dep.insert(r, self.dep[p] + 1)
            self.ids.insert(r, node)
            self.codes.insert(r, code)
            for group in self.post.values():
                for index in range(len(group)):
                    if group[index] >= r:
                        group[index] += 1
            insort(self.post[code], r)

    def _set_label(self, node: NodeId, old: str, new: str) -> None:
        if old == new:
            return
        r = self._rank_of(node)
        old_code = int(self.codes[r])
        new_code = self._code_for(new)
        np = self.np
        if np is not None:
            group = self.post[old_code]
            self.post[old_code] = np.delete(group, int(np.searchsorted(group, r)))
            target = self.post[new_code]
            self.post[new_code] = np.insert(
                target, int(np.searchsorted(target, r)), r
            )
        else:
            group = self.post[old_code]
            del group[bisect_left(group, r)]
            insort(self.post[new_code], r)
        self.codes[r] = new_code
        if not len(self.post[old_code]):
            self.table_dirty = True

    def _delete_subtree(self, node: NodeId) -> None:
        r = self._rank_of(node)
        h = int(self.last[r])
        size = h - r + 1
        np = self.np
        if np is not None:
            keep = np.ones(len(self.ids), dtype=bool)
            keep[r : h + 1] = False
            self.ids = self.ids[keep]
            self.dep = self.dep[keep]
            self.codes = self.codes[keep]
            par = self.par[keep]
            # Children of deleted nodes are deleted with them, so no kept
            # parent rank can point inside [r, h].
            self.par = par - size * (par > h)
            last = self.last[keep]
            self.last = last - size * (last >= h)
            for code, group in list(self.post.items()):
                kept = group[(group < r) | (group > h)]
                if len(kept) != len(group):
                    self.post[code] = kept - size * (kept > h)
                    if not len(kept):
                        self.table_dirty = True
                else:
                    group -= size * (group > h)
        else:
            self.ids = self.ids[:r] + self.ids[h + 1 :]
            self.dep = self.dep[:r] + self.dep[h + 1 :]
            self.codes = self.codes[:r] + self.codes[h + 1 :]
            par = self.par[:r] + self.par[h + 1 :]
            self.par = [value - size if value > h else value for value in par]
            last = self.last[:r] + self.last[h + 1 :]
            self.last = [value - size if value >= h else value for value in last]
            for code, group in self.post.items():
                kept = [value for value in group if value < r or value > h]
                if len(kept) != len(group):
                    if not kept:
                        self.table_dirty = True
                self.post[code] = [
                    value - size if value > h else value for value in kept
                ]

    # -- reassembly ----------------------------------------------------------

    def freeze(self, source: DataTree) -> ColumnarTree:
        """Pack the working state into a fresh :class:`ColumnarTree`."""
        np = self.np
        nonempty = [code for code in range(len(self.table)) if len(self.post[code])]
        dirty = self.table_dirty or len(nonempty) != len(self.table)
        if dirty:
            # The label set changed: re-sort the table (appended labels sit
            # at the end, emptied ones must vanish) and remap every code.
            order = sorted(nonempty, key=lambda code: self.table[code])
            label_table = tuple(self.table[code] for code in order)
            new_code = {old: new for new, old in enumerate(order)}
            remap = [new_code.get(code, -1) for code in range(len(self.table))]
            if np is not None:
                codes = np.asarray(remap, dtype=np.int64)[self.codes]
            else:
                codes = [remap[code] for code in self.codes]
        else:
            order = list(range(len(self.table)))
            label_table = tuple(self.table)
            codes = self.codes

        groups = [self.post[code] for code in order]
        offsets = [0] * (len(groups) + 1)
        for index, group in enumerate(groups):
            offsets[index + 1] = offsets[index] + len(group)
        if np is not None:
            posting_ranks = (
                np.concatenate(groups)
                if groups
                else np.empty(0, dtype=np.int64)
            )
            posting_offsets = np.asarray(offsets, dtype=np.int64)
        else:
            flat: List[int] = []
            for group in groups:
                flat.extend(group)
            posting_ranks = array("q", flat)
            posting_offsets = array("q", offsets)

        result = ColumnarTree._blank()
        if np is not None:
            result.node_ids = self.ids
            result.parent_ranks = self.par
            result.last_ranks = self.last
            result.depths = self.dep
            result.label_codes = codes
        else:
            result.node_ids = array("q", self.ids)
            result.parent_ranks = array("q", self.par)
            result.last_ranks = array("q", self.last)
            result.depths = array("q", self.dep)
            result.label_codes = array("q", codes)
        result.posting_ranks = posting_ranks
        result.posting_offsets = posting_offsets
        result.label_table = label_table
        result.version = source.version
        result._source = weakref.ref(source)
        return result


def columnar_tree(tree: DataTree, stats=None) -> ColumnarTree:
    """The shared :class:`ColumnarTree` snapshot of *tree*, patched or rebuilt
    when stale.

    Mirrors :func:`~repro.trees.index.tree_index`: the snapshot is cached on
    the tree and compared against the tree's mutation version on every call.
    A stale cached column is first offered to :meth:`ColumnarTree.patch` —
    when the pending journal suffix is within
    :data:`~repro.trees.index.PATCH_JOURNAL_LIMIT` entries the replacement
    column is produced by bounded array splices instead of the O(n)
    :meth:`~ColumnarTree.from_tree` rebuild, which is what makes
    the columnar matcher usable on mixed update/query (streaming)
    workloads.  The cache swap leaves previously held handles untouched (and
    stale — see :meth:`~ColumnarTree.require_fresh`).

    *stats* (a :class:`~repro.core.context.ContextStats`) receives
    ``columns_patched`` / ``column_rebuilds`` bumps; cold first builds count
    as rebuilds.
    """
    cached = tree._columnar_cache
    if cached is not None:
        if cached.version == tree.version:
            return cached
        patched = cached.patch(tree)
        if patched is not None:
            tree._columnar_cache = patched
            if stats is not None:
                stats.columns_patched += 1
            return patched
    column = ColumnarTree.from_tree(tree)
    tree._columnar_cache = column
    if stats is not None:
        stats.column_rebuilds += 1
    return column


__all__ = [
    "ColumnarTree",
    "columnar_tree",
    "have_numpy",
    "MAGIC",
    "PATCH_JOURNAL_LIMIT",
]
