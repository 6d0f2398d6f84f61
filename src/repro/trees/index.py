"""Structural indexes over data trees.

A :class:`TreeIndex` snapshots the structure of a :class:`~repro.trees.datatree.DataTree`
into a handful of flat maps that turn the navigation primitives query
evaluation hammers on into O(1) / O(log n) operations:

* **preorder interval numbering** — every node gets a preorder rank and the
  largest rank occurring in its subtree, so ``is_ancestor`` (and therefore
  every structural join of the compiled pattern matcher) is two integer
  comparisons instead of a parent-chain walk;
* a **label → nodes inverted index**, in preorder order, replacing the
  linear scan of :meth:`DataTree.nodes_with_label` (the compiled matcher
  seeds its candidate sets from it);
* cached **depths** (one dict lookup instead of an ancestor walk), plus
  lazily-built **children-by-label** maps and per-label preorder-rank lists
  for direct structural lookups (:meth:`TreeIndex.children_with_label`,
  :meth:`TreeIndex.descendants_with_label`).

Indexes are maintained *incrementally*: the tree carries a mutation
:attr:`~repro.trees.datatree.DataTree.version` counter and a bounded
**mutation journal** (:meth:`DataTree.mutations_since
<repro.trees.datatree.DataTree.mutations_since>`) recording every
``add_child`` / ``add_subtree`` / ``delete_subtree`` / ``set_label``.
:func:`tree_index` — the only way callers should obtain an index — hands back
the cached snapshot while its version still matches; when stale, it first
tries :meth:`TreeIndex.patch`, which replays the journal suffix in place
(interval renumbering confined to the affected subtree plus suffix shifts,
posting-list deltas, depth and parent fix-ups), and falls back to a full
O(n) rebuild only when the journal is unavailable or longer than the
:data:`PATCH_JOURNAL_LIMIT` cost-model threshold.  Holding on to a stale
:class:`TreeIndex` is therefore impossible through the public entry point;
:meth:`TreeIndex.is_fresh` exposes the staleness check for tests, and
:meth:`TreeIndex.structural_state` the canonical internal state the
differential harness compares against a fresh rebuild.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.trees.datatree import DataTree, NodeId
from repro.utils.faults import fire

#: Above this many pending journal entries, replaying loses to rebuilding:
#: each replayed entry shifts a preorder suffix (O(n) worst case, ~n/2 on
#: average), while a rebuild is one O(n) DFS with a larger constant — so the
#: break-even point is a small, size-independent entry count.
PATCH_JOURNAL_LIMIT = 16


class TreeIndex:
    """The structural index of one data tree, maintained incrementally.

    Build through :func:`tree_index` so snapshots are shared and kept in
    sync with the tree's mutation counter.  The index is NOT an immutable
    snapshot: when the tree mutates, the next :func:`tree_index` call
    replays the mutation journal onto this same object (:meth:`patch`), so
    a held handle describes the *current* tree after any interleaved
    ``tree_index`` call — don't rely on it staying stale.
    """

    __slots__ = (
        "_tree",
        "_version",
        "_pre",
        "_last",
        "_depth",
        "_order",
        "_by_label",
        "_parent_of",
        "_label_of",
        "_pres_by_label",
        "_children_by_label",
    )

    def __init__(self, tree: DataTree) -> None:
        self._tree = tree
        self._version = tree.version
        pre: Dict[NodeId, int] = {}
        last: Dict[NodeId, int] = {}
        depth: Dict[NodeId, int] = {}
        order: List[NodeId] = []
        by_label: Dict[str, List[NodeId]] = {}
        parent_of: Dict[NodeId, Optional[NodeId]] = {}
        label_of: Dict[NodeId, str] = {}
        counter = 0
        # Iterative DFS (documents are routinely thousands of nodes deep);
        # the second visit of a node closes its preorder interval.
        stack: List[Tuple[NodeId, bool]] = [(tree.root, True)]
        while stack:
            node, enter = stack.pop()
            if not enter:
                last[node] = counter - 1
                continue
            pre[node] = counter
            counter += 1
            order.append(node)
            parent = tree.parent(node)
            parent_of[node] = parent
            depth[node] = 0 if parent is None else depth[parent] + 1
            label = tree.label(node)
            label_of[node] = label
            by_label.setdefault(label, []).append(node)
            stack.append((node, False))
            for child in reversed(tree.children(node)):
                stack.append((child, True))
        self._pre = pre
        self._last = last
        self._depth = depth
        self._order = tuple(order)
        self._by_label = {label: tuple(nodes) for label, nodes in by_label.items()}
        # Snapshot parent/label maps let patch() replay journal entries that
        # mention nodes the live tree has since deleted.
        self._parent_of = parent_of
        self._label_of = label_of
        # Lazy caches: per-label preorder-rank lists and per-node
        # children-by-label maps are only materialized when first queried.
        self._pres_by_label: Dict[str, List[int]] = {}
        self._children_by_label: Dict[NodeId, Dict[str, Tuple[NodeId, ...]]] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def tree(self) -> DataTree:
        return self._tree

    @property
    def version(self) -> int:
        """The tree version this snapshot was built at."""
        return self._version

    def is_fresh(self) -> bool:
        """Whether the tree has not been mutated since this index was built."""
        return self._version == self._tree.version

    def patch(self) -> bool:
        """Replay the tree's mutation journal, bringing this index up to date.

        Returns ``True`` when the index now matches the tree's version
        (including when it already did), ``False`` when patching is not
        possible or not worthwhile — the journal has been trimmed past this
        index's version, or the pending suffix exceeds
        :data:`PATCH_JOURNAL_LIMIT` (a full rebuild is then cheaper).

        Replay is sequential: after applying entry *i*, the index mirrors
        exactly the tree as it stood after mutation *i*, which is what makes
        each entry's bookkeeping local — an ``add_child`` inserts one rank
        and shifts the preorder suffix (a run of them grafting one subtree
        inserts one rank block and shifts the suffix once), a
        ``delete_subtree`` drops one contiguous rank interval, a
        ``set_label`` moves one posting.  The
        patched index is structurally identical to a fresh rebuild (the
        incremental-index differential harness asserts exactly that).

        Exception safety: replay mutates the index in place, so an exception
        mid-entry (see the ``index.patch`` fault site) would leave it
        half-shifted.  The index then **poisons itself** — its version drops
        to ``-1``, which no journal reaches — before re-raising, so the next
        :func:`tree_index` call discards it and rebuilds instead of serving
        (or re-patching) torn interval maps.
        """
        tree = self._tree
        if self._version == tree.version:
            return True
        entries = tree.mutations_since(self._version)
        if entries is None or len(entries) > PATCH_JOURNAL_LIMIT:
            return False
        try:
            return self._replay(entries, tree)
        except BaseException:
            self._version = -1
            raise

    def _replay(self, entries, tree: DataTree) -> bool:
        pre = self._pre
        last = self._last
        depth = self._depth
        parent_of = self._parent_of
        label_of = self._label_of
        children_by_label = self._children_by_label
        order = list(self._order)
        postings = self._by_label
        unfrozen: set = set()

        def posting(label: str) -> List[NodeId]:
            lst = postings.get(label)
            if lst is None:
                lst = []
                postings[label] = lst
                unfrozen.add(label)
            elif label not in unfrozen:
                lst = list(lst)
                postings[label] = lst
                unfrozen.add(label)
            return lst

        def rank_position(lst: List[NodeId], rank: int) -> int:
            """Leftmost position in *lst* (preorder-sorted) with rank ≥ *rank*."""
            lo, hi = 0, len(lst)
            while lo < hi:
                mid = (lo + hi) // 2
                if pre[lst[mid]] < rank:
                    lo = mid + 1
                else:
                    hi = mid
            return lo

        position, count = 0, len(entries)
        while position < count:
            op, node, payload = entries[position]
            if op == "add_child":
                # A run of appends that grafts one subtree in preorder (each
                # parent on the run's rightmost path, as ``add_subtree`` and
                # well-formed bulk specs journal it) lands as one contiguous
                # rank block: one suffix shift for the run, not one per node.
                stop = _graft_run_end(entries, position)
                block = entries[position:stop]
                for _ in block:
                    fire("index.patch")
                base = payload[0]
                size = len(block)
                rank = last[base] + 1
                for moved in order[rank:]:
                    pre[moved] += size
                    last[moved] += size
                walk = base
                while walk is not None:
                    last[walk] += size
                    walk = parent_of[walk]
                order[rank:rank] = [entry[1] for entry in block]
                for offset, (_op, added, (parent, label)) in enumerate(block):
                    pre[added] = last[added] = rank + offset
                    depth[added] = depth[parent] + 1
                    parent_of[added] = parent
                    label_of[added] = label
                    lst = posting(label)
                    lst.insert(rank_position(lst, rank + offset), added)
                    children_by_label.pop(parent, None)
                # Close the new intervals bottom-up (reverse preorder).
                for _op, added, (parent, _label) in reversed(block):
                    if parent != base and last[parent] < last[added]:
                        last[parent] = last[added]
                position = stop
                continue
            fire("index.patch")
            position += 1
            if op == "set_label":
                old, new = payload
                if old == new:
                    continue
                lst = posting(old)
                lst.pop(rank_position(lst, pre[node]))
                lst = posting(new)
                lst.insert(rank_position(lst, pre[node]), node)
                label_of[node] = new
                children_by_label.pop(parent_of[node], None)
            else:  # delete_subtree
                parent = payload[0]
                lo, hi = pre[node], last[node]
                size = hi - lo + 1
                removed = order[lo : hi + 1]
                by_removed_label: Dict[str, set] = {}
                for dead in removed:
                    by_removed_label.setdefault(label_of[dead], set()).add(dead)
                for label, dead_set in by_removed_label.items():
                    lst = posting(label)
                    lst[:] = [n for n in lst if n not in dead_set]
                for moved in order[hi + 1 :]:
                    pre[moved] -= size
                    last[moved] -= size
                walk = parent
                while walk is not None:
                    last[walk] -= size
                    walk = parent_of[walk]
                del order[lo : hi + 1]
                for dead in removed:
                    del pre[dead]
                    del last[dead]
                    del depth[dead]
                    del parent_of[dead]
                    del label_of[dead]
                    children_by_label.pop(dead, None)
                children_by_label.pop(parent, None)

        self._order = tuple(order)
        for label in unfrozen:
            lst = postings[label]
            if lst:
                postings[label] = tuple(lst)
            else:
                del postings[label]
        # Ranks shifted wholesale: drop the lazy per-label rank lists (they
        # are rebuilt on demand from the patched postings).
        self._pres_by_label = {}
        self._version = tree.version
        return True

    def structural_state(self) -> Dict[str, object]:
        """Canonical snapshot of every eager internal structure.

        Two indexes over the same tree are interchangeable iff their
        structural states are equal; the incremental-maintenance differential
        harness compares a patched index against a fresh rebuild with this.
        """
        return {
            "pre": dict(self._pre),
            "last": dict(self._last),
            "depth": dict(self._depth),
            "order": tuple(self._order),
            "parent": dict(self._parent_of),
            "labels": dict(self._label_of),
            "postings": {label: tuple(nodes) for label, nodes in self._by_label.items()},
        }

    # -- structural predicates ---------------------------------------------

    def preorder(self, node: NodeId) -> int:
        """Preorder rank of *node* (root is 0)."""
        return self._pre[node]

    def subtree_interval(self, node: NodeId) -> Tuple[int, int]:
        """``(lo, hi)`` preorder ranks: the subtree of *node* is exactly
        the nodes with rank in ``[lo, hi]`` (strict descendants: ``(lo, hi]``)."""
        return self._pre[node], self._last[node]

    def is_ancestor(self, ancestor: NodeId, node: NodeId, strict: bool = True) -> bool:
        """O(1) ancestor test via interval containment."""
        lo = self._pre[ancestor]
        rank = self._pre[node]
        if strict and rank == lo:
            return False
        return lo <= rank <= self._last[ancestor]

    def depth(self, node: NodeId) -> int:
        """Cached depth (edges to the root)."""
        return self._depth[node]

    def subtree_size(self, node: NodeId) -> int:
        """Number of nodes in the subtree of *node* (itself included)."""
        return self._last[node] - self._pre[node] + 1

    def preorder_map(self) -> Dict[NodeId, int]:
        """The node → preorder rank map (treat as read-only; hot loops only)."""
        return self._pre

    def subtree_last_map(self) -> Dict[NodeId, int]:
        """The node → last-subtree-rank map (treat as read-only; hot loops only)."""
        return self._last

    # -- label access ------------------------------------------------------

    def nodes_in_preorder(self) -> Tuple[NodeId, ...]:
        """All node identifiers, in preorder."""
        return self._order

    def nodes_with_label(self, label: str) -> Tuple[NodeId, ...]:
        """Nodes carrying *label*, in preorder (O(1) lookup)."""
        return self._by_label.get(label, ())

    def labels(self) -> Tuple[str, ...]:
        """The distinct labels occurring in the tree."""
        return tuple(self._by_label)

    def descendants_with_label(self, node: NodeId, label: str) -> List[NodeId]:
        """Strict descendants of *node* carrying *label*, in preorder.

        Resolved as a binary search over the label's preorder-sorted posting
        list restricted to the node's subtree interval — O(log n + answers).
        """
        nodes = self._by_label.get(label)
        if not nodes:
            return []
        pres = self._pres_by_label.get(label)
        if pres is None:
            pre = self._pre
            pres = [pre[n] for n in nodes]
            self._pres_by_label[label] = pres
        lo, hi = self._pre[node], self._last[node]
        start = bisect_right(pres, lo)
        stop = bisect_right(pres, hi)
        return list(nodes[start:stop])

    def children_with_label(self, node: NodeId, label: str) -> Tuple[NodeId, ...]:
        """Children of *node* carrying *label* (cached per node)."""
        cached = self._children_by_label.get(node)
        if cached is None:
            cached = {}
            for child in self._tree.children(node):
                child_label = self._tree.label(child)
                cached.setdefault(child_label, []).append(child)
            cached = {lbl: tuple(children) for lbl, children in cached.items()}
            self._children_by_label[node] = cached
        return cached.get(label, ())

    def __repr__(self) -> str:
        return (
            f"TreeIndex(nodes={len(self._order)}, labels={len(self._by_label)}, "
            f"version={self._version}, fresh={self.is_fresh()})"
        )


def _graft_run_end(entries, start: int) -> int:
    """End (exclusive) of the contiguous-graft run of ``add_child`` entries at *start*.

    Sequential replay appends each node as the last child of its parent,
    at the rank right after the parent's current subtree.  That rank is the
    end of the run so far exactly when the parent lies on the run's
    rightmost path — the first entry's parent, or a node of the run whose
    subtree the run is still inside — so such a run occupies consecutive
    ranks.  The run stops at the first entry breaking that.
    """
    base = entries[start][2][0]
    path = [base]
    depth_on_path = {base: 0}
    stop = start
    while stop < len(entries):
        op, node, payload = entries[stop]
        if op != "add_child":
            break
        level = depth_on_path.get(payload[0])
        if level is None:
            break
        for closed in path[level + 1 :]:
            del depth_on_path[closed]
        del path[level + 1 :]
        depth_on_path[node] = len(path)
        path.append(node)
        stop += 1
    return stop


def tree_index(tree: DataTree) -> TreeIndex:
    """The shared :class:`TreeIndex` of *tree*, patched or rebuilt when stale.

    The snapshot is cached on the tree itself and compared against the
    tree's mutation version on every call, so callers never observe an index
    describing a structure that no longer exists.  A stale snapshot is first
    *patched in place* by replaying the tree's mutation journal
    (:meth:`TreeIndex.patch`) — mixed update/query workloads therefore pay
    O(journal · suffix) instead of a full O(n) rebuild per mutation — and
    rebuilt from scratch only when the journal is gone or longer than
    :data:`PATCH_JOURNAL_LIMIT`.  Batch APIs that evaluate many queries
    against one tree still pay the build exactly once.
    """
    cached = tree._index_cache
    if cached is not None and (cached.is_fresh() or cached.patch()):
        return cached
    index = TreeIndex(tree)
    tree._index_cache = index
    return index


def cached_index(tree: DataTree) -> Optional[TreeIndex]:
    """*tree*'s cached index brought up to date, or ``None`` when it has none.

    Like :func:`tree_index`, but never builds a cold index: for writers
    that keep an index current only where queries already use one.
    """
    if tree._index_cache is None:
        return None
    return tree_index(tree)


__all__ = ["TreeIndex", "cached_index", "tree_index", "PATCH_JOURNAL_LIMIT"]
