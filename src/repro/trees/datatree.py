"""The data tree model (Definition 1 of the paper).

A data tree is an unordered, rooted tree whose nodes carry labels drawn from
an arbitrary countable set (we use Python strings).  The model deliberately
ignores XML ordering, attributes and the text/element distinction, and it has
**multiset semantics**: a root with two identically-labeled children is a
different tree from a root with a single such child.

Nodes are identified by integers allocated by the tree.  Node identity
matters beyond structure because queries return *sub-datatrees* that share
nodes with the queried tree (Definition 5), and updates address nodes through
query matches; all algorithms in this library therefore pass node ids around
rather than paths or labels.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.utils.errors import InvalidTreeError, NodeNotFoundError, TransactionError
from repro.utils.faults import fire

NodeId = int

#: Maximum number of retained mutation-journal entries per tree.  When the
#: cap is exceeded the oldest half is dropped (and the journal base version
#: advances), so consumers holding state older than the new base fall back to
#: a full rebuild / wholesale invalidation instead of an incremental replay.
JOURNAL_LIMIT = 256


class DataTree:
    """An unordered labeled tree with integer node identifiers.

    The root always exists and cannot be deleted.  Child lists are kept in
    insertion order for determinism, but no algorithm in the library gives
    that order any meaning.
    """

    # __weakref__ lets the ExecutionContext answer-set cache key entries by
    # tree object without keeping dead trees alive.
    __slots__ = (
        "_labels",
        "_children",
        "_parent",
        "_root",
        "_next_id",
        "_version",
        "_index_cache",
        "_columnar_cache",
        "_journal",
        "_journal_base",
        "_undo",
        "_snapshot_pins",
        "__weakref__",
    )

    def __init__(self, root_label: str) -> None:
        self._labels: Dict[NodeId, str] = {0: str(root_label)}
        self._children: Dict[NodeId, List[NodeId]] = {0: []}
        self._parent: Dict[NodeId, Optional[NodeId]] = {0: None}
        self._root: NodeId = 0
        self._next_id: NodeId = 1
        self._version: int = 0
        self._index_cache = None  # managed by repro.trees.index.tree_index
        self._columnar_cache = None  # managed by repro.trees.columnar.columnar_tree
        # Mutation journal: entry i describes the mutation taking the tree
        # from version (_journal_base + i) to (_journal_base + i + 1).
        self._journal: List[Tuple[str, NodeId, tuple]] = []
        self._journal_base: int = 0
        # Undo log: None outside transactions; a list of inverse records
        # while a repro.core.transactions.Transaction is open on this tree.
        self._undo = None
        self._snapshot_pins = None  # managed by repro.core.snapshot

    # -- basic accessors ---------------------------------------------------

    @property
    def root(self) -> NodeId:
        """Identifier of the root node."""
        return self._root

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every structural or label change.

        :func:`repro.trees.index.tree_index` compares this against the
        version a :class:`~repro.trees.index.TreeIndex` was built at; a
        stale index is *patched* forward by replaying the mutation journal
        (see :meth:`mutations_since`) and rebuilt only when the journal is
        unavailable or replaying would cost more than a rebuild.
        """
        return self._version

    def mutations_since(self, version: int) -> Optional[List[Tuple[str, NodeId, tuple]]]:
        """The journal entries taking the tree from *version* to the present.

        Each entry is ``(op, node, payload)``:

        * ``("add_child", node, (parent, label))`` — *node* was appended as
          the last child of *parent*, labeled *label*;
        * ``("set_label", node, (old_label, new_label))`` — *node* was
          relabeled;
        * ``("delete_subtree", node, (parent, removed_labels))`` — the whole
          subtree of *node* (a child of *parent*) was removed;
          ``removed_labels`` is the frozen set of labels it carried.

        ``add_subtree`` grafts appear as one ``add_child`` entry per copied
        node.  Returns ``None`` when *version* predates the retained journal
        (entries are capped at :data:`JOURNAL_LIMIT`) — consumers must then
        fall back to a full rebuild / wholesale invalidation.  The returned
        list slice must be treated as read-only.
        """
        if version < self._journal_base or version > self._version:
            return None
        return self._journal[version - self._journal_base :]

    def mutation_touch_since(
        self, version: int
    ) -> Optional[Tuple[FrozenSet[str], FrozenSet[NodeId]]]:
        """``(touched_labels, relabeled_nodes)`` for every mutation since *version*.

        The single source of truth for what a journal suffix can have
        affected: an added node touches its label, a relabel touches the old
        and new labels (and records the node, so caches holding that node
        can retire), a subtree deletion touches every removed label.
        No-op relabels (old == new) touch nothing.  Returns ``None`` when
        the journal no longer reaches back to *version*.
        """
        entries = self.mutations_since(version)
        if entries is None:
            return None
        labels: Set[str] = set()
        relabeled: Set[NodeId] = set()
        for op, node, payload in entries:
            if op == "add_child":
                labels.add(payload[1])
            elif op == "set_label":
                old, new = payload
                if old != new:
                    labels.add(old)
                    labels.add(new)
                    relabeled.add(node)
            else:  # delete_subtree
                labels.update(payload[1])
        return frozenset(labels), frozenset(relabeled)

    def labels_mutated_since(self, version: int) -> Optional[FrozenSet[str]]:
        """The labels touched by every mutation since *version* (or ``None``)."""
        touch = self.mutation_touch_since(version)
        return None if touch is None else touch[0]

    @property
    def root_label(self) -> str:
        return self._labels[self._root]

    def label(self, node: NodeId) -> str:
        """Label of *node*."""
        self._require(node)
        return self._labels[node]

    def set_label(self, node: NodeId, label: str) -> None:
        """Relabel *node*.

        Validation and label coercion happen before any state changes, and
        the journal/version record is written only after the mutation landed,
        so a raising ``str(label)`` leaves the tree (and its journal)
        untouched.
        """
        self._require(node)
        old = self._labels[node]
        new = str(label)
        self._notify_write()
        undo = self._undo
        if undo is not None:
            undo.append(("label", node, old))
        self._labels[node] = new
        fire("datatree.set_label")
        self._record("set_label", node, (old, new))

    def children(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Identifiers of the children of *node* (order is not meaningful)."""
        self._require(node)
        return tuple(self._children[node])

    def parent(self, node: NodeId) -> Optional[NodeId]:
        """Identifier of the parent of *node*, or ``None`` for the root."""
        self._require(node)
        return self._parent[node]

    def has_node(self, node: NodeId) -> bool:
        return node in self._labels

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node identifiers in preorder (root first)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def node_count(self) -> int:
        """Number of nodes, the size ``|t|`` used throughout the paper."""
        return len(self._labels)

    def __len__(self) -> int:
        return self.node_count()

    def __contains__(self, node: object) -> bool:
        return node in self._labels

    # -- navigation --------------------------------------------------------

    def descendants(self, node: NodeId, include_self: bool = False) -> Iterator[NodeId]:
        """Iterate over (strict by default) descendants of *node* in preorder."""
        self._require(node)
        stack = list(self._children[node]) if not include_self else [node]
        if include_self:
            while stack:
                current = stack.pop()
                yield current
                stack.extend(reversed(self._children[current]))
            return
        stack = list(reversed(self._children[node]))
        while stack:
            current = stack.pop()
            yield current
            stack.extend(reversed(self._children[current]))

    def ancestors(self, node: NodeId, include_self: bool = False) -> Iterator[NodeId]:
        """Iterate over ancestors of *node*, closest first (root last)."""
        self._require(node)
        current = node if include_self else self._parent[node]
        while current is not None:
            yield current
            current = self._parent[current]

    def depth(self, node: NodeId) -> int:
        """Number of edges between *node* and the root."""
        return sum(1 for _ in self.ancestors(node))

    def height(self) -> int:
        """Longest root-to-leaf path length (in edges)."""
        best = 0
        for node in self.nodes():
            if not self._children[node]:
                best = max(best, self.depth(node))
        return best

    def leaves(self) -> Iterator[NodeId]:
        """Iterate over leaf node identifiers."""
        for node in self.nodes():
            if not self._children[node]:
                yield node

    def nodes_with_label(self, label: str) -> Iterator[NodeId]:
        """Iterate over the nodes carrying *label*."""
        for node in self.nodes():
            if self._labels[node] == label:
                yield node

    def children_with_label(self, node: NodeId, label: str) -> Tuple[NodeId, ...]:
        """Children of *node* carrying *label* (used by DTD validation)."""
        return tuple(c for c in self.children(node) if self._labels[c] == label)

    # -- construction ------------------------------------------------------

    def add_child(self, parent: NodeId, label: str) -> NodeId:
        """Create a new node labeled *label* under *parent*; return its id.

        Label coercion happens before the id counter moves or any map is
        touched, and the journal/version record is written last — a raising
        ``str(label)`` leaves the tree byte-identical, and a fault between
        the node maps and the parent link can never produce a journal entry
        for a mutation that did not fully land.
        """
        self._require(parent)
        coerced = str(label)
        self._notify_write()
        node = self._next_id
        undo = self._undo
        if undo is not None:
            undo.append(("next_id", node))
            undo.append(("children", parent, list(self._children[parent])))
            undo.append(("forget_node", node))
        self._next_id = node + 1
        self._labels[node] = coerced
        self._children[node] = []
        self._parent[node] = parent
        fire("datatree.add_child")
        self._children[parent].append(node)
        self._record("add_child", node, (parent, coerced))
        return node

    def add_subtree(self, parent: NodeId, subtree: "DataTree") -> Dict[NodeId, NodeId]:
        """Graft a deep copy of *subtree* under *parent*.

        Returns the mapping from node ids of *subtree* to the freshly
        allocated ids in this tree (the subtree's root included).
        """
        self._require(parent)
        mapping: Dict[NodeId, NodeId] = {}
        order = list(subtree.nodes())
        for source in order:
            source_parent = subtree.parent(source)
            target_parent = parent if source_parent is None else mapping[source_parent]
            mapping[source] = self.add_child(target_parent, subtree.label(source))
        return mapping

    def add_subtree_bulk(
        self, parent: NodeId, nodes: Sequence[Tuple[int, str]]
    ) -> List[NodeId]:
        """Append a whole batch of nodes under *parent* in one pass.

        *nodes* is a flat preorder spec: entry ``i`` is ``(slot, label)``
        where ``slot`` is ``-1`` to attach under *parent* or the index of an
        **earlier** batch entry to attach under that new node.  Returns the
        freshly allocated identifiers, one per entry, in batch order.

        The bulk-ingest fast path behind streaming ``insert`` batches and
        :func:`repro.xmlio.parse.datatree_from_xml`: observationally
        identical to calling :meth:`add_child` per entry (same identifiers,
        same per-node ``add_child`` journal entries, same version
        arithmetic — so journal consumers like
        :meth:`~repro.trees.columnar.ColumnarTree.patch` cannot tell the
        difference), but validation, undo bookkeeping and the fault site are
        paid once per batch instead of once per node.
        """
        self._require(parent)
        spec: List[Tuple[int, str]] = []
        for position, (slot, label) in enumerate(nodes):
            slot = int(slot)
            if not -1 <= slot < position:
                raise InvalidTreeError(
                    f"bulk entry {position} references slot {slot}; slots "
                    f"must be -1 (the batch parent) or an earlier entry"
                )
            spec.append((slot, str(label)))
        if not spec:
            return []
        self._notify_write()
        base = self._next_id
        undo = self._undo
        if undo is not None:
            undo.append(("next_id", base))
            undo.append(("children", parent, list(self._children[parent])))
            for position in range(len(spec)):
                undo.append(("forget_node", base + position))
        fire("datatree.add_subtree_bulk")
        labels, children, parents = self._labels, self._children, self._parent
        journal = self._journal
        self._next_id = base + len(spec)
        for position, (slot, label) in enumerate(spec):
            node = base + position
            target = parent if slot < 0 else base + slot
            labels[node] = label
            children[node] = []
            parents[node] = target
            children[target].append(node)
            journal.append(("add_child", node, (target, label)))
        self._version += len(spec)
        if self._undo is None:
            self._trim_journal()
        return [base + position for position in range(len(spec))]

    def delete_subtree(self, node: NodeId) -> Set[NodeId]:
        """Remove *node* and all its descendants; return the removed ids.

        The root cannot be deleted (a data tree always has a root).
        """
        self._require(node)
        if node == self._root:
            raise InvalidTreeError("the root of a data tree cannot be deleted")
        removed = {node} | set(self.descendants(node))
        parent = self._parent[node]
        assert parent is not None
        removed_labels = frozenset(self._labels[r] for r in removed)
        self._notify_write()
        undo = self._undo
        if undo is not None:
            undo.append(("children", parent, list(self._children[parent])))
            undo.append(
                (
                    "restore_nodes",
                    {r: self._labels[r] for r in removed},
                    {r: list(self._children[r]) for r in removed},
                    {r: self._parent[r] for r in removed},
                )
            )
        self._children[parent].remove(node)
        fire("datatree.delete_subtree")
        for removed_node in removed:
            del self._labels[removed_node]
            del self._children[removed_node]
            del self._parent[removed_node]
        self._record("delete_subtree", node, (parent, removed_labels))
        return removed

    # -- copies and restrictions -------------------------------------------

    def copy(self) -> "DataTree":
        """Deep copy preserving node identifiers."""
        clone = DataTree.__new__(DataTree)
        clone._labels = dict(self._labels)
        clone._children = {node: list(children) for node, children in self._children.items()}
        clone._parent = dict(self._parent)
        clone._root = self._root
        clone._next_id = self._next_id
        clone._version = 0
        clone._index_cache = None
        clone._columnar_cache = None
        clone._journal = []
        clone._journal_base = 0
        clone._undo = None
        clone._snapshot_pins = None
        return clone

    def subtree_copy(self, node: NodeId) -> "DataTree":
        """A new tree whose root is a copy of *node* and its descendants.

        Node identifiers are re-allocated starting from 0 in the new tree.
        """
        self._require(node)
        result = DataTree(self._labels[node])
        mapping = {node: result.root}
        for current in self.descendants(node):
            parent = self._parent[current]
            assert parent is not None
            mapping[current] = result.add_child(mapping[parent], self._labels[current])
        return result

    def is_ancestor_closed(self, nodes: Iterable[NodeId]) -> bool:
        """Whether *nodes* is closed under taking parents (and contains the root if non-empty)."""
        node_set = set(nodes)
        for node in node_set:
            self._require(node)
            parent = self._parent[node]
            if parent is not None and parent not in node_set:
                return False
        return True

    def ancestor_closure(self, nodes: Iterable[NodeId]) -> FrozenSet[NodeId]:
        """Smallest ancestor-closed superset of *nodes* (always contains the root)."""
        closure: Set[NodeId] = {self._root}
        for node in nodes:
            self._require(node)
            closure.add(node)
            closure.update(self.ancestors(node))
        return frozenset(closure)

    def restrict(self, nodes: Iterable[NodeId]) -> "DataTree":
        """The sub-datatree induced by an ancestor-closed node set.

        This realizes Definition 5: the result shares node identifiers with
        this tree, keeps only edges between retained nodes, has the same root
        and the restriction of the labeling.  Raises if the set is not
        ancestor-closed or does not contain the root.
        """
        node_set = set(nodes)
        if self._root not in node_set:
            raise InvalidTreeError("a sub-datatree must contain the root")
        if not self.is_ancestor_closed(node_set):
            raise InvalidTreeError("node set is not closed under parents")
        clone = DataTree.__new__(DataTree)
        clone._labels = {n: self._labels[n] for n in node_set}
        clone._children = {
            n: [c for c in self._children[n] if c in node_set] for n in node_set
        }
        clone._parent = {n: self._parent[n] for n in node_set}
        clone._root = self._root
        clone._next_id = self._next_id
        clone._version = 0
        clone._index_cache = None
        clone._columnar_cache = None
        clone._journal = []
        clone._journal_base = 0
        clone._undo = None
        clone._snapshot_pins = None
        return clone

    def prune_where(self, should_remove) -> "DataTree":
        """Copy of the tree with every node satisfying *should_remove* pruned.

        Pruning a node removes its whole subtree (as in Definition 4 where
        nodes with false conditions disappear together with their
        descendants).  The root is never pruned.  ``should_remove`` is a
        callable taking a node id.
        """
        kept: Set[NodeId] = {self._root}
        stack = [c for c in self._children[self._root] if not should_remove(c)]
        while stack:
            node = stack.pop()
            kept.add(node)
            stack.extend(c for c in self._children[node] if not should_remove(c))
        return self.restrict(kept)

    # -- conversions -------------------------------------------------------

    def to_nested(self, node: Optional[NodeId] = None) -> tuple:
        """Nested-tuple view ``(label, [child, ...])`` rooted at *node*.

        Children are sorted by their own nested representation so the output
        is canonical enough for debugging (but use
        :func:`repro.trees.isomorphism.canonical_encoding` for real
        comparisons).
        """
        if node is None:
            node = self._root
        self._require(node)
        children = sorted(self.to_nested(child) for child in self._children[node])
        return (self._labels[node], children)

    @staticmethod
    def from_nested(nested: Sequence) -> "DataTree":
        """Inverse of :meth:`to_nested` (also accepts a bare label string)."""
        if isinstance(nested, str):
            return DataTree(nested)
        label, children = nested
        result = DataTree(label)
        DataTree._attach_nested(result, result.root, children)
        return result

    @staticmethod
    def _attach_nested(result: "DataTree", parent: NodeId, children: Sequence) -> None:
        for child in children:
            if isinstance(child, str):
                result.add_child(parent, child)
                continue
            label, grandchildren = child
            node = result.add_child(parent, label)
            DataTree._attach_nested(result, node, grandchildren)

    # -- equality (identity of ids + labels + structure) ---------------------

    def same_tree(self, other: "DataTree") -> bool:
        """Exact equality: same node ids, labels and parent relation.

        This is *not* isomorphism; see :mod:`repro.trees.isomorphism` for the
        structural notion of Definition 1.
        """
        return (
            self._root == other._root
            and self._labels == other._labels
            and self._parent == other._parent
            and {n: set(c) for n, c in self._children.items()}
            == {n: set(c) for n, c in other._children.items()}
        )

    def __repr__(self) -> str:
        return f"DataTree({self.to_nested()!r})"

    # -- internal ----------------------------------------------------------

    def _require(self, node: NodeId) -> None:
        if node not in self._labels:
            raise NodeNotFoundError(f"node {node!r} does not belong to this tree")

    def _record(self, op: str, node: NodeId, payload: tuple) -> None:
        """Journal one mutation and bump the version.

        The cached :class:`~repro.trees.index.TreeIndex` is deliberately NOT
        dropped here: it stays attached (stale) so :func:`tree_index` can
        patch it forward by replaying the journal instead of rebuilding.
        """
        journal = self._journal
        journal.append((op, node, payload))
        if self._undo is None:
            # Trimming is deferred while a transaction is open so rollback
            # can truncate the journal back to its begin-mark without the
            # base version having moved underneath it.
            self._trim_journal()
        self._version += 1

    def _trim_journal(self) -> None:
        journal = self._journal
        if len(journal) > JOURNAL_LIMIT:
            drop = len(journal) - JOURNAL_LIMIT // 2
            del journal[:drop]
            self._journal_base += drop

    def _notify_write(self) -> None:
        """Give pinned snapshots their copy-on-write chance before mutating."""
        pins = self._snapshot_pins
        if pins is not None:
            pins.before_write()

    # -- transactions (undo log) -------------------------------------------
    #
    # Driven by repro.core.transactions.Transaction.  While ``_undo`` is a
    # list, every mutator pushes idempotent inverse records *before* touching
    # the structure it describes, so replaying the log in reverse restores
    # the maps byte for byte no matter where inside a mutator an exception
    # struck.

    def begin_undo(self) -> tuple:
        """Open an undo scope; returns the opaque rollback mark."""
        if self._undo is not None:
            raise TransactionError("this tree is already inside a transaction")
        self._undo = []
        return (self._version, len(self._journal), self._journal_base, self._next_id)

    def commit_undo(self) -> None:
        """Close the undo scope, keeping every mutation made inside it."""
        self._undo = None
        self._trim_journal()

    def rollback_undo(self, mark: tuple) -> None:
        """Close the undo scope, restoring the state captured by *mark*."""
        version, journal_length, journal_base, next_id = mark
        entries = self._undo
        self._undo = None
        if entries:
            for entry in reversed(entries):
                self._apply_undo(entry)
        assert self._journal_base == journal_base  # trim is deferred in-txn
        del self._journal[journal_length:]
        self._version = version
        self._next_id = next_id
        cached = self._index_cache
        if cached is not None and cached.version > self._version:
            # The index was patched past the restored version; the journal
            # entries anchoring it were rolled back, so drop it.  (An index
            # merely stale from before the transaction is still patchable
            # and stays; a mid-patch-poisoned one rebuilds on next access.)
            self._index_cache = None
        column = self._columnar_cache
        if column is not None and column.version > self._version:
            # Same hazard for the columnar snapshot: the version counter
            # rewinds, so a column stamped with a rolled-back version could
            # later collide with a *different* tree at the same number.
            self._columnar_cache = None

    def _apply_undo(self, entry: tuple) -> None:
        kind = entry[0]
        if kind == "children":
            self._children[entry[1]] = entry[2]
        elif kind == "forget_node":
            node = entry[1]
            self._labels.pop(node, None)
            self._children.pop(node, None)
            self._parent.pop(node, None)
        elif kind == "label":
            self._labels[entry[1]] = entry[2]
        elif kind == "next_id":
            self._next_id = entry[1]
        else:  # restore_nodes
            _, labels, children, parents = entry
            self._labels.update(labels)
            for node, child_list in children.items():
                self._children[node] = list(child_list)
            self._parent.update(parents)


__all__ = ["DataTree", "NodeId", "JOURNAL_LIMIT"]
