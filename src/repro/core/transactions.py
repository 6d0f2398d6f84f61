"""All-or-nothing mutation scopes over prob-trees.

``with transaction(probtree):`` opens an undo log on the prob-tree *and* its
underlying data tree.  On normal exit every mutation made inside the scope
commits (and the deferred journal trim runs); on exception the logs replay in
reverse and the exception propagates, leaving tree structure, labels,
conditions, distribution, mutation journal, ``version``/``state_version``
counters and the ``next_id`` allocator **byte-identical** to the begin mark —
no externally visible effect, as if the scope never ran.

This is the commit discipline of the update pipeline
(:func:`~repro.updates.probtree_updates.apply_update_in_place` wraps the
mutation phase of every operation in one, on the live prob-tree or on the
functional path's copy), but it is equally usable for hand-rolled in-place
edits::

    with transaction(probtree):
        node = probtree.add_child(parent, "reading", condition)
        probtree.tree.set_label(other, "checked")
        # any exception here rolls both mutations back

Scopes do not nest (``TransactionError``), and a transaction serializes with
nothing: it is a single-writer construct.  Concurrent readers are safe only
through pinned snapshots (:mod:`repro.core.snapshot`) — the undo log itself
is not a lock.
"""

from __future__ import annotations

from typing import Optional

from repro.core.probtree import ProbTree


class Transaction:
    """The open scope produced by :func:`transaction`; use as context manager."""

    __slots__ = ("probtree", "_context", "_tree_mark", "_state_mark", "_distribution")

    def __init__(self, probtree: ProbTree, context=None) -> None:
        self.probtree = probtree
        self._context = context
        self._tree_mark: Optional[tuple] = None
        self._state_mark: Optional[int] = None
        self._distribution = None

    def __enter__(self) -> "Transaction":
        probtree = self.probtree
        # Begin on the tree first: if the prob-tree is already in a scope,
        # its begin_undo raises before the tree log was opened... and vice
        # versa; roll the first begin back on a failed second.
        tree_mark = probtree.tree.begin_undo()
        try:
            self._state_mark = probtree.begin_undo()
        except BaseException:
            probtree.tree.rollback_undo(tree_mark)
            raise
        self._tree_mark = tree_mark
        self._distribution = probtree.distribution
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        probtree = self.probtree
        if exc_type is None:
            probtree.commit_undo()
            probtree.tree.commit_undo()
            return False
        probtree.rollback_undo(self._state_mark)
        probtree.tree.rollback_undo(self._tree_mark)
        # Belt and braces: the distribution is also restored by the undo
        # records, but the reference equality check below costs nothing and
        # survives even an empty undo log.
        probtree._distribution = self._distribution
        if self._context is not None:
            self._context.stats.rollbacks += 1
        return False  # propagate the exception


def transaction(probtree: ProbTree, context=None) -> Transaction:
    """An all-or-nothing mutation scope on *probtree* (see module docstring).

    *context* (an :class:`~repro.core.context.ExecutionContext`) is optional;
    when given, rollbacks are counted in its ``ContextStats.rollbacks``.
    """
    return Transaction(probtree, context=context)


__all__ = ["Transaction", "transaction"]
