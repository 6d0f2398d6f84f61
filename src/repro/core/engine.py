"""A multi-document warehouse facade over the prob-tree machinery.

The paper's motivating system is an XML warehouse that analysis tools feed
through imprecise updates and query through a standard processor.
:class:`ProbXMLWarehouse` packages that workflow for a *corpus* of uncertain
documents: it owns named prob-trees, accepts path or tree-pattern queries
(per document or corpus-wide), applies probabilistic insertions and
deletions, and exposes the maintenance operations studied in the paper
(cleaning, threshold pruning, DTD checks, possible-world inspection).

All heavy lifting is delegated to the dedicated modules; what the facade
adds is a shared :class:`~repro.core.context.ExecutionContext` — one set of
Shannon tables, structural indexes and answer-set caches, plus the engine /
matcher policy — applied uniformly across every document and every call.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple, Union

from repro.core.cleaning import clean
from repro.core.context import ExecutionContext, resolve_context
from repro.core.probtree import ProbTree
from repro.core.semantics import possible_worlds
from repro.core.snapshot import exclusive_write
from repro.dtd.dtd import DTD
from repro.dtd.probtree_dtd import (
    dtd_satisfaction_probability,
    dtd_satisfiable,
    dtd_valid,
)
from repro.pw.pwset import PWSet
from repro.queries.base import Query, QueryNodeId
from repro.formulas.sampling import PricingPolicy, SampleEstimate
from repro.queries.evaluation import (
    QueryAnswer,
    boolean_probability,
    boolean_probability_anytime,
    evaluate_many,
    evaluate_on_probtree,
    top_answers,
)
from repro.queries.path import parse_path
from repro.threshold.threshold import most_probable_worlds, threshold_probtree
from repro.trees.datatree import DataTree
from repro.trees.index import cached_index, tree_index
from repro.updates.operations import Deletion, Insertion, ProbabilisticUpdate
from repro.updates.probtree_updates import (
    apply_update_in_place,
    apply_update_to_probtree,
)
from repro.utils.errors import ProbXMLError, QueryError

QuerySpec = Union[str, Query]

#: Name given to the document of single-document construction.
DEFAULT_DOCUMENT = "default"

#: Concurrency disciplines a warehouse understands (``isolation=``):
#: ``"snapshot"`` — readers pin an immutable version and proceed while a
#: writer commits; ``"lock"`` — one global lock serializes everything (the
#: differential oracle the concurrency harness compares against).
ISOLATION_MODES = ("snapshot", "lock")

# First element tag of the markup; declarations (<?xml …?>) and comments
# (<!-- …) never match the name char class, so the search skips past them.
_XML_ROOT_TAG = re.compile(r"<\s*([A-Za-z_][\w.-]*)")


def _coerce_document(document: Union[str, DataTree, ProbTree]) -> ProbTree:
    """Turn any accepted document form into a prob-tree.

    Strings that look like XML markup (``lstrip().startswith("<")``) are
    parsed — ``<probtree>`` documents through
    :func:`repro.xmlio.parse.probtree_from_xml`, any other element through
    :func:`repro.xmlio.parse.datatree_from_xml` — instead of silently
    becoming a one-node tree with the markup as its root label.  A plain
    string is still a one-node certain document.  XML lands through
    :meth:`~repro.trees.datatree.DataTree.add_subtree_bulk`, so warehouse
    ingest batches pay one flat preorder pass per document rather than a
    Python call per node.
    """
    if isinstance(document, ProbTree):
        return document
    if isinstance(document, DataTree):
        return ProbTree.certain(document)
    text = str(document)
    stripped = text.lstrip()
    if stripped.startswith("<"):
        # Imported lazily: repro.xmlio imports ProbTree, not this module,
        # but keeping the parser out of the hot import path is free.
        import xml.etree.ElementTree as ET

        from repro.utils.errors import InvalidTreeError
        from repro.xmlio.parse import datatree_from_xml, probtree_from_xml

        tag = _XML_ROOT_TAG.search(stripped)
        try:
            # Parse the stripped text: whitespace before an <?xml?>
            # declaration is not well-formed XML, but clearly means the
            # same document.
            if tag is not None and tag.group(1) == "probtree":
                return probtree_from_xml(stripped)
            return ProbTree.certain(datatree_from_xml(stripped))
        except ET.ParseError as error:
            raise InvalidTreeError(
                f"document string starts with '<' but is not well-formed XML "
                f"({error}); pass a plain label (no leading '<') for a "
                f"one-node document"
            ) from error
    return ProbTree.certain(DataTree(text))


class ProbXMLWarehouse:
    """An XML warehouse holding a corpus of uncertain documents as prob-trees.

    **Documents.**  The warehouse maps names to prob-trees:
    :meth:`add_document` / :meth:`drop` / :meth:`names` manage the corpus,
    and every query/update/maintenance method takes an optional ``name=``
    (omitted, it resolves to the ``"default"`` document, or to the only
    document when exactly one is held — so single-document construction
    ``ProbXMLWarehouse("catalog")`` and all its call sites keep working
    unchanged).  Corpus-wide reads (:meth:`query_all`,
    :meth:`probability_all`) fan one query out across every document while
    sharing one execution context.

    **Execution context.**  All probability and matching work runs under a
    session-scoped :class:`~repro.core.context.ExecutionContext` owning the
    mode policy and the caches (per-probtree Shannon tables, structural
    indexes, the answer-set cache).  Construction accepts either a ready
    ``context=`` or the legacy string kwargs:

    * ``engine`` — ``"formula"`` (default) compiles each question into an
      event formula evaluated by Shannon expansion with a shared
      per-document cache (budgeted when ``pricing=`` sets
      ``max_expansions``: a typed
      :class:`~repro.utils.errors.BudgetExceededError` replaces the
      unbounded worst-case blowup); ``"enumerate"`` materializes possible
      worlds (the paper's reference semantics, exponential in the number of
      used events); ``"sample"`` estimates scalar probabilities by seeded
      anytime Monte-Carlo (see :meth:`probability_anytime` for the
      confidence interval); ``"auto-sample"`` tries budgeted-exact first
      and degrades to sampling on a tripped budget;
    * ``matcher`` — ``"indexed"`` (default) compiles patterns into
      bottom-up plans over the document's shared structural index;
      ``"columnar"`` runs the same plans as vectorized interval merges over
      the document's flat :class:`~repro.trees.columnar.ColumnarTree`
      snapshot; ``"naive"`` is the direct backtracking oracle; ``"auto"``
      picks per pattern via the context's cost model.

    Per-call overrides follow the library-wide precedence: explicit string
    kwargs > per-call ``context=`` > the warehouse's own context.

    **Isolation.**  ``isolation="snapshot"`` (default) gives readers MVCC
    snapshot isolation: every read pins the document's current
    ``(tree.version, state_version)`` through the context's snapshot layer
    and evaluates against that version, so in-flight queries on other
    threads finish on a consistent document while a writer commits —
    writers are serialized among themselves.  Every read observes some
    *committed* version.  Updates rewrite the live document in place, in
    O(Δ), whenever no reader holds a pin on it; a read that arrives during
    such a write waits for that one write to commit or roll back.  While a
    reader *is* pinned, the writer instead copies the document, rewrites
    the copy and swaps it in, so pinned readers never wait and the O(n)
    copy is paid only under concurrent reads.  The pins decide; there is
    no option.  ``isolation="lock"`` is the global-lock oracle: one
    reentrant lock serializes every read and write, and updates always
    rewrite in place; the threaded differential harness asserts snapshot
    mode is read-equivalent to it, version by version.
    :meth:`read_snapshot` hands out long-lived pins for multi-query
    consistency.
    """

    def __init__(
        self,
        document: Union[str, DataTree, ProbTree, None] = None,
        engine: Optional[str] = None,
        matcher: Optional[str] = None,
        context: Optional[ExecutionContext] = None,
        name: str = DEFAULT_DOCUMENT,
        max_cached_answers: Optional[int] = None,
        pricing: Optional[PricingPolicy] = None,
        isolation: str = "snapshot",
    ) -> None:
        if isolation not in ISOLATION_MODES:
            raise ProbXMLError(
                f"unknown isolation {isolation!r}; expected one of {ISOLATION_MODES}"
            )
        self._isolation = isolation
        # Lock mode: one gate serializes everything.  Snapshot mode: the
        # gate only serializes writers; readers go lock-free through pins.
        self._gate = threading.RLock()
        if context is None:
            self._context = ExecutionContext(
                engine=engine,
                matcher=matcher,
                max_cached_answers=max_cached_answers,
                pricing=pricing,
            )
        else:
            if max_cached_answers is not None or pricing is not None:
                # Unlike engine/matcher there is no per-view override: the
                # LRU bound and the pricing policy live in the shared cache
                # state, so honouring them here would silently reconfigure
                # the caller's session context.
                raise ProbXMLError(
                    "max_cached_answers/pricing cannot be combined with "
                    "context=; set them when building the ExecutionContext"
                )
            self._context = context.with_modes(engine=engine, matcher=matcher)
        self._documents: Dict[str, ProbTree] = {}
        if document is not None:
            self.add_document(name, document)

    # -- corpus management -------------------------------------------------

    def add_document(
        self, name: str, document: Union[str, DataTree, ProbTree], replace: bool = False
    ) -> ProbTree:
        """Register *document* under *name*; returns the stored prob-tree.

        Accepts a prob-tree, a data tree (wrapped as certain), an XML string
        (``<probtree>`` or plain ``<node>`` markup, parsed), or a bare label
        (a one-node certain document).  Prob-trees and data trees are
        stored as given, not copied, and updates rewrite them in place:
        pass a ``.copy()`` to keep the original.  Raises a typed
        :class:`~repro.utils.errors.ProbXMLError` on duplicate names — the
        sharded router relies on name→shard stability, so silent replacement
        is never the default; pass ``replace=True`` (or :meth:`drop` first)
        to overwrite deliberately.
        """
        with self._write():
            if name in self._documents and not replace:
                raise ProbXMLError(
                    f"document {name!r} already exists in the warehouse; drop() it "
                    f"first or pass replace=True"
                )
            probtree = _coerce_document(document)
            self._documents[name] = probtree
            return probtree

    def drop(self, name: str) -> ProbTree:
        """Remove and return the document registered under *name*."""
        with self._write():
            try:
                return self._documents.pop(name)
            except KeyError:
                raise ProbXMLError(
                    f"no document named {name!r} in the warehouse"
                ) from None

    def names(self) -> Tuple[str, ...]:
        """The registered document names, in insertion order."""
        return tuple(self._documents)

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, name: object) -> bool:
        return name in self._documents

    def _resolve_name(self, name: Optional[str]) -> str:
        if name is not None:
            if name not in self._documents:
                raise ProbXMLError(f"no document named {name!r} in the warehouse")
            return name
        if DEFAULT_DOCUMENT in self._documents:
            return DEFAULT_DOCUMENT
        if len(self._documents) == 1:
            return next(iter(self._documents))
        if not self._documents:
            raise ProbXMLError("the warehouse holds no documents")
        raise ProbXMLError(
            f"the warehouse holds {len(self._documents)} documents "
            f"({', '.join(map(repr, self._documents))}); pass name="
        )

    def _ctx(
        self,
        context: Optional[ExecutionContext],
        engine: Optional[str] = None,
        matcher: Optional[str] = None,
    ) -> ExecutionContext:
        """Per-call resolution: string overrides > call context > warehouse default."""
        base = context if context is not None else self._context
        return resolve_context(base, engine=engine, matcher=matcher)

    # -- isolation ---------------------------------------------------------

    @property
    def isolation(self) -> str:
        """The concurrency discipline (``"snapshot"`` or ``"lock"``)."""
        return self._isolation

    @contextmanager
    def _read(self, name: Optional[str]):
        """Yield the prob-tree one read should evaluate against.

        Snapshot mode pins the document's current version (released when the
        read finishes), so a concurrent :meth:`apply` neither blocks this
        read nor changes what it sees.  Lock mode holds the global gate for
        the whole evaluation.
        """
        if self._isolation == "lock":
            with self._gate:
                yield self.get(name)
            return
        handle = self._context.read_snapshot(self.get(name))
        try:
            yield handle.probtree
        finally:
            handle.release()

    @contextmanager
    def _write(self):
        """Serialize one write (with other writers; and with reads in lock mode)."""
        with self._gate:
            yield

    def read_snapshot(self, name: Optional[str] = None):
        """Pin the named document's current version for multi-query reads.

        Returns a :class:`~repro.core.snapshot.Snapshot`; use as a context
        manager and evaluate against ``snap.probtree`` for a view that stays
        consistent across several queries while updates commit underneath::

            with warehouse.read_snapshot() as snap:
                before = evaluate_on_probtree(query, snap.probtree,
                                              context=warehouse.context)

        Retention is bounded by the context's ``snapshot_retention``; see
        :meth:`ExecutionContext.read_snapshot
        <repro.core.context.ExecutionContext.read_snapshot>`.
        """
        return self._context.read_snapshot(self.get(name))

    # -- state -----------------------------------------------------------------

    @property
    def context(self) -> ExecutionContext:
        """The warehouse's execution context (modes, caches, stats)."""
        return self._context

    @context.setter
    def context(self, context: ExecutionContext) -> None:
        if not isinstance(context, ExecutionContext):
            raise TypeError(
                f"expected an ExecutionContext, got {type(context).__name__}"
            )
        self._context = context

    @property
    def stats(self):
        """Live :class:`~repro.core.context.ContextStats` of the context.

        Includes the formula-IR counters: ``intern_hits`` /
        ``intern_misses`` (formula-pool probes that found vs allocated a
        node — a warm corpus shows hits dwarfing misses) and
        ``formulas_migrated`` (memoized prices carried across copy-path
        update/clean prob-tree replacements), and the write-path counters
        ``updates_in_place`` / ``updates_copied`` (which path :meth:`apply`
        took).
        """
        return self._context.stats

    @property
    def probtree(self) -> ProbTree:
        """The current prob-tree of the default (or only) document."""
        return self._documents[self._resolve_name(None)]

    def get(self, name: Optional[str] = None) -> ProbTree:
        """The prob-tree registered under *name* (default resolution applies)."""
        return self._documents[self._resolve_name(name)]

    @property
    def engine(self) -> str:
        """The engine mode (``"formula"`` | ``"enumerate"`` | ``"sample"`` | ``"auto-sample"``)."""
        return self._context.engine

    @engine.setter
    def engine(self, mode: str) -> None:
        self._context = self._context.with_modes(engine=mode)

    @property
    def matcher(self) -> str:
        """The matcher mode (``"indexed"``, ``"naive"``, ``"columnar"`` or ``"auto"``)."""
        return self._context.matcher

    @matcher.setter
    def matcher(self, mode: str) -> None:
        self._context = self._context.with_modes(matcher=mode)

    @property
    def document(self) -> DataTree:
        """The underlying data tree of the default (or only) document."""
        return self.probtree.tree

    def size(self, name: Optional[str] = None) -> int:
        return self.get(name).size()

    def event_count(self, name: Optional[str] = None) -> int:
        return len(self.get(name).distribution)

    # -- queries -----------------------------------------------------------------

    def query(
        self,
        query: QuerySpec,
        name: Optional[str] = None,
        engine: Optional[str] = None,
        matcher: Optional[str] = None,
        context: Optional[ExecutionContext] = None,
    ) -> List[QueryAnswer]:
        """Evaluate a locally monotone query; answers carry probabilities.

        Repeated queries are served from the context's answer cache: treat
        the returned answer trees as read-only (they are shared across
        calls; ``answer.tree.copy()`` before mutating).
        """
        with self._read(name) as probtree:
            return evaluate_on_probtree(
                self._resolve(query),
                probtree,
                context=self._ctx(context, engine, matcher),
            )

    def query_many(
        self,
        queries: List[QuerySpec],
        name: Optional[str] = None,
        engine: Optional[str] = None,
        matcher: Optional[str] = None,
        context: Optional[ExecutionContext] = None,
    ) -> List[List[QueryAnswer]]:
        """Evaluate several queries against one document in one batch.

        The structural index of the document, the probability engine's
        formula cache and the answer-set cache are shared across the whole
        batch (they live on the warehouse context); answers are cache-shared
        and read-only, as in :meth:`query`.
        """
        with self._read(name) as probtree:
            return evaluate_many(
                [self._resolve(query) for query in queries],
                probtree,
                context=self._ctx(context, engine, matcher),
            )

    def query_all(
        self,
        query: QuerySpec,
        engine: Optional[str] = None,
        matcher: Optional[str] = None,
        context: Optional[ExecutionContext] = None,
    ) -> Dict[str, List[QueryAnswer]]:
        """Evaluate one query against every document: ``{name: answers}``.

        All documents share a single execution context, so a query repeated
        across the corpus compiles its pattern bookkeeping once per document
        and reuses each document's caches on subsequent sweeps; answers are
        cache-shared and read-only, as in :meth:`query`.
        """
        ctx = self._ctx(context, engine, matcher)
        resolved = self._resolve(query)
        results: Dict[str, List[QueryAnswer]] = {}
        for name in self.names():
            with self._read(name) as probtree:
                results[name] = evaluate_on_probtree(resolved, probtree, context=ctx)
        return results

    def top_answers(
        self, query: QuerySpec, count: int = 3, name: Optional[str] = None
    ) -> List[QueryAnswer]:
        """The most probable answers of a query (conclusion's ranking usage)."""
        return top_answers(self.query(query, name=name), count)

    def probability(
        self,
        query: QuerySpec,
        name: Optional[str] = None,
        engine: Optional[str] = None,
        matcher: Optional[str] = None,
        context: Optional[ExecutionContext] = None,
    ) -> float:
        """Probability that the query has at least one answer."""
        with self._read(name) as probtree:
            return boolean_probability(
                self._resolve(query),
                probtree,
                context=self._ctx(context, engine, matcher),
            )

    def probability_anytime(
        self,
        query: QuerySpec,
        name: Optional[str] = None,
        engine: Optional[str] = None,
        matcher: Optional[str] = None,
        context: Optional[ExecutionContext] = None,
        epsilon: Optional[float] = None,
        confidence: Optional[float] = None,
        max_samples: Optional[int] = None,
        deadline: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> SampleEstimate:
        """Anytime :meth:`probability` with a confidence interval.

        Returns a :class:`~repro.formulas.sampling.SampleEstimate` whose
        interval tightens until the effective ``epsilon`` (half-width) /
        ``max_samples`` / ``deadline`` budget is hit; per-call knobs
        override the context's pricing policy.  Questions over few events
        (and ``engine="enumerate"``) come back exact and zero-width.
        """
        with self._read(name) as probtree:
            return boolean_probability_anytime(
                self._resolve(query),
                probtree,
                context=self._ctx(context, engine, matcher),
                epsilon=epsilon,
                confidence=confidence,
                max_samples=max_samples,
                deadline=deadline,
                seed=seed,
            )

    def probability_all(
        self,
        query: QuerySpec,
        engine: Optional[str] = None,
        matcher: Optional[str] = None,
        context: Optional[ExecutionContext] = None,
    ) -> Dict[str, float]:
        """Corpus-wide :meth:`probability`: ``{name: probability}``."""
        ctx = self._ctx(context, engine, matcher)
        resolved = self._resolve(query)
        results: Dict[str, float] = {}
        for name in self.names():
            with self._read(name) as probtree:
                results[name] = boolean_probability(resolved, probtree, context=ctx)
        return results

    # -- updates -------------------------------------------------------------------

    def insert(
        self,
        query: QuerySpec,
        subtree: DataTree,
        at: Optional[QueryNodeId] = None,
        confidence: float = 1.0,
        event: Optional[str] = None,
        name: Optional[str] = None,
    ) -> ProbabilisticUpdate:
        """Insert *subtree* under every match of *query*, with a confidence.

        ``at`` selects the pattern node under which to insert; by default the
        last node added to the pattern (for path queries, the final step).
        Returns the applied :class:`ProbabilisticUpdate` for logging.
        """
        resolved = self._resolve(query)
        target = at if at is not None else self._default_focus(resolved)
        update = ProbabilisticUpdate(
            Insertion(resolved, target, subtree), confidence=confidence, event=event
        )
        self.apply(update, name=name)
        return update

    def delete(
        self,
        query: QuerySpec,
        at: Optional[QueryNodeId] = None,
        confidence: float = 1.0,
        event: Optional[str] = None,
        name: Optional[str] = None,
    ) -> ProbabilisticUpdate:
        """Delete every node matched by *query* (at pattern node ``at``)."""
        resolved = self._resolve(query)
        target = at if at is not None else self._default_focus(resolved)
        update = ProbabilisticUpdate(
            Deletion(resolved, target), confidence=confidence, event=event
        )
        self.apply(update, name=name)
        return update

    def apply(self, update: ProbabilisticUpdate, name: Optional[str] = None) -> None:
        """Apply an already-built probabilistic update to one document.

        The update rewrites the document's prob-tree **in place**
        (:func:`~repro.updates.probtree_updates.apply_update_in_place`) inside
        one transaction, at a cost that follows matches × subtree size
        rather than the document size.  The structural index and columnar
        snapshot then patch forward from the mutation journal, the
        probability engine keeps its memo, and cached answers whose label
        fingerprints the update cannot touch stay valid; a failed update
        rolls back with no visible effect.

        In snapshot mode the in-place write happens only while no reader
        holds a pin on the document (:func:`repro.core.snapshot.exclusive_write`);
        when one does, the update goes through the copy path instead
        (:func:`~repro.updates.probtree_updates.apply_update_to_probtree`)
        and the new prob-tree replaces the old one, which the pinned reader
        keeps.  Lock mode always rewrites in place.  ``updates_in_place`` /
        ``updates_copied`` in :attr:`stats` count which path each update
        took.
        """
        with self._write():
            resolved = self._resolve_name(name)
            probtree = self._documents[resolved]
            if self._isolation == "lock":
                apply_update_in_place(probtree, update, context=self._context)
                return
            with exclusive_write(probtree) as claimed:
                if claimed:
                    apply_update_in_place(probtree, update, context=self._context)
                    # Snapshot readers may evaluate outside every lock: patch
                    # the shared index now, while no reader can hold the
                    # document, rather than let two readers patch it at once.
                    cached_index(probtree.tree)
                    return
            updated = apply_update_to_probtree(probtree, update, context=self._context)
            if cached_index(probtree.tree) is not None:
                # Index the copy before readers see it, so the next in-place
                # write on it holds arriving readers off for O(Δ), not for a
                # cold index build.
                tree_index(updated.tree)
            self._documents[resolved] = updated

    # -- maintenance -------------------------------------------------------------------

    def clean(self, name: Optional[str] = None) -> None:
        """Run the linear-time cleaning pass (Section 3) on one document.

        Cleaning replaces the document's prob-tree (and its underlying data
        tree), but — because it preserves surviving node ids, labels and the
        semantics — cached answers whose patterns avoid every pruned label
        are migrated to the new prob-tree rather than dropped.
        """
        with self._write():
            resolved = self._resolve_name(name)
            self._documents[resolved] = clean(
                self._documents[resolved], context=self._context
            )

    def prune_below(self, threshold: float, name: Optional[str] = None) -> None:
        """Keep only possible worlds with probability at least *threshold*.

        The lost mass is represented by a root-only world (Definition 3); the
        operation may blow up the representation (Theorem 4).  The document's
        prob-tree is replaced by the re-encoded one — and unlike updates or
        :meth:`clean`, thresholding genuinely changes the semantics and
        re-allocates every node id, so no cached answer can be migrated:
        the replacement invalidates wholesale by construction.
        """
        with self._write():
            resolved = self._resolve_name(name)
            self._documents[resolved] = threshold_probtree(
                self._documents[resolved], threshold, context=self._context
            )

    # -- inspection ------------------------------------------------------------------------

    def possible_worlds(
        self, normalize: bool = True, name: Optional[str] = None
    ) -> PWSet:
        """The possible-world semantics of one document."""
        with self._read(name) as probtree:
            return possible_worlds(probtree, restrict_to_used=True, normalize=normalize)

    def most_probable_worlds(
        self, count: int = 3, name: Optional[str] = None
    ) -> List[Tuple[DataTree, float]]:
        with self._read(name) as probtree:
            return most_probable_worlds(probtree, count, context=self._context)

    def dtd_satisfiable(self, dtd: DTD, name: Optional[str] = None) -> bool:
        """Whether some possible world satisfies the DTD (Theorem 5.1)."""
        with self._read(name) as probtree:
            return dtd_satisfiable(probtree, dtd, context=self._context)

    def dtd_valid(self, dtd: DTD, name: Optional[str] = None) -> bool:
        """Whether every possible world satisfies the DTD (Theorem 5.2)."""
        with self._read(name) as probtree:
            return dtd_valid(probtree, dtd, context=self._context)

    def dtd_probability(self, dtd: DTD, name: Optional[str] = None) -> float:
        """Probability that the uncertain document satisfies the DTD."""
        with self._read(name) as probtree:
            return dtd_satisfaction_probability(probtree, dtd, context=self._context)

    # -- helpers -----------------------------------------------------------------------------

    @staticmethod
    def _resolve(query: QuerySpec) -> Query:
        if isinstance(query, str):
            return parse_path(query)
        return query

    @staticmethod
    def _default_focus(query: Query) -> QueryNodeId:
        """Default target node for updates: the deepest pattern node.

        Queries that do not expose ``node_count`` give no way to pick a
        sensible default; guessing node 0 silently rewrote the wrong part of
        the pattern, so an explicit ``at=`` is required instead.
        """
        node_count = getattr(query, "node_count", None)
        if not callable(node_count):
            raise QueryError(
                f"cannot infer an update target for {type(query).__name__}: the "
                "query exposes no node_count(); pass the pattern node explicitly "
                "with at="
            )
        return node_count() - 1

    def __repr__(self) -> str:
        if len(self._documents) == 1:
            probtree = next(iter(self._documents.values()))
            summary = f"nodes={probtree.node_count()}, events={len(probtree.distribution)}"
        else:
            summary = f"documents={len(self._documents)}"
        return (
            f"ProbXMLWarehouse({summary}, engine={self.engine!r}, "
            f"matcher={self.matcher!r})"
        )


__all__ = ["ProbXMLWarehouse", "DEFAULT_DOCUMENT"]
