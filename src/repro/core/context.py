"""The session-scoped execution layer: :class:`ExecutionContext`.

Before this module existed, every query/probability/update/threshold/DTD
entry point re-threaded two string kwargs (``engine=``, ``matcher=``) and the
shared caches (the per-probtree Shannon-expansion tables, the per-tree
structural index) lived in module-level registries with no owner.  An
:class:`ExecutionContext` gives all of that one home:

* **mode resolution** — the context carries the default ``engine``
  (``"formula"`` | ``"enumerate"`` | ``"sample"`` | ``"auto-sample"``) and
  ``matcher`` (``"indexed"`` | ``"naive"`` | ``"columnar"`` | ``"auto"``)
  for every operation
  executed through it, together with a session
  :class:`~repro.formulas.sampling.PricingPolicy` (exact-pricing budget and
  sampling tolerances), with per-call overrides resolved by
  :func:`resolve_context` (precedence: per-call override > context default >
  module default);
* **cache handles** — a context-scoped registry of
  :class:`~repro.core.probability.ProbabilityEngine` instances (one Shannon
  cache per prob-tree per mode, all pricing through the context's single
  hash-consed :class:`~repro.formulas.ir.FormulaPool` intern table — see
  :attr:`ExecutionContext.formula_pool`), the shared structural
  :class:`~repro.trees.index.TreeIndex` (delegated to
  :func:`~repro.trees.index.tree_index`), and a NEW **answer-set cache**
  memoizing ``result_node_sets`` keyed by ``(tree.version, pattern
  fingerprint, matcher)`` — repeated queries against an unchanged document
  skip matching entirely, and any mutation (which bumps
  :attr:`DataTree.version <repro.trees.datatree.DataTree.version>`) or tree
  replacement (a fresh object) invalidates the entry automatically;
* **a cost model** — ``matcher="auto"`` picks the vectorized columnar
  matcher for large trees (≥ :data:`AUTO_COLUMNAR_NODES`, numpy present) or
  when a fresh columnar snapshot is already cached, the naive backtracking
  matcher for tiny pattern×tree products (where the O(n) index build
  dominates) and the compiled indexed plans otherwise; a fresh cached index
  tips the choice to ``"indexed"`` since the build cost is already sunk;
* **observable stats** — :class:`ContextStats` counts answer-cache
  hits/misses, plans compiled, formulas evaluated by the context's engines,
  engines created and auto-matcher decisions, so repeated-query workloads
  can be inspected and benchmarked.

Contexts are deliberately cheap: overriding modes through
:meth:`ExecutionContext.with_modes` returns a *view* sharing the caches and
stats of its parent, so a per-call ``engine="enumerate"`` override does not
fork the Shannon tables the session has already paid for.
"""

from __future__ import annotations

import gc
import inspect
import threading
import weakref
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.core.probability import ProbabilityEngine, require_engine_mode
from repro.core.probtree import ProbTree
from repro.formulas.ir import FormulaPool
from repro.formulas.sampling import PricingPolicy
from repro.trees.columnar import have_numpy as _columnar_have_numpy
from repro.trees.datatree import DataTree, NodeId
from repro.trees.index import PATCH_JOURNAL_LIMIT, TreeIndex, tree_index
from repro.utils.errors import QueryError
from repro.utils.faults import fire

#: Matcher choices a context understands; ``"auto"`` resolves per call
#: through the cost model into one of the fixed modes of
#: :data:`repro.queries.plan.MATCHER_MODES` (single source of truth for the
#: concrete modes — validation delegates to ``require_matcher_mode``).
MATCHER_CHOICES = ("indexed", "naive", "columnar", "auto")

#: Below this pattern-nodes × tree-nodes product, ``matcher="auto"`` prefers
#: the naive backtracking matcher (no index build) when no fresh index exists.
AUTO_NAIVE_COST = 512

#: From this tree size upward, ``matcher="auto"`` prefers the columnar
#: matcher (vectorized interval merges over the flat arrays of
#: :class:`repro.trees.columnar.ColumnarTree`) when numpy is available —
#: below it the object plans win because the per-query constant factors
#: (array conversions, searchsorted setup) dominate.  A tree that already
#: carries a *fresh* columnar snapshot tips to columnar regardless of size:
#: the O(n) column build is sunk.
AUTO_COLUMNAR_NODES = 32768

#: Default per-document bound on cached answer entries (per cache layer).
#: Deliberately generous — the LRU exists to cap worst-case memory on
#: many-distinct-query workloads, not to churn a working set.
MAX_CACHED_ANSWERS = 1024

#: Default node-count bound on a context's formula intern table (override
#: per session with ``ExecutionContext(formula_pool_node_limit=...)``).  Hash
#: consing never evicts (ids must stay stable), so a long-lived context —
#: above all the process-lifetime module default — would otherwise grow
#: without bound under endless distinct-formula churn.  Past the bound, the
#: context first runs a mark-and-sweep **garbage collection**
#: (:meth:`~repro.formulas.ir.FormulaPool.collect` from the live Shannon-memo
#: and compiled-DTD roots, counted in ``ContextStats.pool_gc_runs`` /
#: ``pool_nodes_swept``); only if the pool is *still* oversized — every node
#: genuinely live — is the whole formula layer restarted atomically (fresh
#: pool, engine registry and compiled-DTD cache dropped together, so no
#: id-keyed cache can dangle, counted in ``pool_restarts``), at the next
#: :meth:`ExecutionContext.engine_for`; pricing then warms back up.
#: Generous: real sessions intern a few thousand nodes.
FORMULA_POOL_NODE_LIMIT = 1 << 18


# Query methods predating the context layer take (tree, matcher=None) — and
# the oldest ad-hoc Query subclasses in user code may override them with
# (tree) alone.  The context therefore checks — once per (function, kwarg) —
# which keyword arguments an override accepts before passing them along.
_KWARG_SUPPORT: Dict[Tuple[object, str], bool] = {}


def _accepts_kwarg(method, name: str) -> bool:
    func = getattr(method, "__func__", method)
    key = (func, name)
    cached = _KWARG_SUPPORT.get(key)
    if cached is None:
        try:
            parameters = inspect.signature(func).parameters
            cached = name in parameters or any(
                parameter.kind is inspect.Parameter.VAR_KEYWORD
                for parameter in parameters.values()
            )
        except (TypeError, ValueError):  # pragma: no cover - builtins/partials
            cached = False
        _KWARG_SUPPORT[key] = cached
    return cached


def _legacy_kwargs(method, effective: str, context: "ExecutionContext") -> Dict[str, object]:
    """The keyword arguments *method* can take, out of matcher/context."""
    kwargs: Dict[str, object] = {}
    if _accepts_kwarg(method, "matcher"):
        kwargs["matcher"] = effective
    if _accepts_kwarg(method, "context"):
        kwargs["context"] = context
    return kwargs


def require_matcher_choice(mode: Optional[str]) -> str:
    """Validate a context-level ``matcher=`` argument (``None`` → ``"indexed"``).

    Accepts ``"auto"`` on top of the concrete modes, whose validation is
    delegated to :func:`repro.queries.plan.require_matcher_mode` so there is
    one source of truth for what the matchers themselves understand.
    """
    if mode is None:
        return "indexed"
    if mode == "auto":
        return mode
    # Imported lazily: the repro.queries package imports this module.
    from repro.queries.plan import require_matcher_mode

    try:
        return require_matcher_mode(mode)
    except QueryError:
        raise QueryError(
            f"unknown matcher {mode!r}; expected one of {MATCHER_CHOICES}"
        ) from None


class ContextStats:
    """Counters accumulated by every operation executed through one context.

    All counters are plain integers; :meth:`as_dict` snapshots them and
    :meth:`reset` zeroes them.  The stats object is shared between a context
    and all mode-override views derived from it.
    """

    __slots__ = (
        "answer_cache_hits",
        "answer_cache_misses",
        "nodeset_cache_hits",
        "nodeset_cache_misses",
        "plans_compiled",
        "formulas_evaluated",
        "engines_created",
        "auto_chose_naive",
        "auto_chose_indexed",
        "auto_chose_columnar",
        "columns_patched",
        "column_rebuilds",
        "evictions",
        "answers_migrated",
        "intern_hits",
        "intern_misses",
        "formulas_migrated",
        "exact_budget_exceeded",
        "samples_drawn",
        "fallbacks",
        "snapshots_pinned",
        "snapshots_retired",
        "rollbacks",
        "faults_injected",
        "pool_gc_runs",
        "pool_nodes_swept",
        "pool_restarts",
        "updates_in_place",
        "updates_copied",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.answer_cache_hits = 0       # full Definition 8 answer lists
        self.answer_cache_misses = 0
        self.nodeset_cache_hits = 0      # raw result_node_sets (boolean/aggregates)
        self.nodeset_cache_misses = 0
        self.plans_compiled = 0
        self.formulas_evaluated = 0
        self.engines_created = 0
        self.auto_chose_naive = 0
        self.auto_chose_indexed = 0
        self.auto_chose_columnar = 0
        self.columns_patched = 0         # stale columns journal-patched forward
        self.column_rebuilds = 0         # columns rebuilt from scratch (cold included)
        self.evictions = 0               # LRU answer-cache entries dropped
        self.answers_migrated = 0        # entries carried across update/clean
        self.intern_hits = 0             # formula-pool probes finding a node
        self.intern_misses = 0           # formula-pool probes allocating one
        self.formulas_migrated = 0       # priced formulas carried across update/clean
        self.exact_budget_exceeded = 0   # exact pricings that tripped max_expansions
        self.samples_drawn = 0           # Monte-Carlo worlds drawn by the sampler
        self.fallbacks = 0               # auto-sample degradations exact -> sampling
        self.snapshots_pinned = 0        # read_snapshot / ProbTree.snapshot pins
        self.snapshots_retired = 0       # pins expired by the retention bound
        self.rollbacks = 0               # transactions rolled back (updates included)
        self.faults_injected = 0         # faults the active FaultPlan raised/delayed
        self.pool_gc_runs = 0            # formula-pool mark-and-sweep passes
        self.pool_nodes_swept = 0        # interned nodes reclaimed by GC
        self.pool_restarts = 0           # wholesale formula-layer restarts
        self.updates_in_place = 0        # updates rewriting the live prob-tree
        self.updates_copied = 0          # updates rewriting a copy (functional path)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def merge(self, other: Union["ContextStats", Dict[str, int]]) -> "ContextStats":
        """Add *other*'s counters into this object (in place); returns self.

        *other* is another :class:`ContextStats` or a plain counter dict (the
        :meth:`as_dict` shape — what a shard worker ships over the wire).
        Unknown keys are ignored so a router can aggregate stats from workers
        running a slightly different build without blowing up; missing keys
        simply contribute nothing.  This is how the sharded warehouse folds
        per-shard stats into the one report the CLI ``--stats`` and the
        service ``/stats`` endpoint both render.
        """
        data = other.as_dict() if isinstance(other, ContextStats) else other
        for name, value in data.items():
            if name in ContextStats.__slots__:
                setattr(self, name, getattr(self, name) + int(value))
        return self

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "ContextStats":
        """Rebuild a stats object from an :meth:`as_dict` snapshot."""
        return cls().merge(data)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ContextStats({pairs})"


class _DocumentCache:
    """One document's answer-cache shard: LRU entries + label invalidation.

    ``entries`` maps a cache key to ``(labels, node_ids, value)``:

    * ``labels`` — the query's :meth:`label_set` fingerprint (``None`` for
      wildcard patterns and fingerprint-less queries: invalidate on any
      mutation);
    * ``node_ids`` — for full-answer entries, the union of node identifiers
      occurring in the cached answer trees (answers embed *unmatched
      ancestors*, whose labels the pattern does not constrain — a relabel of
      one of these nodes must invalidate the entry even though no pattern
      label is touched); ``None`` for raw node-set entries, whose values
      contain only identifiers, never labels;
    * ``value`` — the cached tuple.

    The :class:`~collections.OrderedDict` order is the LRU order: hits move
    entries to the end, eviction pops from the front.
    """

    __slots__ = ("stamp", "entries")

    def __init__(self, stamp) -> None:
        self.stamp = stamp
        self.entries: "OrderedDict[tuple, Tuple[Optional[FrozenSet[str]], Optional[FrozenSet[NodeId]], tuple]]" = (
            OrderedDict()
        )


def _journal_touch(
    tree: DataTree, since_version: int
) -> Optional[Tuple[FrozenSet[str], FrozenSet[NodeId]]]:
    """``(touched_labels, relabeled_nodes)`` since *since_version*, or ``None``.

    ``None`` means the tree's journal has been trimmed past *since_version*
    and only wholesale invalidation is sound.  The extraction itself lives
    on the tree (:meth:`DataTree.mutation_touch_since`) so there is exactly
    one switch over journal entry kinds.
    """
    return tree.mutation_touch_since(since_version)


def _query_label_set(query) -> Optional[FrozenSet[str]]:
    """The query's label fingerprint, ``None`` when it offers none."""
    method = getattr(query, "label_set", None)
    if callable(method):
        return method()
    return None


class _ContextState:
    """The shared mutable state behind a context and its mode-override views."""

    __slots__ = (
        "engines",
        "answer_cache",
        "probtree_answers",
        "dtd_formulas",
        "stats",
        "formula_pool",
        "auto_naive_cost",
        "cache_answers",
        "max_cached_answers",
        "pricing",
        "lock",
        "snapshot_retention",
        "active_snapshots",
        "fault_plan",
        "formula_pool_node_limit",
    )

    def __init__(
        self,
        auto_naive_cost: int = AUTO_NAIVE_COST,
        cache_answers: bool = True,
        max_cached_answers: Optional[int] = None,
        pricing: Optional[PricingPolicy] = None,
        snapshot_retention: Optional[int] = None,
        fault_plan=None,
        formula_pool_node_limit: Optional[int] = None,
    ) -> None:
        # prob-tree -> {engine mode -> ProbabilityEngine}
        self.engines: "weakref.WeakKeyDictionary[ProbTree, Dict[str, ProbabilityEngine]]" = (
            weakref.WeakKeyDictionary()
        )
        # data tree -> _DocumentCache stamped with tree.version; entries are
        # {(fingerprint, matcher) -> (labels, None, node-set tuple)}
        self.answer_cache: "weakref.WeakKeyDictionary[DataTree, _DocumentCache]" = (
            weakref.WeakKeyDictionary()
        )
        # prob-tree -> _DocumentCache stamped (tree.version, state_version);
        # entries are {(fingerprint, matcher, engine, keep_zero) ->
        #              (labels, answer node ids, QueryAnswer tuple)}
        self.probtree_answers: "weakref.WeakKeyDictionary[ProbTree, _DocumentCache]" = (
            weakref.WeakKeyDictionary()
        )
        # prob-tree -> {DTD fingerprint -> ((tree.version, state_version),
        # interned validity-formula id)}; consulted by the DTD entry points
        # so a warm check skips recompilation entirely.
        self.dtd_formulas: "weakref.WeakKeyDictionary[ProbTree, Dict[tuple, Tuple[Tuple[int, int], int]]]" = (
            weakref.WeakKeyDictionary()
        )
        self.stats = ContextStats()
        # One intern table per session, shared by every engine of this state:
        # equal formulas get equal integer ids across prob-trees, queries and
        # DTD checks, and the pool's intern counters land in self.stats.
        self.formula_pool = FormulaPool(stats=self.stats)
        self.auto_naive_cost = auto_naive_cost
        self.cache_answers = cache_answers
        if max_cached_answers is None:
            max_cached_answers = MAX_CACHED_ANSWERS
        if max_cached_answers < 1:
            raise ValueError(
                f"max_cached_answers must be a positive bound, got "
                f"{max_cached_answers!r}"
            )
        self.max_cached_answers = int(max_cached_answers)
        # One pricing policy (exact budget + sampling tolerances) per
        # session, applied to every engine this state hands out.
        self.pricing = pricing if pricing is not None else PricingPolicy()
        # Reentrant: cache probes recurse into engine_for / index_for while
        # holding it.  Guards every shared-cache probe/store so snapshot-mode
        # readers on different threads never tear a shard; formula pricing
        # itself also runs under it (compute happens inside the cached_*
        # scopes), which serializes misses but keeps warm reads concurrent
        # with nothing heavier than a dict probe.
        self.lock = threading.RLock()
        if snapshot_retention is None:
            # Imported lazily: repro.core.snapshot imports probtree only,
            # but keep the default in one place.
            from repro.core.snapshot import SNAPSHOT_RETENTION

            snapshot_retention = SNAPSHOT_RETENTION
        if snapshot_retention < 1:
            raise ValueError(
                f"snapshot_retention must be a positive bound, got "
                f"{snapshot_retention!r}"
            )
        self.snapshot_retention = int(snapshot_retention)
        # Unreleased Snapshot handles pinned through read_snapshot, oldest
        # first — the session-wide retention bound walks this list.
        self.active_snapshots: List = []
        # Optional FaultPlan the update pipeline activates around each
        # operation (crash-consistency harnesses configure it; None in
        # production).
        self.fault_plan = fault_plan
        if formula_pool_node_limit is None:
            formula_pool_node_limit = FORMULA_POOL_NODE_LIMIT
        if formula_pool_node_limit < 2:
            raise ValueError(
                f"formula_pool_node_limit must be at least 2 (the pool always "
                f"holds its two constants), got {formula_pool_node_limit!r}"
            )
        self.formula_pool_node_limit = int(formula_pool_node_limit)

    def collect_formula_garbage(self) -> int:
        """Mark-and-sweep the intern table from the live id-keyed roots.

        The roots are every Shannon-memo key of every registered engine and
        every compiled DTD-validity formula; after the pool compacts
        (:meth:`~repro.formulas.ir.FormulaPool.collect`, in place — engines
        keep their pool reference), those same caches are rekeyed through
        the returned remap so no id dangles.  Returns the number of nodes
        swept; counted in ``pool_gc_runs`` / ``pool_nodes_swept``.  Caller
        must hold ``self.lock``.
        """
        engine_maps = list(self.engines.values())
        dtd_maps = list(self.dtd_formulas.values())
        roots: List[int] = []
        for per_tree in engine_maps:
            for engine in per_tree.values():
                roots.extend(engine.interned_root_ids())
        for per_tree in dtd_maps:
            for _stamp, node in per_tree.values():
                roots.append(node)
        remap, swept = self.formula_pool.collect(roots)
        self.stats.pool_gc_runs += 1
        if remap is None:
            return 0
        for per_tree in engine_maps:
            for engine in per_tree.values():
                engine.remap_interned(remap)
        for per_tree in dtd_maps:
            for key, (stamp, node) in list(per_tree.items()):
                per_tree[key] = (stamp, remap[node])
        self.stats.pool_nodes_swept += swept
        return swept

    def restart_formula_layer_if_oversized(self) -> bool:
        """GC — then, only if still oversized, restart — the formula layer.

        Past the session's ``formula_pool_node_limit`` the state first tries
        :meth:`collect_formula_garbage`: unreachable interned nodes (cofactor
        residuals, formulas of dropped documents, pruned SAT entries) are
        swept with every warm cache kept.  Only when the pool is still over
        the bound afterwards — every node genuinely reachable — does it fall
        back to the wholesale restart: pool replaced and every id-keyed
        cache cleared in the same step (per-probtree engines, compiled DTD
        formulas) so a dangling id can never be priced against the wrong
        table.  Called only at the entry of
        :meth:`ExecutionContext.engine_for` (before an engine is handed out)
        and :meth:`ExecutionContext.validity_formula_for` (before anything
        is compiled or the pool is read by its callers) — callers that
        already hold an engine keep a self-consistent (engine, pool) pair;
        they merely stop sharing.  Returns True only on a wholesale restart.
        """
        limit = self.formula_pool_node_limit
        if self.formula_pool.node_count() <= limit:
            return False
        self.collect_formula_garbage()
        if self.formula_pool.node_count() <= limit:
            return False
        self.formula_pool = FormulaPool(stats=self.stats)
        self.engines.clear()
        self.dtd_formulas.clear()
        self.stats.pool_restarts += 1
        return True


class ExecutionContext:
    """One session's execution policy and caches.

    Args:
        engine: default probability engine mode (``"formula"`` |
            ``"enumerate"`` | ``"sample"`` | ``"auto-sample"``; ``None``
            means ``"formula"``).
        matcher: default embedding matcher (``"indexed"`` | ``"naive"`` |
            ``"columnar"`` | ``"auto"``; ``None`` means ``"indexed"``).
        auto_naive_cost: pattern×tree product below which ``"auto"`` picks
            the naive matcher when no fresh index is cached.
        cache_answers: whether to memoize full answer lists (see
            :meth:`cached_answers`).  On by default for explicitly-created
            session contexts; the module :func:`default_context` disables it
            because anonymous legacy callers expect fresh answer trees.
        max_cached_answers: per-document LRU bound on cached entries (per
            cache layer).  ``None`` means the generous
            :data:`MAX_CACHED_ANSWERS` default; values below 1 are
            rejected.  Evictions are counted in
            :attr:`ContextStats.evictions`.
        pricing: the session's :class:`~repro.formulas.sampling.PricingPolicy`
            (exact-pricing ``max_expansions`` budget plus the sampler's
            ``epsilon``/``confidence``/``max_samples``/``deadline``/``seed``
            knobs), applied to every engine this context hands out.  ``None``
            means the unbudgeted defaults.
        snapshot_retention: session-wide bound on unreleased snapshot pins
            (:meth:`read_snapshot`); beyond it the oldest pins are retired
            (``SnapshotRetiredError`` on later access, counted in
            :attr:`ContextStats.snapshots_retired`).  ``None`` means
            :data:`repro.core.snapshot.SNAPSHOT_RETENTION`.
        fault_plan: an optional :class:`~repro.utils.faults.FaultPlan` the
            update pipeline activates around every operation executed through
            this context — the hook the crash-consistency harness drives.
            ``None`` (the default) injects nothing.
        formula_pool_node_limit: node-count bound on the session's formula
            intern table; past it the context garbage-collects the pool
            (:meth:`gc_formula_pool`) and only restarts the formula layer
            wholesale when GC cannot get back under the bound.  ``None``
            means :data:`FORMULA_POOL_NODE_LIMIT`; shard workers serving
            long-lived sessions set it explicitly.
    """

    __slots__ = ("_engine", "_matcher", "_state")

    def __init__(
        self,
        engine: Optional[str] = None,
        matcher: Optional[str] = None,
        auto_naive_cost: int = AUTO_NAIVE_COST,
        cache_answers: bool = True,
        max_cached_answers: Optional[int] = None,
        pricing: Optional[PricingPolicy] = None,
        snapshot_retention: Optional[int] = None,
        fault_plan=None,
        formula_pool_node_limit: Optional[int] = None,
        _state: Optional[_ContextState] = None,
    ) -> None:
        self._engine = require_engine_mode(engine) if engine is not None else "formula"
        self._matcher = require_matcher_choice(matcher)
        self._state = (
            _state
            if _state is not None
            else _ContextState(
                auto_naive_cost,
                cache_answers,
                max_cached_answers,
                pricing,
                snapshot_retention,
                fault_plan,
                formula_pool_node_limit,
            )
        )

    # -- modes ---------------------------------------------------------------

    @property
    def engine(self) -> str:
        """The context's default probability engine mode."""
        return self._engine

    @property
    def matcher(self) -> str:
        """The context's default matcher mode (may be ``"auto"``)."""
        return self._matcher

    def with_modes(
        self, engine: Optional[str] = None, matcher: Optional[str] = None
    ) -> "ExecutionContext":
        """A view of this context with overridden modes, sharing all caches.

        This is how per-call ``engine=`` / ``matcher=`` string overrides are
        realized: the returned context prices formulas with the same Shannon
        tables and serves answers from the same answer-set cache.
        """
        if engine is None and matcher is None:
            return self
        return ExecutionContext(
            engine=engine if engine is not None else self._engine,
            matcher=matcher if matcher is not None else self._matcher,
            _state=self._state,
        )

    def shares_caches_with(self, other: "ExecutionContext") -> bool:
        """Whether *other* is a view over the same caches and stats."""
        return self._state is other._state

    def resolve_engine(self, override: Optional[str] = None) -> str:
        """The engine mode for one call (*override* wins when given)."""
        return require_engine_mode(override) if override is not None else self._engine

    def resolve_matcher(self, override: Optional[str] = None) -> str:
        """The matcher choice for one call, possibly still ``"auto"``."""
        return require_matcher_choice(override) if override is not None else self._matcher

    def effective_matcher(
        self, query, tree: DataTree, override: Optional[str] = None, record: bool = True
    ) -> str:
        """The concrete matcher (``"indexed"`` | ``"naive"`` | ``"columnar"``)
        for one evaluation.

        ``"auto"`` is resolved here, in cost order:

        * **columnar** — when numpy is available and either the tree already
          carries a *warm* columnar snapshot — fresh, or stale but patchable
          from a journal suffix of at most
          :data:`~repro.trees.index.PATCH_JOURNAL_LIMIT` entries, in which
          case :func:`~repro.trees.columnar.columnar_tree` will splice the
          pending mutations in (bounded work) rather than rebuild — or the
          tree is at least :data:`AUTO_COLUMNAR_NODES` nodes (vectorized
          interval merges dwarf the one-time column build);
        * **indexed** — if the tree carries a fresh — or *almost fresh*,
          i.e. stale but patchable from a journal suffix of at most
          :data:`~repro.trees.index.PATCH_JOURNAL_LIMIT` entries —
          structural index, the (re)build cost is sunk or negligible and the
          compiled plans win;
        * **naive** — tiny pattern×tree products (the O(n) index build would
          dominate); everything else is indexed.

        ``record=False`` suppresses the ``auto_chose_*`` counters — used by
        cache-key computation, so only decisions that drive actual matching
        are counted (one per evaluation, none on cache hits).
        """
        mode = self.resolve_matcher(override)
        if mode != "auto":
            return mode
        stats = self._state.stats
        if _columnar_have_numpy():
            column = tree._columnar_cache
            warm = column is not None and (
                column.version == tree.version
                or (
                    # Same version arithmetic as the indexed branch below:
                    # a stale-but-patchable column costs a bounded splice,
                    # not the O(n) rebuild, so its build cost is sunk too.
                    # A mid-patch-poisoned column (version -1) predates any
                    # journal base and fails journal_reaches.
                    tree.version - column.version <= PATCH_JOURNAL_LIMIT
                    and tree.journal_reaches(column.version)
                )
            )
            if warm or tree.node_count() >= AUTO_COLUMNAR_NODES:
                if record:
                    stats.auto_chose_columnar += 1
                return "columnar"
        cached = tree._index_cache
        if cached is not None:
            almost_fresh = cached.is_fresh()
            if not almost_fresh:
                # Journal-aware: a stale index whose pending journal suffix
                # is within the patch threshold will be *patched in place*
                # (O(journal · suffix)), not rebuilt — the build cost the
                # naive matcher would dodge is not actually on the table.
                # The suffix length is pure version arithmetic (one journal
                # entry per bump); this runs on every warm answer-cache hit,
                # so no entries are copied out here.
                almost_fresh = (
                    tree.version - cached.version <= PATCH_JOURNAL_LIMIT
                    and tree.journal_reaches(cached.version)
                )
            if almost_fresh:
                if record:
                    stats.auto_chose_indexed += 1
                return "indexed"
        node_count = getattr(query, "node_count", None)
        pattern_nodes = node_count() if callable(node_count) else 4
        if pattern_nodes * tree.node_count() <= self._state.auto_naive_cost:
            if record:
                stats.auto_chose_naive += 1
            return "naive"
        if record:
            stats.auto_chose_indexed += 1
        return "indexed"

    # -- snapshots -----------------------------------------------------------

    @property
    def fault_plan(self):
        """The :class:`~repro.utils.faults.FaultPlan` updates run under (or ``None``)."""
        return self._state.fault_plan

    @property
    def snapshot_retention(self) -> int:
        """Session-wide bound on unreleased :meth:`read_snapshot` pins."""
        return self._state.snapshot_retention

    def read_snapshot(self, probtree: ProbTree):
        """Pin *probtree* at its current ``(tree.version, state_version)``.

        Returns a :class:`~repro.core.snapshot.Snapshot` whose ``probtree``
        keeps answering for the pinned stamp while writers proceed — a
        warehouse update on a pinned document takes the copy path (the pin
        just keeps the old version alive), and direct in-place mutators
        preserve the pinned state copy-on-write.  A pin arriving during a
        warehouse's in-place write waits for that write to commit or roll
        back.  Use as a context manager (or call ``release()``) when done::

            with context.read_snapshot(document) as snap:
                answers = evaluate_on_probtree(query, snap.probtree,
                                               context=context)

        Retention is bounded session-wide (``snapshot_retention``): pinning
        past the bound retires the oldest unreleased pins across *all*
        documents and versions — essential for version chains, where every
        superseded document is a distinct object a per-object bound would
        never see.  Pins are counted in :attr:`ContextStats.snapshots_pinned`
        and retirements in :attr:`ContextStats.snapshots_retired`.
        """
        from repro.core.snapshot import pin

        state = self._state
        # Pinned outside the context lock: a pin may wait for an in-place
        # write to commit, and that writer needs the context lock.
        handle = pin(probtree, retention=None, stats=state.stats)
        with state.lock:
            tracked = state.active_snapshots
            tracked.append(handle)
            # Prune released handles lazily — only once the tracked list
            # outgrows the bound — so the hot pin path stays allocation-free.
            if len(tracked) > state.snapshot_retention:
                tracked = [h for h in tracked if h.active]
                while len(tracked) > state.snapshot_retention:
                    tracked.pop(0).retire()
                state.active_snapshots = tracked
        return handle

    # -- cache handles -------------------------------------------------------

    def engine_for(
        self, probtree: ProbTree, engine: Optional[str] = None
    ) -> ProbabilityEngine:
        """The context-scoped :class:`ProbabilityEngine` of *probtree*.

        One engine (and thus one Shannon-expansion cache) per prob-tree per
        mode, shared across every question this context answers.  When the
        prob-tree's distribution has grown by a *conservative extension*
        (events added, none re-weighted — what an in-place update does),
        the engine is extended in place and keeps its memo; any other change
        (a re-weighted or removed event, e.g. a rolled-back ``add_event``
        the engine had already been extended over) hands out a fresh
        engine, exactly like the module-level
        :func:`~repro.core.probability.engine_for`.
        """
        mode = self.resolve_engine(engine)
        with self._state.lock:
            self._state.restart_formula_layer_if_oversized()
            per_tree = self._state.engines.setdefault(probtree, {})
            cached = per_tree.get(mode)
            distribution = probtree.distribution
            if cached is None or not (
                cached.distribution is distribution or cached.extend_to(distribution)
            ):
                cached = ProbabilityEngine(
                    distribution,
                    mode=mode,
                    stats=self._state.stats,
                    pool=self._state.formula_pool,
                    policy=self._state.pricing,
                )
                per_tree[mode] = cached
                self._state.stats.engines_created += 1
            return cached

    @property
    def pricing(self) -> PricingPolicy:
        """The session's pricing policy (exact budget + sampling knobs)."""
        return self._state.pricing

    @property
    def formula_pool(self) -> FormulaPool:
        """The session's shared formula intern table (one DAG of node ids).

        Every :class:`ProbabilityEngine` this context hands out prices
        through this pool, so equal formulas — across queries, documents,
        DTD checks and update conditions — share one interned node and one
        cached price per distribution.  The pool also carries the
        distribution-independent SAT cache used by the DTD decision
        procedures.
        """
        return self._state.formula_pool

    @property
    def formula_pool_node_limit(self) -> int:
        """The session's node-count bound on the formula intern table."""
        return self._state.formula_pool_node_limit

    def gc_formula_pool(self) -> int:
        """Garbage-collect the session's formula pool; returns nodes swept.

        Marks every node reachable from the live roots — the Shannon memos
        of the context's engines and its compiled DTD-validity formulas —
        sweeps the rest and compacts the pool in place, rekeying the
        id-keyed caches through the resulting remap.  Warm prices survive;
        only genuinely unreachable nodes (cofactor residuals, formulas of
        documents the session dropped) are reclaimed.  Runs automatically
        when the pool crosses ``formula_pool_node_limit`` (the wholesale
        restart is now the fallback for pools that are still oversized after
        a sweep); call it explicitly to shed memory at a quiet moment.
        Counted in :attr:`ContextStats.pool_gc_runs` /
        :attr:`ContextStats.pool_nodes_swept`.

        Runs Python's cycle collector first: prob-trees are cyclic, so a
        dropped document's engine (weak-keyed by the prob-tree) lingers —
        and keeps its memo nodes rooted — until the cycle collector clears
        it.  Without this, an explicit sweep right after ``drop()`` would
        reclaim nothing.
        """
        gc.collect()
        with self._state.lock:
            return self._state.collect_formula_garbage()

    def validity_formula_for(self, probtree: ProbTree, dtd) -> int:
        """The interned DTD-validity formula of *probtree*, compiled once.

        Keyed by the DTD's content :meth:`~repro.dtd.dtd.DTD.fingerprint`
        and stamped with ``(tree.version, state_version)`` — any structural,
        label, condition or distribution mutation forces a recompile, while
        a warm repeated check (``dtd_satisfiable`` / ``dtd_valid`` /
        ``dtd_satisfaction_probability`` over an unchanged document) is two
        dictionary probes.  The compiled id stays meaningful forever: it
        lives in the context's shared formula pool.
        """
        # Imported lazily: repro.dtd.probtree_dtd imports this module.
        from repro.dtd.probtree_dtd import dtd_validity_formula_ir

        state = self._state
        with state.lock:
            # SAT-only workloads (dtd_satisfiable / dtd_valid) never reach
            # engine_for, so the pool bound is enforced here too — before the
            # compiled-formula cache is consulted and before any caller reads
            # the pool (the DTD entry points compile first, fetch the pool
            # after).  When an engine_for in the same expression already
            # restarted, the pool is small again and this is a no-op.
            state.restart_formula_layer_if_oversized()
            per_tree = state.dtd_formulas.get(probtree)
            if per_tree is None:
                per_tree = {}
                state.dtd_formulas[probtree] = per_tree
            stamp = (probtree.tree.version, probtree.state_version)
            key = dtd.fingerprint()
            cached = per_tree.get(key)
            if cached is not None and cached[0] == stamp:
                return cached[1]
            node = dtd_validity_formula_ir(probtree, dtd, state.formula_pool)
            per_tree[key] = (stamp, node)
            return node

    def index_for(self, tree: DataTree) -> TreeIndex:
        """The shared structural index of *tree* (patched, fetched or built).

        Delegates to :func:`~repro.trees.index.tree_index`: a stale cached
        snapshot is patched in place by replaying the tree's mutation
        journal, and rebuilt only past the cost-model threshold.
        """
        return tree_index(tree)

    # -- answer-cache internals ---------------------------------------------

    def _sync_nodeset_shard(self, tree: DataTree) -> _DocumentCache:
        """The node-set shard of *tree*, label-invalidated up to its version."""
        shard = self._state.answer_cache.get(tree)
        if shard is None:
            shard = _DocumentCache(tree.version)
            self._state.answer_cache[tree] = shard
        elif shard.stamp != tree.version:
            self._retire(shard, _journal_touch(tree, shard.stamp))
            shard.stamp = tree.version
        return shard

    @staticmethod
    def _retire(shard: _DocumentCache, touch) -> None:
        """Drop the entries a mutation batch could have affected.

        *touch* is the ``(touched_labels, relabeled_nodes)`` pair from
        :func:`_journal_touch`, or ``None`` when the journal is gone —
        wholesale invalidation then.  An entry survives iff its label
        fingerprint is disjoint from the touched labels AND (for full-answer
        entries) none of its answer nodes was relabeled; wildcard entries
        (``labels is None``) never survive a non-empty batch.
        """
        entries = shard.entries
        if touch is None:
            entries.clear()
            return
        labels, relabeled = touch
        if not labels and not relabeled:
            return
        dead = [
            key
            for key, (entry_labels, node_ids, _value) in entries.items()
            if entry_labels is None
            or (labels and not labels.isdisjoint(entry_labels))
            or (relabeled and node_ids is not None and not relabeled.isdisjoint(node_ids))
        ]
        for key in dead:
            del entries[key]

    def _evict(self, shard: _DocumentCache) -> None:
        """Enforce the per-document LRU bound, counting evictions."""
        entries = shard.entries
        limit = self._state.max_cached_answers
        stats = self._state.stats
        while len(entries) > limit:
            entries.popitem(last=False)
            stats.evictions += 1

    def result_node_sets(
        self,
        query,
        source: Union[ProbTree, DataTree],
        matcher: Optional[str] = None,
    ) -> List[FrozenSet[NodeId]]:
        """Answer node sets of *query* on *source*, memoized per tree version.

        The cache key is ``(query.fingerprint(), matcher)``; queries without
        a ``fingerprint()`` method (ad-hoc :class:`Query` subclasses) bypass
        the cache.  Mutations no longer invalidate wholesale: the per-tree
        shard is carried across version bumps and only the entries whose
        label fingerprints intersect the mutated labels (per the tree's
        journal) are dropped — a relabel far from everything a pattern can
        touch keeps its warm entries.  Replacing the tree object altogether
        (updates, cleaning, thresholding all produce new trees) keys a
        separate shard that dies with the old tree.  Each shard is LRU
        bounded by the context's ``max_cached_answers``.
        """
        tree = source.tree if isinstance(source, ProbTree) else source
        effective = self.effective_matcher(query, tree, matcher)
        compute = query.result_node_sets
        kwargs = _legacy_kwargs(compute, effective, self)
        if "context" not in kwargs:
            return compute(tree, **kwargs)
        fingerprint = None
        method = getattr(query, "fingerprint", None)
        if callable(method):
            fingerprint = method()
        if fingerprint is None:
            return compute(tree, **kwargs)
        stats = self._state.stats
        with self._state.lock:
            shard = self._sync_nodeset_shard(tree)
            key = (fingerprint, effective)
            cached = shard.entries.get(key)
            if cached is not None:
                shard.entries.move_to_end(key)
                stats.nodeset_cache_hits += 1
                return list(cached[2])
            stats.nodeset_cache_misses += 1
            result = compute(tree, **kwargs)
            shard.entries[key] = (_query_label_set(query), None, tuple(result))
            self._evict(shard)
            return result

    def cached_answers(
        self,
        query,
        probtree: ProbTree,
        keep_zero_probability: bool,
        compute,
    ):
        """Full Definition 8 answer lists, memoized per prob-tree state.

        The cache key pairs the query's structural fingerprint with the
        concrete matcher; the guard stamp is ``(tree.version,
        probtree.state_version)``.  Condition/distribution mutations (a
        ``state_version`` bump) still invalidate wholesale — they can
        reprice any answer — but purely structural/label mutations are
        resolved against the tree's mutation journal: only the entries
        whose label fingerprints (or cached answer nodes, for relabels)
        intersect the mutated labels are dropped.  In-place updates restamp
        the shard past their own condition changes
        (:meth:`retire_answers_in_place`).  Replacing the prob-tree object,
        as copy-path updates do, keys a separate shard that dies with it —
        see :meth:`migrate_answers` for how those carry unaffected entries
        across the replacement.  Shards are LRU bounded by
        ``max_cached_answers`` (evictions counted in
        :attr:`ContextStats.evictions`).

        Cached answers are shared verbatim across calls — *including the
        miss that populated the entry* — so treat the returned
        :class:`~repro.queries.evaluation.QueryAnswer` trees as read-only
        (mutating one would corrupt every later result for that query; use
        ``answer.tree.copy()`` before editing).  Because that read-only
        contract is an opt-in, the module :func:`default_context` is built
        with ``cache_answers=False`` — anonymous legacy callers keep the
        fresh-tree-per-call semantics — while explicitly-created session
        contexts (including every warehouse's) cache by default.  Queries
        without a ``fingerprint()`` bypass the cache and just call *compute*.
        """
        if not self._state.cache_answers:
            return compute()
        method = getattr(query, "fingerprint", None)
        fingerprint = method() if callable(method) else None
        if fingerprint is None:
            return compute()
        tree = probtree.tree
        # record=False: this resolution only builds the cache key; the
        # compute path re-resolves (and counts) if matching actually runs.
        effective = self.effective_matcher(query, tree, record=False)
        with self._state.lock:
            stamp = (tree.version, probtree.state_version)
            shard = self._state.probtree_answers.get(probtree)
            if shard is None:
                shard = _DocumentCache(stamp)
                self._state.probtree_answers[probtree] = shard
            elif shard.stamp != stamp:
                if shard.stamp[1] != probtree.state_version:
                    # Condition / distribution mutations can reprice any answer;
                    # only structural journals support label-targeted retention.
                    shard.entries.clear()
                else:
                    self._retire(shard, _journal_touch(tree, shard.stamp[0]))
                shard.stamp = stamp
            # The engine mode is part of the key even though per-answer prices
            # are mode-independent: an explicit engine="enumerate" request is a
            # request to *run* the oracle path, not to be served formula-cached
            # results (differential comparisons must stay honest).
            key = (fingerprint, effective, self.resolve_engine(), keep_zero_probability)
            cached = shard.entries.get(key)
            stats = self._state.stats
            if cached is not None:
                shard.entries.move_to_end(key)
                stats.answer_cache_hits += 1
                return list(cached[2])
            stats.answer_cache_misses += 1
            result = compute()
            # Answer trees embed unmatched ancestors; remember every node id so
            # a later relabel of one of them retires this entry (see _retire).
            node_ids = frozenset(
                node for answer in result for node in answer.tree.nodes()
            )
            shard.entries[key] = (_query_label_set(query), node_ids, tuple(result))
            self._evict(shard)
            return result

    def migrate_answers(
        self,
        source: ProbTree,
        target: ProbTree,
        touched_labels: Iterable[str],
    ) -> int:
        """Carry still-valid cached answers from *source* to *target*.

        Copy-path updates and cleaning *replace* the prob-tree (and its data
        tree), so without help the context would start both documents'
        caches cold.
        When the replacement preserves surviving node identifiers, labels
        and conditions — true for probabilistic insertions/deletions and for
        :func:`~repro.core.cleaning.clean`, NOT for threshold re-encoding —
        every entry whose label fingerprint is disjoint from
        *touched_labels* answers identically on the new document and can be
        copied across (wildcard entries never migrate).  Returns the number
        of entries carried over; :attr:`ContextStats.answers_migrated`
        accumulates it.

        The per-probtree *formula* caches are migrated alongside
        (:meth:`migrate_formulas`): prices do not depend on labels at all,
        only on the distribution, so they carry over whenever the
        replacement's distribution conservatively extends the source's.

        Fail-empty, never fail-stale: an exception mid-migration (see the
        ``context.migrate_answers`` fault site) drops *target*'s answer-cache
        shards wholesale before propagating, so a half-carried map can never
        serve a partially migrated working set as if it were complete.
        *Source*'s shards are untouched — they were only read.
        """
        state = self._state
        with state.lock:
            self.migrate_formulas(source, target)
            touched = frozenset(touched_labels)
            moved = 0

            def carry(src: Optional[_DocumentCache], dst: _DocumentCache) -> int:
                count = 0
                for key, record in src.entries.items():
                    labels = record[0]
                    if (
                        labels is not None
                        and labels.isdisjoint(touched)
                        and key not in dst.entries
                    ):
                        fire("context.migrate_answers")
                        dst.entries[key] = record
                        count += 1
                self._evict(dst)
                return count

            old_tree, new_tree = source.tree, target.tree
            try:
                src = state.answer_cache.get(old_tree)
                if src is not None and src.stamp == old_tree.version:
                    dst = state.answer_cache.get(new_tree)
                    if dst is None:
                        dst = _DocumentCache(new_tree.version)
                        state.answer_cache[new_tree] = dst
                    if dst.stamp == new_tree.version:
                        moved += carry(src, dst)
                if state.cache_answers:
                    src = state.probtree_answers.get(source)
                    if src is not None and src.stamp == (
                        old_tree.version,
                        source.state_version,
                    ):
                        stamp = (new_tree.version, target.state_version)
                        dst = state.probtree_answers.get(target)
                        if dst is None:
                            dst = _DocumentCache(stamp)
                            state.probtree_answers[target] = dst
                        if dst.stamp == stamp:
                            moved += carry(src, dst)
            except BaseException:
                state.answer_cache.pop(new_tree, None)
                state.probtree_answers.pop(target, None)
                raise
            state.stats.answers_migrated += moved
            return moved

    def retire_answers_in_place(
        self,
        probtree: ProbTree,
        before: Tuple[int, int],
        touched_labels: Iterable[str],
    ) -> int:
        """Carry *probtree*'s cached answers across its own in-place update.

        The in-place twin of :meth:`migrate_answers`: *before* is the
        ``(tree.version, state_version)`` stamp the update started from and
        *touched_labels* the labels it mutated.  Shards still stamped
        *before* keep every entry whose label fingerprint is disjoint from
        the touched labels — the same soundness argument as migration:
        surviving nodes keep their ids, labels and conditions, and the
        distribution only gained a fresh event — and are restamped to the
        current version; everything else in them is dropped.  Shards at any
        other stamp are left to the usual stamp checks.  Returns the number
        of entries kept; :attr:`ContextStats.answers_migrated` accumulates
        it.
        """
        state = self._state
        tree = probtree.tree
        touch = (frozenset(touched_labels), frozenset())
        kept = 0
        with state.lock:
            nodesets = state.answer_cache.get(tree)
            if nodesets is not None and nodesets.stamp == before[0]:
                self._retire(nodesets, touch)
                nodesets.stamp = tree.version
                kept += len(nodesets.entries)
            answers = state.probtree_answers.get(probtree)
            if answers is not None and answers.stamp == before:
                self._retire(answers, touch)
                answers.stamp = (tree.version, probtree.state_version)
                kept += len(answers.entries)
            state.stats.answers_migrated += kept
        return kept

    def migrate_formulas(self, source: ProbTree, target: ProbTree) -> int:
        """Carry memoized formula prices from *source*'s engines to *target*'s.

        Sound exactly when *target*'s distribution is a **conservative
        extension** of *source*'s — every source event still present with an
        unchanged probability (true for probabilistic updates, which only add
        one fresh event, and for cleaning, which keeps the distribution):
        every formula priced against the source cannot mention the fresh
        events, so its price is unchanged.  Anything else (threshold
        re-encoding re-draws event names and probabilities) migrates
        nothing.  All engines of one context share the intern pool, so the
        id-keyed Shannon tables transfer verbatim.  Returns the number of
        cache entries carried; :attr:`ContextStats.formulas_migrated`
        accumulates it.

        Fail-empty, never fail-stale: an exception mid-absorb (see the
        ``context.migrate_formulas`` fault site) drops *target*'s whole
        engine registry before propagating — a partially absorbed Shannon
        table would otherwise masquerade as the fully migrated one.
        """
        state = self._state
        with state.lock:
            engines = state.engines.get(source)
            if not engines:
                return 0
            target_distribution = target.distribution
            moved = 0
            try:
                for mode, engine in engines.items():
                    if not engine.cache_size():
                        continue
                    # Validate against the distribution *this engine* priced
                    # under — the source prob-tree may have re-weighted an
                    # event since the engine was cut (engine_for would hand
                    # out a fresh engine next time, but the stale one still
                    # sits in the registry).
                    if not target_distribution.extends(engine.distribution):
                        continue
                    fire("context.migrate_formulas")
                    moved += self.engine_for(target, mode).absorb(engine)
            except BaseException:
                state.engines.pop(target, None)
                raise
            if moved:
                state.stats.formulas_migrated += moved
            return moved

    def results(self, query, tree: DataTree, matcher: Optional[str] = None):
        """Answer sub-datatrees of *query* on *tree* under this context's policy."""
        effective = self.effective_matcher(query, tree, matcher)
        method = query.results
        return method(tree, **_legacy_kwargs(method, effective, self))

    def matches(self, query, tree: DataTree, matcher: Optional[str] = None):
        """All embeddings of *query* into *tree* under this context's policy."""
        effective = self.effective_matcher(query, tree, matcher)
        method = query.matches_with
        return method(tree, **_legacy_kwargs(method, effective, self))

    # -- stats ---------------------------------------------------------------

    @property
    def stats(self) -> ContextStats:
        """The live counters of this context (shared with mode-override views)."""
        return self._state.stats

    def note_plan_compiled(self) -> None:
        """Record one compiled pattern plan (called by the indexed matcher)."""
        self._state.stats.plans_compiled += 1

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(engine={self._engine!r}, matcher={self._matcher!r}, "
            f"stats={self.stats!r})"
        )


# ---------------------------------------------------------------------------
# Module default context and per-call resolution
# ---------------------------------------------------------------------------

_DEFAULT_CONTEXT = ExecutionContext(cache_answers=False)


def default_context() -> ExecutionContext:
    """The module-level default context (engine ``"formula"``, matcher ``"indexed"``).

    Used by every entry point when the caller supplies neither ``context=``
    nor a legacy string kwarg, so ad-hoc calls still share one set of
    engines, indexes and node-set caches per process.  Full answer-list
    caching is *disabled* here (``cache_answers=False``): callers that never
    opted into a context keep the historical fresh-answer-trees-per-call
    semantics and cannot be bitten by the shared-read-only contract of
    :meth:`ExecutionContext.cached_answers`.
    """
    return _DEFAULT_CONTEXT


def set_default_context(context: ExecutionContext) -> ExecutionContext:
    """Replace the module default context; returns the previous one."""
    global _DEFAULT_CONTEXT
    if not isinstance(context, ExecutionContext):
        raise TypeError(f"expected an ExecutionContext, got {type(context).__name__}")
    previous = _DEFAULT_CONTEXT
    _DEFAULT_CONTEXT = context
    return previous


def resolve_context(
    context: Optional[ExecutionContext] = None,
    engine: Optional[str] = None,
    matcher: Optional[str] = None,
) -> ExecutionContext:
    """The context one call executes under.

    Precedence, mirroring the library-wide convention:

    1. per-call string overrides (``engine=`` / ``matcher=``) always win —
       they produce a mode-override *view* of the chosen context, so caches
       are still shared;
    2. an explicit per-call ``context=``;
    3. the module :func:`default_context`.
    """
    base = context if context is not None else _DEFAULT_CONTEXT
    return base.with_modes(engine=engine, matcher=matcher)


__all__ = [
    "MATCHER_CHOICES",
    "AUTO_NAIVE_COST",
    "AUTO_COLUMNAR_NODES",
    "MAX_CACHED_ANSWERS",
    "FORMULA_POOL_NODE_LIMIT",
    "require_matcher_choice",
    "ContextStats",
    "ExecutionContext",
    "default_context",
    "set_default_context",
    "resolve_context",
]
