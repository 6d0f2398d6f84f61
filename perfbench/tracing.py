"""A span recorder that wraps the program's public layer functions.

:class:`Tracer` replaces each traced function at every name its callers look
it up by (module globals of ``repro.*`` and class attributes), records one
span per call — name, start, end, parent — in memory, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing in the program itself is
edited.  :func:`self_times` turns spans into per-name self time (duration
minus the time child spans cover) and :func:`layer_metrics` turns spans plus
``ContextStats`` deltas into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("xmlio.parse_s", "s"),
    ("xmlio.serialize_s", "s"),
    ("updates.rewrite_s", "s"),
    ("updates.calls", "count"),
    ("probtree.copy_s", "s"),
    ("probtree.copies", "count"),
    ("probtree.set_condition_calls", "count"),
    ("trees.datatree_copy_s", "s"),
    ("trees.index_build_s", "s"),
    ("trees.index_builds", "count"),
    ("trees.index_patches", "count"),
    ("trees.column_build_s", "s"),
    ("trees.column_builds", "count"),
    ("trees.column_patches", "count"),
    ("queries.plan_compile_s", "s"),
    ("queries.match_s", "s"),
    ("queries.match_calls", "count"),
    ("queries.matches_per_call", "count"),
    ("pricing.s", "s"),
    ("pricing.formulas_evaluated", "count"),
    ("formulas.intern_hit_ratio", "ratio"),
    ("context.answer_hit_ratio", "ratio"),
    ("context.nodeset_hit_ratio", "ratio"),
    ("context.evictions", "count"),
    ("context.migrate_s", "s"),
    ("context.formulas_migrated", "count"),
    ("service.rpc_s", "s"),
    ("service.frontend_s", "s"),
    ("service.batch_mean", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _targets():
    """``(span name, owner, attribute, kind)`` for every traced function.

    ``kind`` is ``"span"`` (timed), ``"count"`` (calls counted only: these
    run too often for a span each) or ``"count_true"`` (calls whose result
    is truthy counted: a patch that took).  Imported here, not at module
    import, so that importing this module touches nothing.
    """
    import repro.core.engine as engine
    import repro.xmlio.parse as parse
    import repro.xmlio.serialize as serialize
    from repro.core.context import ExecutionContext
    from repro.core.probability import ProbabilityEngine
    from repro.core.probtree import ProbTree
    from repro.queries.plan import PatternPlan
    from repro.queries.treepattern import TreePattern
    from repro.service.router import ShardedWarehouse
    from repro.trees.columnar import ColumnarTree
    from repro.trees.datatree import DataTree
    from repro.trees.index import TreeIndex

    return (
        ("xmlio.parse", parse, "probtree_from_xml", "span"),
        ("xmlio.parse", parse, "datatree_from_xml", "span"),
        ("xmlio.serialize", serialize, "datatree_to_xml", "span"),
        ("updates.rewrite", engine, "apply_update_to_probtree", "span"),
        ("probtree.copy", ProbTree, "copy", "span"),
        ("probtree.set_condition", ProbTree, "set_condition", "count"),
        ("trees.datatree_copy", DataTree, "copy", "span"),
        ("trees.index_build", TreeIndex, "__init__", "span"),
        ("trees.index_patch", TreeIndex, "patch", "count_true"),
        ("trees.column_build", ColumnarTree, "from_tree", "span"),
        ("trees.column_patch", ColumnarTree, "patch", "count_true"),
        ("queries.plan_compile", PatternPlan, "__init__", "span"),
        ("queries.match", TreePattern, "matches", "span"),
        ("pricing", ProbabilityEngine, "probability", "span"),
        ("pricing", ProbabilityEngine, "dnf_probability", "span"),
        ("context.migrate", ExecutionContext, "migrate_answers", "span"),
        ("context.migrate", ExecutionContext, "migrate_formulas", "span"),
        ("service.rpc", ShardedWarehouse, "batch_on_shard", "span"),
        ("service.rpc", ShardedWarehouse, "insert", "span"),
        ("service.rpc", ShardedWarehouse, "delete", "span"),
    )


class Tracer:
    """In-memory spans and call counts around the program's layer functions.

    A span is ``[id, name, start, end, parent id]`` with times from
    :func:`time.perf_counter`; the parent is the innermost open span of the
    same thread (``-1`` at top level).  ``counts[name]`` counts calls and,
    for ``queries.match``, ``counts["queries.matches"]`` sums the matches
    returned.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        self.enabled = True

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def _span_wrapper(self, name: str, function: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter
        record_matches = name == "queries.match"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            span = [next(tracer._ids), name, clock(), 0.0, stack[-1][0] if stack else -1]
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                tracer.spans.append(span)
            tracer._bump(name)
            if record_matches:
                tracer._bump("queries.matches", len(result))
            return result

        return traced

    def _count_wrapper(self, name: str, function: Callable, truthy: bool) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            if tracer.enabled and (not truthy or result):
                tracer._bump(name)
            return result

        return counted

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every traced function at every name that binds it."""
        for name, owner, attribute, kind in _targets():
            raw = owner.__dict__[attribute]
            is_classmethod = isinstance(raw, classmethod)
            function = raw.__func__ if is_classmethod else raw
            if kind == "span":
                wrapper = self._span_wrapper(name, function)
            else:
                wrapper = self._count_wrapper(name, function, kind == "count_true")
            if isinstance(owner, type):
                setattr(owner, attribute, classmethod(wrapper) if is_classmethod else wrapper)
                self._restore.append(
                    lambda owner=owner, attribute=attribute, raw=raw: setattr(owner, attribute, raw)
                )
            else:
                # A module function: rebind it wherever a repro module
                # imported it by name, so callers see the wrapper.
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is function:
                            setattr(module, key, wrapper)
                            self._restore.append(
                                lambda module=module, key=key, value=value: setattr(module, key, value)
                            )
        return self

    def uninstall(self) -> None:
        """Put every original function back."""
        self.enabled = False  # a copy bound after install records nothing more
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans and counts as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def load(path: str):
    """Spans and counts written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["spans"], Counter(data["counts"])


def self_times(spans: Iterable[Sequence]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its children's intervals cover (overlapping children count once).
    """
    spans = list(spans)
    children: Dict[int, List[Sequence]] = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        span_id, name, start, end = span[0], span[1], span[2], span[3]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span_id, ()), key=lambda c: c[2]):
            low, high = max(child[2], cursor), min(child[3], end)
            if high > low:
                covered += high - low
                cursor = high
        totals[name] += (end - start) - covered
    return dict(totals)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Iterable[Sequence],
    counts: Counter,
    stats_delta: Dict[str, int],
    overhead_frac: float,
    client_latency_s: float = 0.0,
    batching: Optional[Dict[str, int]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of :data:`LAYER_METRICS` from one traced phase.

    *stats_delta* is the ``ContextStats`` difference over the phase;
    *client_latency_s* the summed client-side latency of service requests;
    *batching* the front-end's ``requests_batched``/``batches_sent`` deltas.
    """
    own = self_times(spans)
    batching = batching or {}
    rpc = own.get("service.rpc", 0.0)
    return {
        "xmlio.parse_s": own.get("xmlio.parse", 0.0),
        "xmlio.serialize_s": own.get("xmlio.serialize", 0.0),
        "updates.rewrite_s": own.get("updates.rewrite", 0.0),
        "updates.calls": counts["updates.rewrite"],
        "probtree.copy_s": own.get("probtree.copy", 0.0),
        "probtree.copies": counts["probtree.copy"],
        "probtree.set_condition_calls": counts["probtree.set_condition"],
        "trees.datatree_copy_s": own.get("trees.datatree_copy", 0.0),
        "trees.index_build_s": own.get("trees.index_build", 0.0),
        "trees.index_builds": counts["trees.index_build"],
        "trees.index_patches": counts["trees.index_patch"],
        "trees.column_build_s": own.get("trees.column_build", 0.0),
        "trees.column_builds": counts["trees.column_build"],
        "trees.column_patches": counts["trees.column_patch"],
        "queries.plan_compile_s": own.get("queries.plan_compile", 0.0),
        "queries.match_s": own.get("queries.match", 0.0),
        "queries.match_calls": counts["queries.match"],
        "queries.matches_per_call": _ratio(counts["queries.matches"], counts["queries.match"]),
        "pricing.s": own.get("pricing", 0.0),
        "pricing.formulas_evaluated": stats_delta.get("formulas_evaluated", 0),
        "formulas.intern_hit_ratio": _ratio(
            stats_delta.get("intern_hits", 0),
            stats_delta.get("intern_hits", 0) + stats_delta.get("intern_misses", 0),
        ),
        "context.answer_hit_ratio": _ratio(
            stats_delta.get("answer_cache_hits", 0),
            stats_delta.get("answer_cache_hits", 0) + stats_delta.get("answer_cache_misses", 0),
        ),
        "context.nodeset_hit_ratio": _ratio(
            stats_delta.get("nodeset_cache_hits", 0),
            stats_delta.get("nodeset_cache_hits", 0) + stats_delta.get("nodeset_cache_misses", 0),
        ),
        "context.evictions": stats_delta.get("evictions", 0),
        "context.migrate_s": own.get("context.migrate", 0.0),
        "context.formulas_migrated": stats_delta.get("formulas_migrated", 0),
        "service.rpc_s": rpc,
        "service.frontend_s": max(client_latency_s - rpc, 0.0) if client_latency_s else 0.0,
        "service.batch_mean": _ratio(
            batching.get("requests_batched", 0), batching.get("batches_sent", 0)
        ),
        "trace.overhead_frac": overhead_frac,
    }


def stats_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Counter-wise ``after - before`` of two ``ContextStats.as_dict()`` snapshots."""
    return {key: after[key] - before.get(key, 0) for key in after}
