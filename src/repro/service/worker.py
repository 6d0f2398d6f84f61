"""The shard worker: one subprocess, one disjoint slice of the corpus.

A worker owns a private :class:`~repro.core.engine.ProbXMLWarehouse` — and
through it a private :class:`~repro.core.context.ExecutionContext` and
:class:`~repro.formulas.ir.FormulaPool` — holding exactly the documents the
router hashed to this shard.  It serves requests over length-prefixed pickle
frames on stdin/stdout (:mod:`repro.service.protocol`): read a ``(rid, op,
payload)`` request, dispatch it against the warehouse, write ``(rid, True,
value)`` or ``(rid, False, encoded_error)``.  Library exceptions therefore
*survive the wire typed* — a budget trip inside the worker is a
:class:`~repro.utils.errors.BudgetExceededError` at the router.

Two details keep the frame stream trustworthy:

* ``sys.stdout`` is rebound to stderr for the worker's lifetime, so a stray
  ``print`` anywhere in the library lands in the parent's stderr instead of
  corrupting a frame header;
* fault injection for the router's crash-recovery path rides the
  ``"service.worker"`` site of :mod:`repro.utils.faults`: the router arms a
  plan over the wire (``arm_fault``), the worker crosses the site once per
  request, and an :class:`~repro.utils.errors.InjectedFault` makes the
  process **hard-exit** (``os._exit(70)``, no response frame, no cleanup) —
  exactly what a kill -9 mid-request looks like from the router's side.
  Arming a deeper site (say ``"datatree.add_child"``) crashes mid-mutation
  instead; the transactional undo log has already rolled the document back
  by the time the process dies, so replay-from-sources stays exact.

Workers are long-lived, so streaming corpora benefit directly from
journal-patched index and column maintenance: an update op followed by a
query patches the shard's cached index (or, on documents large enough for
the columnar fast path, its column) forward instead of rebuilding it, and
the ``stats`` op reports the warehouse's counters over the wire
(``auto_chose_indexed`` / ``auto_chose_columnar``, ``columns_patched`` /
``column_rebuilds``) so the router's merged view shows the policy working
per shard.

Run directly (``python -m repro.service.worker``) or through the CLI
(``python -m repro.cli shard``); the router spawns one per shard.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Optional

from repro.core.context import ExecutionContext
from repro.core.engine import ProbXMLWarehouse
from repro.service.protocol import encode_error, read_frame, write_frame
from repro.utils.errors import InjectedFault, ProbXMLError
from repro.utils.faults import FaultPlan, activated, fire

#: Exit status of an injected hard crash (distinct from error exits so the
#: harness can assert the worker died the way it was told to).
CRASH_EXIT_CODE = 70


class ShardWorker:
    """Dispatches wire ops against this shard's private warehouse."""

    def __init__(self) -> None:
        self.warehouse: Optional[ProbXMLWarehouse] = None
        self.crash_plan: Optional[FaultPlan] = None

    # -- configuration -----------------------------------------------------

    def _configure(self, payload: Dict[str, Any]):
        context = ExecutionContext(
            engine=payload.get("engine"),
            matcher=payload.get("matcher"),
            max_cached_answers=payload.get("max_cached_answers"),
            pricing=payload.get("pricing"),
            snapshot_retention=payload.get("snapshot_retention"),
            formula_pool_node_limit=payload.get("formula_pool_node_limit"),
        )
        self.warehouse = ProbXMLWarehouse(
            context=context, isolation=payload.get("isolation", "snapshot")
        )
        return {"pid": os.getpid()}

    def _arm_fault(self, payload: Dict[str, Any]):
        plan = FaultPlan().arm(
            payload["site"],
            at=payload.get("at", 1),
            action=payload.get("action", "raise"),
            delay=payload.get("delay", 0.0),
        )
        self.crash_plan = plan
        return sorted(plan.armed_sites)

    def _disarm_faults(self, payload: Dict[str, Any]):
        self.crash_plan = None
        return None

    # -- dispatch ----------------------------------------------------------

    def _require_warehouse(self) -> ProbXMLWarehouse:
        if self.warehouse is None:
            raise ProbXMLError(
                "shard worker is not configured; send a 'configure' op first"
            )
        return self.warehouse

    def dispatch(self, op: str, payload: Dict[str, Any]) -> Any:
        if op == "configure":
            return self._configure(payload)
        if op == "arm_fault":
            return self._arm_fault(payload)
        if op == "disarm_faults":
            return self._disarm_faults(payload)
        if op == "ping":
            return {"pid": os.getpid(), "configured": self.warehouse is not None}
        if op == "batch":
            # Per-item success/failure: one bad request must not poison the
            # rest of an HTTP batch that happened to share its round-trip.
            results = []
            for item_op, item_payload in payload["requests"]:
                try:
                    results.append((True, self.dispatch(item_op, item_payload)))
                except InjectedFault:
                    raise
                except Exception as exc:
                    results.append((False, encode_error(exc)))
            return results

        warehouse = self._require_warehouse()
        common = {
            key: payload[key]
            for key in ("name", "engine", "matcher")
            if payload.get(key) is not None
        }
        if op == "query":
            return warehouse.query(payload["query"], **common)
        if op == "query_many":
            return warehouse.query_many(payload["queries"], **common)
        if op == "query_all":
            common.pop("name", None)
            return warehouse.query_all(payload["query"], **common)
        if op == "top_answers":
            return warehouse.top_answers(
                payload["query"], count=payload.get("count", 3),
                name=payload.get("name"),
            )
        if op == "probability":
            return warehouse.probability(payload["query"], **common)
        if op == "probability_all":
            common.pop("name", None)
            return warehouse.probability_all(payload["query"], **common)
        if op == "probability_anytime":
            return warehouse.probability_anytime(
                payload["query"],
                **common,
                epsilon=payload.get("epsilon"),
                confidence=payload.get("confidence"),
                max_samples=payload.get("max_samples"),
                deadline=payload.get("deadline"),
                seed=payload.get("seed"),
            )
        if op == "add_document":
            warehouse.add_document(
                payload["name"], payload["document"],
                replace=payload.get("replace", False),
            )
            return None
        if op == "drop":
            return warehouse.drop(payload["name"])
        if op == "get":
            return warehouse.get(payload.get("name"))
        if op == "names":
            return warehouse.names()
        if op == "size":
            return warehouse.size(payload.get("name"))
        if op == "event_count":
            return warehouse.event_count(payload.get("name"))
        if op == "apply":
            warehouse.apply(payload["update"], name=payload.get("name"))
            return None
        if op == "clean":
            warehouse.clean(payload.get("name"))
            return None
        if op == "prune_below":
            warehouse.prune_below(payload["threshold"], name=payload.get("name"))
            return None
        if op == "possible_worlds":
            return warehouse.possible_worlds(
                normalize=payload.get("normalize", True), name=payload.get("name")
            )
        if op == "most_probable_worlds":
            return warehouse.most_probable_worlds(
                count=payload.get("count", 3), name=payload.get("name")
            )
        if op == "dtd_satisfiable":
            return warehouse.dtd_satisfiable(payload["dtd"], name=payload.get("name"))
        if op == "dtd_valid":
            return warehouse.dtd_valid(payload["dtd"], name=payload.get("name"))
        if op == "dtd_probability":
            return warehouse.dtd_probability(payload["dtd"], name=payload.get("name"))
        if op == "stats":
            stats = warehouse.stats.as_dict()
            return {
                "stats": stats,
                "pool_nodes": warehouse.context.formula_pool.node_count(),
                "documents": len(warehouse),
                "pid": os.getpid(),
            }
        if op == "gc_pool":
            return warehouse.context.gc_formula_pool()
        if op == "pool_node_count":
            return warehouse.context.formula_pool.node_count()
        raise ProbXMLError(f"shard worker does not understand op {op!r}")


def worker_main(stdin=None, stdout=None) -> int:
    """Serve frames until the pipe closes or a ``shutdown`` op arrives."""
    inp = stdin if stdin is not None else sys.stdin.buffer
    out = stdout if stdout is not None else sys.stdout.buffer
    # Anything the library prints must not interleave with frame bytes.
    sys.stdout = sys.stderr
    worker = ShardWorker()
    while True:
        try:
            rid, op, payload = read_frame(inp)
        except EOFError:
            return 0
        if op == "shutdown":
            try:
                write_frame(out, (rid, True, None))
            except OSError:
                pass  # the router may close its end without reading the ack
            return 0
        stats = worker.warehouse.stats if worker.warehouse is not None else None
        try:
            # The plan is captured before dispatch: an arm_fault request
            # installs its plan for the *next* request, not its own.
            with activated(worker.crash_plan, stats):
                fire("service.worker")
                value = worker.dispatch(op, payload)
            write_frame(out, (rid, True, value))
            # Drop the reference: a lingering result (say, a drop's returned
            # prob-tree) would keep its engine — and through the engine's
            # memo, swept-able pool nodes — alive across the next gc_pool.
            value = None
        except InjectedFault:
            # Simulate a hard crash: no response, no cleanup, no goodbye.
            sys.stderr.flush()
            os._exit(CRASH_EXIT_CODE)
        except OSError:
            return 1  # the router went away mid-response; nothing to serve
        except Exception as exc:
            write_frame(out, (rid, False, encode_error(exc)))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(worker_main())
