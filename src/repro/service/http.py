"""Stdlib-only asyncio JSON front-end over a :class:`ShardedWarehouse`.

:class:`ServiceFrontend` serves five endpoints:

* ``POST /query`` — ``{"query": "/A/B", "name"?, "engine"?, "matcher"?}`` →
  ``{"answers": [{"xml": ..., "probability": ...}, ...]}``
* ``POST /probability`` — same request shape → ``{"probability": p}``
* ``POST /update`` — ``{"kind": "insert"|"delete", "query": ...,
  "subtree"? (XML, insertions), "at"?, "confidence"?, "event"?, "name"?}`` →
  ``{"applied": true}``
* ``GET /stats`` — merged corpus-wide counters plus per-shard detail
* ``GET /healthz`` — liveness of every shard worker

Read requests are **batched per shard**: a request parks on its target
shard's queue, and a per-shard consumer drains everything pending into one
:meth:`~repro.service.router.ShardedWarehouse.batch_on_shard` round-trip —
under concurrent load, N in-flight reads for a shard cost one frame, not N.
Each batched item is still one warehouse call on the worker, so in snapshot
isolation every read pins its own document snapshot: a read admitted while
an update commits sees entirely-before or entirely-after, never a torn mix.
Mutations bypass the batch path on purpose — they go through the router's
normal methods so its crash-recovery oplog records them.

The HTTP surface is deliberately minimal (request line + headers +
``Content-Length`` bodies, keep-alive, JSON both ways) — enough for curl,
load generators and the differential tests, with zero dependencies.  The
pickle protocol never touches the network: this layer re-encodes to JSON.

Run it in-process (``frontend.start()`` spins a daemon thread; ``stop()``
tears it down) or via ``python -m repro.cli serve``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Tuple

from repro.core.context import ContextStats
from repro.service.router import ShardedWarehouse
from repro.utils.errors import ProbXMLError
from repro.xmlio import datatree_from_xml, datatree_to_xml

#: Upper bound on reads collapsed into one shard round-trip.
MAX_BATCH = 64

#: Refuse request bodies larger than this (the service parses JSON eagerly).
MAX_BODY_BYTES = 8 << 20


def _json_answers(answers) -> list:
    return [
        {"xml": datatree_to_xml(answer.tree, pretty=False), "probability": answer.probability}
        for answer in answers
    ]


class ServiceFrontend:
    """An asyncio HTTP/1.1 JSON server in front of a sharded warehouse.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  The server runs its own event loop in a daemon thread,
    so tests and the CLI share one code path — blocking warehouse calls are
    pushed onto the default executor, keeping the loop responsive while a
    shard prices an expensive query.
    """

    def __init__(
        self,
        warehouse: ShardedWarehouse,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = MAX_BATCH,
    ) -> None:
        self._warehouse = warehouse
        self.host = host
        self.port = port
        self._max_batch = max_batch
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._queues: Dict[int, asyncio.Queue] = {}
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        #: Round-trips actually sent vs read requests served — the batching
        #: win is visible as requests_batched exceeding batches_sent.
        self.requests_batched = 0
        self.batches_sent = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServiceFrontend":
        """Start serving in a background thread; returns once bound."""
        if self._thread is not None:
            raise ProbXMLError("the service front-end is already running")
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service-frontend", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            raise error
        return self

    def stop(self) -> None:
        """Stop the server thread; idempotent."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(self._stop_event.set)
        thread.join(timeout=10)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "ServiceFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # pragma: no cover - startup races only
            self._startup_error = exc
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._handle_client, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        consumers = [
            asyncio.ensure_future(self._shard_consumer(shard.index))
            for shard in self._warehouse._shards
        ]
        self._started.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            for task in consumers:
                task.cancel()

    # -- per-shard batching ------------------------------------------------

    def _queue_for(self, index: int) -> asyncio.Queue:
        queue = self._queues.get(index)
        if queue is None:
            queue = self._queues[index] = asyncio.Queue()
        return queue

    async def _shard_consumer(self, index: int) -> None:
        queue = self._queue_for(index)
        while True:
            first = await queue.get()
            batch = [first]
            while len(batch) < self._max_batch:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            requests = [(op, payload) for op, payload, _ in batch]
            self.requests_batched += len(batch)
            self.batches_sent += 1
            try:
                results = await asyncio.get_running_loop().run_in_executor(
                    None, self._warehouse.batch_on_shard, index, requests
                )
            except Exception as exc:
                for _, _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for (_, _, future), (ok, value) in zip(batch, results):
                if future.done():
                    continue
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)

    async def _batched_read(self, op: str, payload: Dict[str, Any]) -> Any:
        """Route one read op through the owning shard's batch queue."""
        # Name resolution happens here (typed errors before any frame is
        # sent), using the router's registry under the same rules as the
        # single-process warehouse.
        resolved = self._warehouse._resolve_name(payload.get("name"))
        payload = dict(payload, name=resolved)
        index = self._warehouse._documents[resolved]
        future = asyncio.get_running_loop().create_future()
        await self._queue_for(index).put((op, payload, future))
        return await future

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, path, _version = request_line.decode("latin-1").split()
                except ValueError:
                    await self._respond(writer, 400, {"error": "malformed request line"})
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                raw_length = headers.get("content-length", "").strip()
                try:
                    length = int(raw_length) if raw_length else 0
                except ValueError:
                    await self._respond(
                        writer, 400,
                        {"error": f"malformed Content-Length: {raw_length!r}"},
                    )
                    break
                if length < 0:
                    await self._respond(
                        writer, 400,
                        {"error": f"negative Content-Length: {length}"},
                    )
                    break
                if length > MAX_BODY_BYTES:
                    await self._respond(writer, 413, {"error": "request body too large"})
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._dispatch(method, path, body)
                connection = headers.get("connection", "").lower()
                if _version.upper() == "HTTP/1.0":
                    # HTTP/1.0 defaults to close; only an explicit keep-alive
                    # token holds the connection open.
                    keep_alive = connection == "keep-alive"
                else:
                    keep_alive = connection != "close"
                await self._respond(writer, status, payload, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(self, writer, status: int, payload, keep_alive: bool = False):
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 413: "Payload Too Large",
                   500: "Internal Server Error", 503: "Service Unavailable"}
        data = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # -- endpoints ---------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, Any]:
        try:
            if path == "/healthz":
                if method != "GET":
                    return 405, {"error": "use GET"}
                alive = await asyncio.get_running_loop().run_in_executor(
                    None, self._warehouse.healthy
                )
                return (200 if alive else 503), {"ok": alive}
            if path == "/stats":
                if method != "GET":
                    return 405, {"error": "use GET"}
                return 200, await asyncio.get_running_loop().run_in_executor(
                    None, self._stats_payload
                )
            if path in ("/query", "/probability", "/update"):
                if method != "POST":
                    return 405, {"error": "use POST"}
                try:
                    request = json.loads(body.decode("utf-8")) if body else {}
                except (ValueError, UnicodeDecodeError):
                    return 400, {"error": "request body is not valid JSON"}
                if not isinstance(request, dict):
                    return 400, {"error": "request body must be a JSON object"}
                if path == "/query":
                    return await self._endpoint_query(request)
                if path == "/probability":
                    return await self._endpoint_probability(request)
                return await self._endpoint_update(request)
            return 404, {"error": f"no such endpoint: {path}"}
        except ProbXMLError as exc:
            return 400, {"error": str(exc), "type": type(exc).__name__}
        except Exception as exc:  # a worker bug must not kill the server
            return 500, {"error": str(exc), "type": type(exc).__name__}

    async def _endpoint_query(self, request: Dict[str, Any]) -> Tuple[int, Any]:
        if "query" not in request:
            return 400, {"error": "missing required field 'query'"}
        answers = await self._batched_read(
            "query",
            {
                "query": request["query"],
                "name": request.get("name"),
                "engine": request.get("engine"),
                "matcher": request.get("matcher"),
            },
        )
        return 200, {"answers": _json_answers(answers)}

    async def _endpoint_probability(self, request: Dict[str, Any]) -> Tuple[int, Any]:
        if "query" not in request:
            return 400, {"error": "missing required field 'query'"}
        probability = await self._batched_read(
            "probability",
            {
                "query": request["query"],
                "name": request.get("name"),
                "engine": request.get("engine"),
                "matcher": request.get("matcher"),
            },
        )
        return 200, {"probability": probability}

    async def _endpoint_update(self, request: Dict[str, Any]) -> Tuple[int, Any]:
        kind = request.get("kind")
        if kind not in ("insert", "delete"):
            return 400, {"error": "field 'kind' must be 'insert' or 'delete'"}
        if "query" not in request:
            return 400, {"error": "missing required field 'query'"}
        loop = asyncio.get_running_loop()
        confidence = request.get("confidence", 1.0)
        if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
            return 400, {"error": "field 'confidence' must be a number"}
        event = request.get("event")
        name = request.get("name")
        if kind == "insert":
            if "subtree" not in request:
                return 400, {"error": "insert requires a 'subtree' (XML string)"}
            # Malformed or non-string XML raises InvalidTreeError: a 400.
            subtree = datatree_from_xml(request["subtree"])
            update = await loop.run_in_executor(
                None,
                lambda: self._warehouse.insert(
                    request["query"], subtree, at=request.get("at"),
                    confidence=confidence, event=event, name=name,
                ),
            )
        else:
            update = await loop.run_in_executor(
                None,
                lambda: self._warehouse.delete(
                    request["query"], at=request.get("at"),
                    confidence=confidence, event=event, name=name,
                ),
            )
        return 200, {"applied": True, "event": update.event}

    def _stats_payload(self) -> Dict[str, Any]:
        shards = self._warehouse.shard_stats()
        merged = ContextStats()
        for entry in shards:
            merged.merge(entry["stats"])
        return {
            "stats": merged.as_dict(),
            "shards": [
                {
                    "pool_nodes": entry["pool_nodes"],
                    "documents": entry["documents"],
                    "pid": entry["pid"],
                }
                for entry in shards
            ],
            "documents": list(self._warehouse.names()),
            "frontend": {
                "requests_batched": self.requests_batched,
                "batches_sent": self.batches_sent,
            },
        }
