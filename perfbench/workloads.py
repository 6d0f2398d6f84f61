"""The three benchmark workloads: ``ingest``, ``analyst`` and ``service``.

Each ``run_*`` function generates its inputs from the seed, sets the system
up (several times, reporting the median set-up time), drives the timed
phase through the public entry points, checks outputs against slow
oracles, and returns a :class:`Result`.  With ``trace=True`` it runs half
the work twice from a fresh set-up, untraced then traced, and reports the
per-layer metrics and the tracing overhead instead.

A timed phase does a fixed amount of work: the op count is sized from
``--seconds`` (so that the phase lasts about that long on the seed code),
never from the clock, so a faster program does the same work sooner and
its later ops run on the same document.  The clock only caps a phase at
:data:`CAP_FACTOR` times ``--seconds``.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import gen
from tracing import Tracer, layer_metrics, load, stats_delta

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Scratch directory for files a run hands between processes.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Untimed oracle re-evaluations per run (reads checked against ``naive``).
VERIFY_SAMPLES = 16

#: Ops per second of ``--seconds`` in a timed phase.
INGEST_STEPS_PER_S = 12
ANALYST_QUESTIONS_PER_S = 400
SERVICE_REQUESTS_PER_S = 240

#: A timed phase stops after this many times ``--seconds`` even if unfinished.
CAP_FACTOR = 3

#: Share of the work each of a traced run's two phases does.
TRACE_SHARE = 0.5

#: Client connections of the service workload.  With one closed-loop
#: connection at most one of the client, server and shard-worker processes
#: has work at a time, so they can share one CPU (see :func:`_one_cpu`).
CONNECTIONS = 1

#: The query that ends an in-process set-up: it builds the structural index.
#: The same on every seed, so that set-up costs the same on every seed.
WARM_UP_QUERY = "/warehouse/source1/movie"

#: Fixed-size document rereads on the service, per document.
SERVICE_CHECKS = (
    "/warehouse/*/movie",
    "/warehouse/*/*/title",
    "/warehouse/source1//title",
    "/warehouse/source2/person",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them.

    ``setups`` is the number of timed set-up samples (``ingest_setups`` on
    ingest, whose set-up is short; each of its samples is the mean of
    ``ingest_builds`` back-to-back set-ups).
    """

    ingest_setups: int = 7
    ingest_builds: int = 4
    setups: int = 3
    ingest_sources: int = 40
    ingest_entities: int = 1300
    analyst_sources: int = 150
    analyst_entities: int = 6000
    service_documents: int = 8
    service_sources: int = 10
    service_entities: int = 400


@dataclass
class Result:
    """What one run measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    samples: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Phase:
    """Latencies per op type plus attempted/failed counts of one timed phase."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.elapsed = 0.0
        self.capped = False

    def record(self, op: str, seconds: float, ok: bool, error: str = "") -> None:
        self.attempted += 1
        if ok:
            self.latency[op].append(seconds)
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op}: {error}")

    def mismatch(self, message: str) -> None:
        """A completed op whose output the oracle check rejected."""
        self.failed += 1
        self.errors.append(message)

    def merge(self, other: "Phase") -> None:
        for op, values in other.latency.items():
            self.latency[op].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: 5 - len(self.errors)])
        self.capped = self.capped or other.capped

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.elapsed


def percentile(values: List[float], q: int) -> float:
    """The *q*-th percentile (inclusive method) of *values*."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pid_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _count(result: Result, phase: Phase) -> None:
    """Add *phase*'s op counts and errors to *result*; note a capped phase."""
    result.attempted += phase.attempted
    result.failed += phase.failed
    result.errors.extend(phase.errors)
    if phase.capped:
        result.extra["capped_phases"] = result.extra.get("capped_phases", 0) + 1


def _end_to_end(result: Result, phase: Phase, setup_times: List[float], rss_mb: float) -> None:
    """Fill the end-to-end metrics and the report-only extras."""
    _count(result, phase)
    result.metrics["setup_s"] = statistics.median(setup_times)
    result.metrics["ops_per_s"] = phase.ops_per_s
    queries = phase.latency["query"]
    result.metrics["query_p50_ms"] = statistics.median(queries) * 1e3
    result.metrics["query_p95_ms"] = percentile(queries, 95) * 1e3
    result.metrics["peak_rss_mb"] = rss_mb
    for op in ("update", "query", "probability"):
        values = phase.latency.get(op)
        if values:
            result.samples[op] = len(values)
            result.extra[f"{op}_p50_ms"] = statistics.median(values) * 1e3
            result.extra[f"{op}_p95_ms"] = percentile(values, 95) * 1e3
    result.extra["error_rate"] = phase.failed / phase.attempted


def _work(seconds: float, per_second: int, trace: bool) -> int:
    """The fixed op count of a timed phase, sized from ``--seconds``."""
    count = max(2, round(seconds * per_second))
    return max(2, round(count * TRACE_SHARE)) if trace else count


def _timed(setup: Callable[[], object], times: List[float], builds: int = 1):
    """Set up *builds* times back to back; record the mean time, keep the last."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(builds):
        value = setup()
    times.append((time.perf_counter() - start) / builds)
    return value


def _set_up(setup: Callable[[], object], count: int, times: List[float], builds: int = 1):
    """Take *count* set-up samples; only the last system is kept."""
    for _ in range(count - 1):
        _timed(setup, times, builds)
    return _timed(setup, times, builds)


def _naive_context():
    from repro.core.context import ExecutionContext

    return ExecutionContext(matcher="naive", cache_answers=False)


def _check_answers(path: str, probtree, answers) -> Optional[str]:
    """``None`` when *answers* agree with the naive, cache-free oracle."""
    from repro.queries.evaluation import answers_isomorphic, evaluate_on_probtree
    from repro.queries.path import parse_path

    expected = evaluate_on_probtree(parse_path(path), probtree, context=_naive_context())
    if answers_isomorphic(answers, expected, tolerance=1e-9):
        return None
    return f"query {path}: {len(answers)} answers, oracle {len(expected)}"


def _check_probability(path: str, probtree, value: float) -> Optional[str]:
    from repro.queries.evaluation import boolean_probability
    from repro.queries.path import parse_path

    expected = boolean_probability(parse_path(path), probtree, context=_naive_context())
    if math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-12):
        return None
    return f"probability {path}: {value!r}, oracle {expected!r}"


def _in_child(check: Callable[[], Optional[str]]) -> Optional[str]:
    """Run *check* in a forked child process and return its message.

    The child sees this process's state as it is now, and the memory the
    check uses is the child's, so it does not count in this process's
    peak RSS, nor do spans the check records.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            message = check() or ""
        except BaseException as exc:
            message = f"check raised {exc!r}"
        with os.fdopen(write_end, "wb") as handle:
            handle.write(message.encode("utf-8"))
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as handle:
        message = handle.read().decode("utf-8")
    _, status = os.waitpid(pid, 0)
    if status != 0:
        return f"check process ended with status {status}"
    return message or None


class _Clock:
    """Active time of a phase: wall time minus the benchmark's own checks."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.paused = 0.0

    def active(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def pause(self, started: float) -> None:
        self.paused += time.perf_counter() - started


# -- ingest ------------------------------------------------------------------


def _ingest_phase(warehouse, stream, samples, cap: float) -> Phase:
    """Replay every update+query pair of *stream*, at most *cap* seconds."""
    from repro import xmlio

    phase = Phase()
    clock = time.perf_counter
    gc.collect()
    timer = _Clock()
    for step, (op, read) in enumerate(stream):
        if timer.active() >= cap:
            phase.capped = True
            break
        started = clock()
        try:
            if op["kind"] == "insert":
                subtree = xmlio.datatree_from_xml(op["subtree"])
                warehouse.insert(op["query"], subtree, confidence=op["confidence"])
            else:
                warehouse.delete(op["query"], confidence=op["confidence"])
            phase.record("update", clock() - started, True)
        except Exception as exc:  # a failed op is counted, not fatal
            phase.record("update", 0.0, False, repr(exc))
        started = clock()
        try:
            answers = warehouse.query(read)
            phase.record("query", clock() - started, True)
        except Exception as exc:
            phase.record("query", 0.0, False, repr(exc))
            continue
        if step in samples:
            checking = clock()
            mismatch = _in_child(lambda: _check_answers(read, warehouse.get(), answers))
            if mismatch:
                phase.mismatch(f"step {step}: {mismatch}")
            timer.pause(checking)
    phase.elapsed = timer.active()
    return phase


def run_ingest(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    from repro import ProbXMLWarehouse

    rng = random.Random(seed)
    xml, _ = gen.hidden_web_document(rng, sizes.ingest_sources, sizes.ingest_entities)
    steps = _work(seconds, INGEST_STEPS_PER_S, trace)
    stream = gen.ingest_stream(seed, sizes.ingest_sources, steps)
    samples = set(rng.sample(range(steps), min(VERIFY_SAMPLES, steps))) | {0}
    cap = CAP_FACTOR * seconds

    def setup():
        warehouse = ProbXMLWarehouse(xml)
        warehouse.query(WARM_UP_QUERY)
        return warehouse

    result = Result()
    if not trace:
        setup_times: List[float] = []
        warehouse = _set_up(setup, sizes.ingest_setups, setup_times, sizes.ingest_builds)
        phase = _ingest_phase(warehouse, stream, samples, cap)
        _end_to_end(result, phase, setup_times, peak_rss_mb())
        return result
    return _traced_in_process(result, setup, lambda w, _: _ingest_phase(w, stream, samples, cap))


def _traced_in_process(result: Result, setup, run_phase) -> Result:
    """Run one fixed-size phase untraced, then again traced from a fresh set-up."""
    plain = run_phase(_timed(setup, []), None)
    warehouse = _timed(setup, [])
    before = warehouse.stats.as_dict()
    with Tracer() as tracer:
        traced = run_phase(warehouse, tracer)
    delta = stats_delta(before, warehouse.stats.as_dict())
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, "spans.json"))
    for phase in (plain, traced):
        _count(result, phase)
    overhead = plain.ops_per_s / traced.ops_per_s - 1.0
    result.metrics = layer_metrics(tracer.spans, tracer.counts, delta, overhead)
    result.extra["untraced_ops_per_s"] = plain.ops_per_s
    result.extra["traced_ops_per_s"] = traced.ops_per_s
    result.extra["spans"] = len(tracer.spans)
    return result


# -- analyst -----------------------------------------------------------------


def _analyst_phase(warehouse, questions, samples, cap: float) -> Tuple[Phase, List[tuple]]:
    phase = Phase()
    kept = []
    clock = time.perf_counter
    gc.collect()
    start = clock()
    deadline = start + cap
    for index, (op, path) in enumerate(questions):
        if clock() >= deadline:
            phase.capped = True
            break
        call = warehouse.query if op == "query" else warehouse.probability
        started = clock()
        try:
            value = call(path)
            phase.record(op, clock() - started, True)
        except Exception as exc:
            phase.record(op, 0.0, False, repr(exc))
            continue
        if index in samples:
            kept.append((op, path, value))
    phase.elapsed = clock() - start
    return phase, kept


def _check_analyst(warehouse, kept, phase: Phase) -> None:
    probtree = warehouse.get()
    for op, path, value in kept:
        if op == "query":
            mismatch = _check_answers(path, probtree, value)
        else:
            mismatch = _check_probability(path, probtree, value)
        if mismatch:
            phase.mismatch(mismatch)


def run_analyst(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    from repro import ProbXMLWarehouse

    rng = random.Random(seed)
    xml, catalog = gen.hidden_web_document(rng, sizes.analyst_sources, sizes.analyst_entities)
    count = _work(seconds, ANALYST_QUESTIONS_PER_S, trace)
    questions = gen.analyst_questions(rng, catalog, sizes.analyst_sources, count)
    samples = set(rng.sample(range(count), min(VERIFY_SAMPLES, count)))
    cap = CAP_FACTOR * seconds

    def setup():
        warehouse = ProbXMLWarehouse(xml)
        warehouse.query(WARM_UP_QUERY)
        return warehouse

    result = Result()
    if not trace:
        setup_times: List[float] = []
        warehouse = _set_up(setup, sizes.setups, setup_times)
        phase, kept = _analyst_phase(warehouse, questions, samples, cap)
        rss = peak_rss_mb()
        _check_analyst(warehouse, kept, phase)
        _end_to_end(result, phase, setup_times, rss)
        return result

    def run_phase(warehouse, tracer):
        phase, kept = _analyst_phase(warehouse, questions, samples, cap)
        with tracer.paused() if tracer else nullcontext():
            _check_analyst(warehouse, kept, phase)
        return phase

    return _traced_in_process(result, setup, run_phase)


# -- service -----------------------------------------------------------------


class _Server:
    """The benchmark's server script as a child process (see ``server.py``)."""

    def __init__(self, docs_path: str, spans_path: Optional[str]) -> None:
        command = [sys.executable, os.path.join(HERE, "server.py"), "--docs", docs_path]
        if spans_path is not None:
            command += ["--spans", spans_path]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.port = int(self._expect("READY", timeout=90.0).split()[1])
        except BaseException:
            self._kill()
            raise

    def _expect(self, word: str, timeout: float = 30.0) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith(word):
            raise RuntimeError(f"server did not answer {word}: {line!r}")
        return line

    def command(self, word: str) -> None:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        self._expect("OK")

    def stop(self) -> None:
        """Ask the server to shut down and wait for it (kill if it hangs).

        Callers close their connections first.  The short pause lets the
        front-end's handlers of those connections finish closing: stopping
        while one is still closing logs an unretrieved ``CancelledError``
        from ``ServiceFrontend._handle_client``.
        """
        try:
            if self.process.poll() is None:
                time.sleep(0.2)
                self.command("stop")
            self.process.wait(timeout=30)
        finally:
            self._kill()

    def _kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


class _Client:
    """One keep-alive connection sending JSON requests, one at a time."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, endpoint: str, body: Optional[dict] = None):
        data = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if data is not None else {}
        self.connection.request(method, endpoint, body=data, headers=headers)
        response = self.connection.getresponse()
        payload = json.loads(response.read())
        return response.status, payload

    def close(self) -> None:
        self.connection.close()


_EXPECTED_KEY = {"/query": "answers", "/probability": "probability", "/update": "applied"}
_OP_NAME = {"/query": "query", "/probability": "probability", "/update": "update"}


def _drive(client: _Client, plan, deadline: float, phase: Phase, sent: List[dict]) -> None:
    """Closed loop: send the next request only after the previous reply."""
    clock = time.perf_counter
    for endpoint, body in plan:
        if clock() >= deadline:
            phase.capped = True
            return
        started = clock()
        try:
            status, payload = client.call("POST", endpoint, body)
            ok = status == 200 and _EXPECTED_KEY[endpoint] in payload
            error = "" if ok else f"HTTP {status}: {payload}"
        except (OSError, http.client.HTTPException, ValueError) as exc:
            ok, error = False, repr(exc)
        phase.record(_OP_NAME[endpoint], clock() - started, ok, error)
        if ok and endpoint == "/update":
            sent.append(body)


def _service_phase(port: int, plans, cap: float) -> Tuple[Phase, List[List[dict]], float]:
    """Run every connection's plan, at most *cap* seconds; returns the updates each applied."""
    clients = [_Client(port) for _ in plans]
    phases = [Phase() for _ in plans]
    sent: List[List[dict]] = [[] for _ in plans]
    failures: List[BaseException] = []

    def worker(index: int) -> None:
        try:
            _drive(clients[index], plans[index], deadline, phases[index], sent[index])
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(plans))]
    start = time.perf_counter()
    deadline = start + cap
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=cap + 120)
        elapsed = time.perf_counter() - start
    finally:
        for client in clients:
            client.close()
    if failures or any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"service client failed: {failures!r}")
    phase = Phase()
    for part in phases:
        phase.merge(part)
    phase.elapsed = elapsed
    client_latency = sum(sum(values) for part in phases for values in part.latency.values())
    return phase, sent, client_latency


def _check_service(port: int, docs: Dict[str, str], sent: List[List[dict]], phase: Phase) -> None:
    """Replay every document's applied updates in-process and compare rereads."""
    from repro import ProbXMLWarehouse, xmlio

    replay = ProbXMLWarehouse()
    for name, xml in docs.items():
        replay.add_document(name, xml)
    for updates in sent:
        for body in updates:
            if body["kind"] == "insert":
                replay.insert(
                    body["query"], xmlio.datatree_from_xml(body["subtree"]),
                    confidence=body["confidence"], event=body["event"], name=body["name"],
                )
            else:
                replay.delete(
                    body["query"], confidence=body["confidence"],
                    event=body["event"], name=body["name"],
                )
    client = _Client(port)
    try:
        for name in docs:
            for path in SERVICE_CHECKS:
                status, payload = client.call("POST", "/query", {"query": path, "name": name})
                served = sorted((a["xml"], a["probability"]) for a in payload.get("answers", []))
                expected = sorted(
                    (xmlio.datatree_to_xml(a.tree, pretty=False), a.probability)
                    for a in replay.query(path, name=name)
                )
                if status != 200 or len(served) != len(expected) or any(
                    s[0] != e[0] or not math.isclose(s[1], e[1], rel_tol=1e-9, abs_tol=1e-12)
                    for s, e in zip(served, expected)
                ):
                    phase.mismatch(f"replay mismatch: query {path} on {name}")
                status, payload = client.call("POST", "/probability", {"query": path, "name": name})
                expected_p = replay.probability(path, name=name)
                if status != 200 or not math.isclose(
                    payload.get("probability", -1.0), expected_p, rel_tol=1e-9, abs_tol=1e-12
                ):
                    phase.mismatch(f"replay mismatch: probability {path} on {name}")
    finally:
        client.close()


def _start_service(docs_path: str, docs: Dict[str, str], spans_path=None, times=None) -> _Server:
    """Start the server and warm every document with one query (the set-up)."""
    start = time.perf_counter()
    server = _Server(docs_path, spans_path)
    try:
        client = _Client(server.port)
        try:
            for name in docs:
                status, _ = client.call("POST", "/query", {"query": "/warehouse/source1", "name": name})
                if status != 200:
                    raise RuntimeError(f"warm-up query on {name} answered HTTP {status}")
        finally:
            client.close()
    except BaseException:
        server.stop()
        raise
    if times is not None:
        times.append(time.perf_counter() - start)
    return server


def _service_stats(port: int) -> dict:
    client = _Client(port)
    try:
        status, payload = client.call("GET", "/stats")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"/stats answered HTTP {status}")
    return payload


@contextmanager
def _one_cpu():
    """Run this process, and the processes and threads it starts, on one CPU.

    The service's processes hand each request on through sockets and pipes.
    Across two CPUs every hand-over wakes an idle CPU, which on a shared
    virtual machine takes as long as the host decides; on one CPU it is a
    plain context switch.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_service(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    with _one_cpu():
        return _run_service(seed, seconds, trace, sizes)


def _run_service(seed: int, seconds: float, trace: bool, sizes: Sizes) -> Result:
    docs, plans = gen.service_plan(
        seed, sizes.service_documents, sizes.service_sources, sizes.service_entities,
        CONNECTIONS, _work(seconds, SERVICE_REQUESTS_PER_S, trace),
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    docs_path = os.path.join(OUT_DIR, "service-docs.json")
    with open(docs_path, "w", encoding="utf-8") as handle:
        json.dump(docs, handle)
    cap = CAP_FACTOR * seconds

    result = Result()
    if not trace:
        setup_times: List[float] = []
        for _ in range(sizes.setups - 1):
            _start_service(docs_path, docs, times=setup_times).stop()
        server = _start_service(docs_path, docs, times=setup_times)
        try:
            phase, sent, _ = _service_phase(server.port, plans, cap)
            stats = _service_stats(server.port)
            pids = [server.process.pid] + [shard["pid"] for shard in stats["shards"]]
            rss = sum(_pid_peak_rss_mb(pid) for pid in pids)
            _check_service(server.port, docs, sent, phase)
        finally:
            server.stop()
        _end_to_end(result, phase, setup_times, rss)
        return result

    server = _start_service(docs_path, docs)
    try:
        plain, sent, _ = _service_phase(server.port, plans, cap)
        _check_service(server.port, docs, sent, plain)
    finally:
        server.stop()
    spans_path = os.path.join(OUT_DIR, "server-spans.json")
    server = _start_service(docs_path, docs, spans_path)
    try:
        before = _service_stats(server.port)
        server.command("reset")
        traced, sent, client_latency = _service_phase(server.port, plans, cap)
        after = _service_stats(server.port)
        server.command("pause")
        _check_service(server.port, docs, sent, traced)
    finally:
        server.stop()
    spans, counts = load(spans_path)
    for phase in (plain, traced):
        _count(result, phase)
    batching = stats_delta(before["frontend"], after["frontend"])
    # The /stats request that closes the phase is not a batched read, so
    # the front-end counters cover exactly the phase's reads.
    result.metrics = layer_metrics(
        spans, counts, stats_delta(before["stats"], after["stats"]),
        plain.ops_per_s / traced.ops_per_s - 1.0, client_latency, batching,
    )
    result.extra["untraced_ops_per_s"] = plain.ops_per_s
    result.extra["traced_ops_per_s"] = traced.ops_per_s
    result.extra["spans"] = len(spans)
    return result


WORKLOADS = {"ingest": run_ingest, "analyst": run_analyst, "service": run_service}
