"""The asyncio JSON front-end: endpoints, batching counters, error paths."""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.service.http import ServiceFrontend
from repro.service.router import ShardedWarehouse
from repro.xmlio import datatree_to_xml

pytestmark = pytest.mark.service

ALPHA = '<node label="A"><node label="B"/></node>'
BETA = '<node label="A"><node label="C"/><node label="C"/></node>'


@pytest.fixture(scope="module")
def service():
    with ShardedWarehouse(shards=2) as warehouse:
        warehouse.add_document("alpha", ALPHA)
        warehouse.add_document("beta", BETA)
        with ServiceFrontend(warehouse) as frontend:
            yield warehouse, frontend


def _request(frontend, method, path, payload=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", frontend.port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz_reports_live_shards(self, service):
        _, frontend = service
        status, payload = _request(frontend, "GET", "/healthz")
        assert status == 200
        assert payload == {"ok": True}

    def test_query_matches_the_router(self, service):
        warehouse, frontend = service
        status, payload = _request(
            frontend, "POST", "/query", {"query": "/A/B", "name": "alpha"}
        )
        assert status == 200
        direct = warehouse.query("/A/B", name="alpha")
        assert payload["answers"] == [
            {
                "xml": datatree_to_xml(answer.tree, pretty=False),
                "probability": answer.probability,
            }
            for answer in direct
        ]

    def test_probability_matches_the_router(self, service):
        warehouse, frontend = service
        status, payload = _request(
            frontend, "POST", "/probability", {"query": "/A/C", "name": "beta"}
        )
        assert status == 200
        assert payload["probability"] == warehouse.probability("/A/C", name="beta")

    def test_update_insert_is_visible_to_subsequent_reads(self, service):
        warehouse, frontend = service
        status, payload = _request(
            frontend,
            "POST",
            "/update",
            {
                "kind": "insert",
                "query": "/A",
                "subtree": '<node label="D"/>',
                "confidence": 0.5,
                "event": "http-insert",
                "name": "alpha",
            },
        )
        assert status == 200
        assert payload == {"applied": True, "event": "http-insert"}
        status, read_back = _request(
            frontend, "POST", "/probability", {"query": "/A/D", "name": "alpha"}
        )
        assert status == 200
        assert read_back["probability"] == pytest.approx(0.5)
        # The mutation went through the router (not the batch path), so the
        # crash-recovery oplog recorded it.
        assert any(op == "apply" for op, _ in warehouse._oplogs["alpha"])

    def test_stats_reports_merged_counters_and_shard_detail(self, service):
        warehouse, frontend = service
        status, payload = _request(frontend, "GET", "/stats")
        assert status == 200
        assert sorted(payload["documents"]) == ["alpha", "beta"]
        assert len(payload["shards"]) == 2
        pids = {entry["pid"] for entry in payload["shards"]}
        assert len(pids) == 2  # genuinely separate worker processes
        merged_hits = payload["stats"]["intern_hits"] + payload["stats"]["intern_misses"]
        assert merged_hits == sum(
            entry["stats"]["intern_hits"] + entry["stats"]["intern_misses"]
            for entry in warehouse.shard_stats()
        )
        assert payload["frontend"]["batches_sent"] >= 1
        assert (
            payload["frontend"]["requests_batched"]
            >= payload["frontend"]["batches_sent"]
        )


class TestBatching:
    def test_concurrent_reads_share_round_trips(self, service):
        _, frontend = service
        before_requests = frontend.requests_batched
        before_batches = frontend.batches_sent
        total = 12
        results = []
        errors = []

        def read(index):
            try:
                name = "alpha" if index % 2 else "beta"
                results.append(
                    _request(
                        frontend,
                        "POST",
                        "/probability",
                        {"query": "/A", "name": name},
                    )
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(total)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == total
        assert all(status == 200 for status, _ in results)
        served = frontend.requests_batched - before_requests
        sent = frontend.batches_sent - before_batches
        assert served == total
        # Batching can never cost extra round-trips; under this concurrency
        # it usually wins (sent < served), but that part is timing-dependent.
        assert 1 <= sent <= served


class TestErrorPaths:
    def test_unknown_document_is_a_typed_400(self, service):
        _, frontend = service
        status, payload = _request(
            frontend, "POST", "/query", {"query": "/A", "name": "nope"}
        )
        assert status == 400
        assert "no document named" in payload["error"]
        assert payload["type"] == "ProbXMLError"

    def test_ambiguous_name_resolution_is_a_typed_400(self, service):
        _, frontend = service
        status, payload = _request(frontend, "POST", "/probability", {"query": "/A"})
        assert status == 400
        assert "pass name=" in payload["error"]

    def test_missing_query_field(self, service):
        _, frontend = service
        status, payload = _request(frontend, "POST", "/query", {"name": "alpha"})
        assert status == 400
        assert "query" in payload["error"]

    def test_invalid_json_body(self, service):
        _, frontend = service
        connection = http.client.HTTPConnection(
            "127.0.0.1", frontend.port, timeout=30
        )
        try:
            connection.request("POST", "/query", body="{not json")
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            assert response.status == 400
            assert "JSON" in payload["error"]
        finally:
            connection.close()

    def test_update_kind_is_validated(self, service):
        _, frontend = service
        status, payload = _request(
            frontend, "POST", "/update", {"kind": "upsert", "query": "/A"}
        )
        assert status == 400
        assert "insert" in payload["error"]

    def test_insert_requires_a_subtree(self, service):
        _, frontend = service
        status, payload = _request(
            frontend,
            "POST",
            "/update",
            {"kind": "insert", "query": "/A", "name": "alpha"},
        )
        assert status == 400
        assert "subtree" in payload["error"]

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ({"confidence": "high"}, "confidence"),
            ({"confidence": True}, "confidence"),
            ({"confidence": None}, "confidence"),
            ({"subtree": '<node label="D">'}, "malformed XML"),
            ({"subtree": 42}, "expected XML text"),
            ({"subtree": {"label": "D"}}, "expected XML text"),
        ],
    )
    def test_bad_update_fields_are_a_400(self, service, fields, fragment):
        warehouse, frontend = service
        request = {
            "kind": "insert",
            "query": "/A",
            "subtree": '<node label="E"/>',
            "name": "beta",
            **fields,
        }
        before = warehouse.probability("/A/E", name="beta")
        status, payload = _request(frontend, "POST", "/update", request)
        assert status == 400
        assert fragment in payload["error"]
        assert warehouse.probability("/A/E", name="beta") == before

    @pytest.mark.parametrize("path", ["/query", "/probability"])
    @pytest.mark.parametrize("matcher", ["indexed", "columnar", "auto"])
    def test_retired_matcher_names_are_a_typed_400(self, service, path, matcher):
        _, frontend = service
        status, payload = _request(
            frontend, "POST", path, {"query": "/A/C", "name": "beta", "matcher": matcher}
        )
        assert status == 400
        assert payload["type"] == "QueryError"
        assert "unknown matcher" in payload["error"]

    @pytest.mark.parametrize("path", ["/query", "/probability"])
    def test_naive_matcher_answers_like_the_fast_path(self, service, path):
        _, frontend = service
        request = {"query": "/A/C", "name": "beta"}
        fast = _request(frontend, "POST", path, request)
        naive = _request(frontend, "POST", path, {**request, "matcher": "naive"})
        assert fast[0] == naive[0] == 200
        assert fast[1] == naive[1]

    def test_unknown_endpoint_404(self, service):
        _, frontend = service
        status, payload = _request(frontend, "GET", "/nope")
        assert status == 404
        assert "/nope" in payload["error"]

    def test_wrong_method_405(self, service):
        _, frontend = service
        assert _request(frontend, "POST", "/healthz")[0] == 405
        assert _request(frontend, "GET", "/query")[0] == 405


class TestConnectionHandling:
    def test_keep_alive_serves_several_requests_per_connection(self, service):
        _, frontend = service
        connection = http.client.HTTPConnection(
            "127.0.0.1", frontend.port, timeout=30
        )
        try:
            for _ in range(3):
                connection.request(
                    "POST",
                    "/probability",
                    body=json.dumps({"query": "/A", "name": "alpha"}),
                )
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()

    def test_oversized_body_is_rejected(self, service):
        _, frontend = service
        connection = http.client.HTTPConnection(
            "127.0.0.1", frontend.port, timeout=30
        )
        try:
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Length", str((8 << 20) + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
        finally:
            connection.close()

    def test_double_start_is_a_typed_error(self, service):
        _, frontend = service
        from repro.utils.errors import ProbXMLError

        with pytest.raises(ProbXMLError, match="already running"):
            frontend.start()


def _raw_exchange(frontend, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection.

    ``http.client`` refuses to emit the malformed headers these regressions
    need, so the tests speak straight TCP.
    """
    with socket.create_connection(("127.0.0.1", frontend.port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        sock.settimeout(30)
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
        return b"".join(chunks)


class TestRequestParsing:
    """Regressions for the Content-Length crash: the connection task used to
    die on ``int()`` / ``readexactly(<0)`` with no response at all, so every
    assertion here that a 400 (or 200) arrives is the fix."""

    def test_non_numeric_content_length_is_a_400(self, service):
        _, frontend = service
        response = _raw_exchange(
            frontend,
            b"POST /query HTTP/1.1\r\n"
            b"Content-Length: banana\r\n"
            b"\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"malformed Content-Length" in response
        assert b"banana" in response

    def test_negative_content_length_is_a_400(self, service):
        _, frontend = service
        response = _raw_exchange(
            frontend,
            b"POST /query HTTP/1.1\r\n"
            b"Content-Length: -5\r\n"
            b"\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"negative Content-Length" in response

    def test_absent_content_length_means_empty_body(self, service):
        _, frontend = service
        response = _raw_exchange(
            frontend,
            b"POST /query HTTP/1.1\r\n"
            b"Connection: close\r\n"
            b"\r\n",
        )
        # An empty body cannot carry a query — but the request is parsed
        # fine and answered with a typed error, not dropped.
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"query" in response

    def test_empty_content_length_value_is_empty_body(self, service):
        _, frontend = service
        response = _raw_exchange(
            frontend,
            b"GET /healthz HTTP/1.1\r\n"
            b"Content-Length: \r\n"
            b"Connection: close\r\n"
            b"\r\n",
        )
        assert response.startswith(b"HTTP/1.1 200 ")

    def test_connection_survives_a_content_length_400(self, service):
        """The 400 is written back before the server closes its side."""
        _, frontend = service
        response = _raw_exchange(
            frontend,
            b"POST /query HTTP/1.1\r\n"
            b"Content-Length: 1e3\r\n"
            b"\r\n",
        )
        assert b"Connection: close" in response


class TestHttp10Defaults:
    def test_http_1_0_defaults_to_close(self, service):
        _, frontend = service
        response = _raw_exchange(
            frontend,
            b"GET /healthz HTTP/1.0\r\n"
            b"\r\n",
        )
        # One response, Connection: close advertised, then EOF (the
        # _raw_exchange loop only returns once the server closes).
        assert response.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in response
        assert response.count(b"HTTP/1.1") == 1

    def test_http_1_0_explicit_keep_alive_is_honored(self, service):
        _, frontend = service
        with socket.create_connection(
            ("127.0.0.1", frontend.port), timeout=30
        ) as sock:
            request = (
                b"GET /healthz HTTP/1.0\r\n"
                b"Connection: keep-alive\r\n"
                b"\r\n"
            )
            for _ in range(2):
                sock.sendall(request)
                header = b""
                while b"\r\n\r\n" not in header:
                    data = sock.recv(65536)
                    assert data, "server closed a keep-alive connection"
                    header += data
                head, _, rest = header.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 ")
                assert b"Connection: keep-alive" in head
                length = int(
                    [
                        line.split(b":", 1)[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                while len(rest) < length:
                    rest += sock.recv(65536)

    def test_http_1_1_still_defaults_to_keep_alive(self, service):
        _, frontend = service
        with socket.create_connection(
            ("127.0.0.1", frontend.port), timeout=30
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            header = b""
            while b"\r\n\r\n" not in header:
                data = sock.recv(65536)
                assert data
                header += data
            assert b"Connection: keep-alive" in header.partition(b"\r\n\r\n")[0]

    def test_transport_is_fully_closed_after_close(self, service):
        """`wait_closed` regression: after a Connection: close exchange the
        server actually finishes the TCP teardown (EOF at the client)."""
        _, frontend = service
        with socket.create_connection(
            ("127.0.0.1", frontend.port), timeout=30
        ) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            chunks = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks += data
            assert chunks.startswith(b"HTTP/1.1 200 ")
