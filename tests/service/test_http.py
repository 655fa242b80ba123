"""Tests for the HTTP front end (routing, errors, headers, batch)."""

import http.client
import json
import statistics
import time

from repro.service import METRICS_SCHEMA_V2, response_problems

from .conftest import http_call, post_json, small_request


class TestEndpoints:
    def test_healthz(self, live_server):
        _, base = live_server()
        status, _, doc = http_call(f"{base}/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["draining"] is False

    def test_metrics_schema_and_shape(self, live_server):
        _, base = live_server()
        status, _, doc = http_call(f"{base}/metrics")
        assert status == 200
        assert doc["schema"] == METRICS_SCHEMA_V2
        assert "counters" in doc["scheduler"]
        assert "perf" in doc
        assert doc["cache"] is not None  # caching on by default

    def test_unknown_path_404(self, live_server):
        _, base = live_server()
        status, _, doc = http_call(f"{base}/v2/plan")
        assert status == 404
        assert doc["error"]["code"] == "not-found"

    def test_post_to_get_endpoint_405(self, live_server):
        _, base = live_server()
        status, _, doc = http_call(f"{base}/healthz", b"{}")
        assert status == 405
        assert doc["error"]["code"] == "method-not-allowed"


class TestKeepAlive:
    def test_back_to_back_requests_do_not_wait_for_delayed_ack(
            self, live_server):
        # Headers and body leave in separate writes; with Nagle's
        # algorithm on, each kept-alive response stalls until the
        # client's delayed ACK (40 ms on Linux).
        server, _ = live_server()
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10)
        try:
            latencies = []
            for _ in range(11):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read())
                latencies.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(latencies[1:]) < 0.020


class TestPlanEndpoint:
    def test_ok_response_and_headers(self, live_server):
        _, base = live_server()
        status, headers, doc = post_json(f"{base}/v1/plan",
                                         small_request())
        assert status == 200
        assert response_problems(doc) == []
        assert doc["cache"] == "miss"
        assert headers["X-BC-Cache"] == "miss"
        assert headers["X-BC-Request-SHA256"] == \
            doc["payload"]["request_sha256"]
        assert doc["provenance"]["request_sha256"] == \
            doc["payload"]["request_sha256"]

    def test_malformed_json_400(self, live_server):
        _, base = live_server()
        status, _, doc = http_call(f"{base}/v1/plan", b"{broken")
        assert status == 400
        assert doc["error"]["code"] == "invalid-json"

    def test_invalid_request_400_with_problems(self, live_server):
        _, base = live_server()
        status, _, doc = post_json(f"{base}/v1/plan",
                                   small_request(radius_m=-1.0))
        assert status == 400
        assert doc["error"]["code"] == "invalid-request"
        assert doc["error"]["problems"]

    def test_unknown_planner_400(self, live_server):
        _, base = live_server()
        status, _, doc = post_json(f"{base}/v1/plan",
                                   small_request(planner="NOPE"))
        assert status == 400
        assert doc["error"]["code"] == "unknown-planner"

    def test_planner_allowlist_enforced(self, live_server):
        _, base = live_server(planners=("SC",))
        status, _, doc = post_json(f"{base}/v1/plan", small_request())
        assert status == 400
        assert doc["error"]["code"] == "planner-not-served"
        status, _, doc = post_json(f"{base}/v1/plan",
                                   small_request(planner="SC"))
        assert status == 200

    def test_oversized_body_413(self, live_server):
        _, base = live_server(max_body_bytes=64)
        status, _, doc = http_call(f"{base}/v1/plan",
                                   json.dumps(small_request()).encode())
        assert status == 413
        assert doc["error"]["code"] == "payload-too-large"

    def test_cache_off_server_reports_off(self, live_server):
        _, base = live_server(use_cache=False)
        for _ in range(2):
            status, headers, doc = post_json(f"{base}/v1/plan",
                                             small_request())
            assert status == 200
            assert doc["cache"] == "off"
            assert headers["X-BC-Cache"] == "off"


class TestBatchEndpoint:
    def test_mixed_batch(self, live_server):
        _, base = live_server()
        batch = {"requests": [small_request(),
                              small_request(planner="NOPE"),
                              small_request(seed=2)]}
        status, _, doc = post_json(f"{base}/v1/batch", batch)
        assert status == 200
        responses = doc["responses"]
        assert [r["status"] for r in responses] == ["ok", "error", "ok"]
        assert responses[1]["error"]["code"] == "unknown-planner"
        assert all(response_problems(r) == [] for r in responses)

    def test_batch_too_large_400(self, live_server):
        _, base = live_server(max_batch=2)
        batch = {"requests": [small_request(seed=s) for s in range(3)]}
        status, _, doc = post_json(f"{base}/v1/batch", batch)
        assert status == 400
        assert doc["error"]["code"] == "batch-too-large"

    def test_empty_batch_400(self, live_server):
        _, base = live_server()
        status, _, doc = post_json(f"{base}/v1/batch", {"requests": []})
        assert status == 400
        assert doc["error"]["code"] == "invalid-request"
