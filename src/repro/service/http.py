"""HTTP front end of the planning service.

A thin, pure-stdlib layer over :mod:`http.server`:

* ``POST /v1/plan`` — one planning request in, one response envelope
  out.  The envelope's ``payload`` is byte-identical across repeats of
  the same canonical request; the cache outcome travels both in the
  envelope and in the ``X-BC-Cache`` header.
* ``POST /v1/batch`` — ``{"requests": [...]}``, at most
  ``config.max_batch`` items, answered as ``{"responses": [...]}`` with
  one envelope per item.  All items are admitted before any is awaited,
  so identical items in one batch share a single compute.
* ``POST /v1/plan/delta`` — incremental replanning: a session handle
  (minted by ``/v1/plan`` in the ``X-BC-Session`` header and in every
  delta payload) plus a list of delta records, answered with the
  repaired plan under the same canonical-request / ``payload_sha256``
  discipline and micro-batching as ``/v1/plan``.  The successor handle
  rides in the payload and the ``X-BC-Session`` header; under
  ``--delta-shadow-verify`` the repaired/full energy ratio is reported
  in ``X-BC-Delta-Ratio``.
* ``GET /healthz`` / ``GET /metrics`` — liveness and the
  ``bundle-charging/service-metrics/v2`` snapshot (uptime, provenance,
  scheduler/perf/cache stats, and the labeled latency histograms).
  ``Accept: text/plain`` or ``?format=prometheus`` switches ``/metrics``
  to Prometheus text exposition.

Telemetry: each server owns a :class:`repro.obs.metrics.MetricsRegistry`
(enabled by ``config.metrics``) recording request latency, queue wait
and compute histograms labeled by planner and cache outcome, plus an
optional JSONL access log (``config.access_log``) with one
``bundle-charging/access/v1`` record per settled request.  Both are
observers only: response payloads are byte-identical with metrics on,
off, or ``repro.obs`` absent.

Error mapping: 400 invalid JSON / invalid request / unknown planner,
404 unknown path or unknown session (``unknown-session`` — the handle
was evicted or never minted here; re-establish via ``/v1/plan``),
405 wrong method, 409 stale session kernel (``stale-kernel`` — the
client pinned a ``kernel_sha256`` that no longer matches this server's
repair kernels), 413 oversized body, 429 admission shed
(:class:`OverloadedError`), 503 draining, 504 request timeout, 500
internal planner failure.  Every error body is a typed
``error_envelope``.

Provenance: at startup the server builds one base manifest (a single
``git rev-parse`` — never per request); each ok envelope carries it
extended with the request digest and serving wall time.  Wall-clock
facts live only there and in headers, never in the payload.  When
``repro.obs`` is absent the service runs degraded: no provenance, no
tracing, identical payloads.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..clock import monotonic, wall
from ..delta.protocol import (DELTA_REQUEST_SCHEMA,
                              canonical_delta_request,
                              delta_request_problems)
from ..delta.session import (advance_session, delta_kernel_sha256,
                             session_from_plan_payload)
from ..delta.store import SessionStore
from .accesslog import AccessLogWriter, access_record
from .config import ServiceConfig
from .executor import (cache_for_service, execute_delta, execute_request)
from .metrics import metrics_snapshot, prometheus_text
from .request import (RequestError, canonical_request, error_envelope,
                      ok_envelope)
from .scheduler import (Batch, DrainingError, OverloadedError,
                        PlanningScheduler)

try:  # observability is optional: the server works with repro.obs absent
    from ..obs.manifest import build_manifest as _build_manifest
    from ..obs.metrics import MetricsRegistry as _MetricsRegistry
    from ..obs.tracer import TRACER as _TRACER
    _HAVE_OBS = True
except ImportError:  # pragma: no cover - repro.obs stripped/blocked
    _build_manifest = None  # type: ignore[assignment]
    _MetricsRegistry = None  # type: ignore[assignment]
    _TRACER = None  # type: ignore[assignment]
    _HAVE_OBS = False

__all__ = ["PlanningHTTPServer", "ServiceRequestHandler", "build_server",
           "start_server", "stop_server"]


class PlanningHTTPServer(ThreadingHTTPServer):
    """The serving socket plus the service's long-lived state."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: ServiceConfig,
                 sock: Optional[socket.socket] = None,
                 worker_index: Optional[int] = None) -> None:
        if sock is None:
            super().__init__((config.host, config.port),
                             ServiceRequestHandler)
        else:
            # Adopt a pre-bound, already-listening socket.  The worker
            # pool binds every worker socket in the parent *before*
            # forking (so it knows the ports without any IPC), then
            # each child wraps its own socket here.
            address = sock.getsockname()
            super().__init__((address[0], address[1]),
                             ServiceRequestHandler,
                             bind_and_activate=False)
            self.socket.close()  # drop the unused default socket
            self.socket = sock
            self.server_address = address
            # Mimic HTTPServer.server_bind, skipped above.
            self.server_name = socket.getfqdn(address[0])
            self.server_port = address[1]
        self.worker_index = worker_index
        self.config = config
        self.cache = cache_for_service(config)
        self.metrics = (_MetricsRegistry(enabled=config.metrics)
                        if _HAVE_OBS else None)
        self.sessions = SessionStore(config.session_entries)
        # Transport-side repair reports (bounded, keyed by request
        # digest): written by the compute when a repair actually runs,
        # read once by the handler for the X-BC-Delta-Ratio header and
        # the delta metrics.  Never touches payload bytes.
        self.delta_reports: Dict[str, Any] = {}
        self._delta_reports_lock = threading.Lock()
        self.scheduler = PlanningScheduler(
            self._compute, jobs=config.jobs,
            queue_limit=config.queue_limit, metrics=self.metrics)
        self.access_log = (AccessLogWriter(config.access_log)
                           if config.access_log else None)
        self.started_monotonic = monotonic()
        self.started_unix = wall()
        self.base_provenance: Optional[Dict[str, Any]] = None
        if _HAVE_OBS:
            if config.trace_dir:
                _TRACER.enabled = True
                _TRACER.reset()
            self.base_provenance = _build_manifest(
                "service",
                {"host": config.host, "port": config.port,
                 "jobs": config.jobs,
                 "queue_limit": config.queue_limit,
                 "use_cache": config.use_cache,
                 "cache_dir": config.cache_dir,
                 "planners": (list(config.planners)
                              if config.planners else None)},
                seeds=[], wall_time_s=0.0)

    def _compute(self, request: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], str]:
        """The scheduler's compute: dispatch on the request schema.

        Canonical plan requests and canonical delta requests share one
        scheduler (one queue, one admission bound, one micro-batching
        digest space) and are told apart by their ``schema`` tag.
        """
        if request.get("schema") == DELTA_REQUEST_SCHEMA:
            return execute_delta(
                request, self.sessions, self.cache,
                shadow=self.config.delta_shadow_verify,
                max_ratio=self.config.delta_max_ratio,
                report_sink=self._report_sink())
        return execute_request(request, self.cache)

    def _report_sink(self) -> Dict[str, Any]:
        """Bound the report map before handing it to a compute."""
        with self._delta_reports_lock:
            if len(self.delta_reports) > 4 * self.config.queue_limit:
                self.delta_reports.clear()
            return self.delta_reports

    def take_delta_report(self, digest: str) -> Optional[Any]:
        """Pop the repair report of one served delta request, if any."""
        with self._delta_reports_lock:
            return self.delta_reports.pop(digest, None)

    def register_session(self, request: Dict[str, Any],
                         payload: Dict[str, Any]) -> str:
        """Retain (or refresh) the session a ``/v1/plan`` answer mints.

        Reconstruction is pure, so registering the same payload twice
        (repeat requests, cache hits, duplicate batch items) converges
        on one handle.
        """
        session = session_from_plan_payload(request, payload)
        self.sessions.put(session)
        return session.handle

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return self.server_address[1]

    def response_provenance(self, digest: str,
                            wall_time_s: float
                            ) -> Optional[Dict[str, Any]]:
        """Extend the base manifest with one response's facts."""
        if self.base_provenance is None:
            return None
        provenance = dict(self.base_provenance)
        provenance["request_sha256"] = digest
        provenance["wall_time_s"] = round(wall_time_s, 6)
        return provenance

    def metrics_document(self) -> Dict[str, Any]:
        """Build the current ``/metrics`` v2 document."""
        return metrics_snapshot(
            self.scheduler, self.cache,
            uptime_s=monotonic() - self.started_monotonic,
            started_unix=self.started_unix,
            provenance=self.base_provenance,
            registry=self.metrics)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints; every response body is JSON."""

    server: PlanningHTTPServer
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle on, the body
    # waits for the client's delayed ACK (~40 ms) on a kept-alive
    # connection.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default stderr access log."""

    # --- plumbing ---------------------------------------------------------

    def _send_json(self, status: int, document: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> int:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        return len(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; version=0.0.4; "
                   "charset=utf-8") -> int:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return len(body)

    def _send_error_envelope(self, status: int, code: str, message: str,
                             problems: Optional[List[str]] = None
                             ) -> int:
        self._last_error = (status, code)
        return self._send_json(status,
                               error_envelope(code, message, problems))

    def _read_json_body(self) -> Tuple[Optional[Any], bool]:
        """Return (parsed body, ok); sends the error response itself."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length <= 0:
            self._send_error_envelope(
                400, "invalid-json", "request body must be JSON "
                "(missing or empty Content-Length)")
            return None, False
        if length > self.server.config.max_body_bytes:
            self._send_error_envelope(
                413, "payload-too-large",
                f"request body exceeds "
                f"{self.server.config.max_body_bytes} bytes")
            return None, False
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8")), True
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_envelope(
                400, "invalid-json", f"request body is not JSON: {exc}")
            return None, False

    def _timeout_s(self) -> float:
        """Effective wait budget: config default, lowerable per request."""
        default = self.server.config.timeout_s
        query = parse_qs(urlsplit(self.path).query)
        values = query.get("timeout_s")
        if not values:
            return default
        try:
            requested = float(values[0])
        except ValueError:
            return default
        if requested <= 0.0:
            return default
        return min(default, requested)

    # --- request serving --------------------------------------------------

    def _admit(self, body: Any) -> Tuple[Optional[Batch],
                                         Optional[Dict[str, Any]],
                                         int]:
        """Validate + submit one item; return (batch, error doc, status)."""
        try:
            request = canonical_request(body)
        except RequestError as exc:
            return None, error_envelope(exc.code, str(exc),
                                        exc.problems), 400
        if not self.server.config.serves_planner(request["planner"]):
            return None, error_envelope(
                "planner-not-served",
                f"this server does not serve planner "
                f"{request['planner']!r} (allowlist: "
                f"{list(self.server.config.planners or ())})"), 400
        try:
            return self.server.scheduler.submit(request), None, 200
        except OverloadedError as exc:
            return None, error_envelope("overloaded", str(exc)), 429
        except DrainingError as exc:
            return None, error_envelope("draining", str(exc)), 503

    def _settle(self, batch: Batch, timeout_s: float, started: float
                ) -> Tuple[Dict[str, Any], int, Dict[str, str]]:
        """Wait for a batch; return (document, status, extra headers)."""
        if not self.server.scheduler.wait(batch, timeout_s):
            return (error_envelope(
                "timeout",
                f"request did not complete within {timeout_s}s "
                f"(it may still finish and warm the cache)"), 504, {})
        if batch.error is not None:
            return (error_envelope(
                "internal",
                f"planning failed: {batch.error}"), 500, {})
        envelope = ok_envelope(
            batch.payload, batch.outcome,
            provenance=self.server.response_provenance(
                batch.digest, monotonic() - started))
        headers = {"X-BC-Cache": batch.outcome,
                   "X-BC-Request-SHA256": batch.digest}
        if self.server.worker_index is not None:
            # Pool worker: stamp which shard computed the response so
            # the dispatcher (and loadgen) can observe the routing.
            headers["X-BC-Worker"] = str(self.server.worker_index)
        return envelope, 200, headers

    def _record_plan(self, path: str, status: int, started: float,
                     batch: Optional[Batch] = None,
                     document: Optional[Dict[str, Any]] = None,
                     bytes_out: Optional[int] = None) -> None:
        """Observe one settled plan item: histograms + access log.

        Pure observer — runs after the response document is built, so
        it can never perturb payload bytes.
        """
        latency = monotonic() - started
        planner = batch.request.get("planner") if batch else None
        outcome = batch.outcome if batch and status == 200 else None
        error = None
        if document is not None and document.get("status") == "error":
            error = document.get("error", {}).get("code")
            outcome = None
        metrics = self.server.metrics
        if metrics is not None:
            metrics.observe("service.request_seconds", latency,
                            planner=planner or "-",
                            outcome=outcome or "none",
                            status=str(status))
            metrics.inc("service.requests", path=path,
                        status=str(status))
        log = self.server.access_log
        if log is not None:
            log.write(access_record(
                "POST", path, status, latency,
                digest=batch.digest if batch else None,
                planner=planner, outcome=outcome,
                queue_wait_s=batch.queue_wait_s if batch else None,
                compute_s=batch.compute_s if batch else None,
                bytes_out=bytes_out, error=error))

    def _record_access(self, method: str, path: str, status: int,
                       started: float,
                       bytes_out: Optional[int] = None,
                       error: Optional[str] = None) -> None:
        """Log a non-plan request (health, metrics, routing errors).

        Counted in ``service.requests`` and the access log, but kept
        out of the latency histograms so scrapes and 404s cannot skew
        the planning percentiles.
        """
        latency = monotonic() - started
        metrics = self.server.metrics
        if metrics is not None:
            metrics.inc("service.requests", path=path,
                        status=str(status))
        log = self.server.access_log
        if log is not None:
            log.write(access_record(method, path, status, latency,
                                    bytes_out=bytes_out, error=error))

    def _handle_plan(self) -> None:
        started = monotonic()
        body, ok = self._read_json_body()
        if not ok:
            status, code = self._last_error
            self._record_access("POST", "/v1/plan", status, started,
                                error=code)
            return
        batch, error_doc, status = self._admit(body)
        if batch is None:
            sent = self._send_json(status, error_doc)
            self._record_plan("/v1/plan", status, started,
                              document=error_doc, bytes_out=sent)
            return
        document, status, headers = self._settle(
            batch, self._timeout_s(), started)
        if status == 200:
            headers["X-BC-Session"] = self.server.register_session(
                batch.request, batch.payload)
        sent = self._send_json(status, document, headers)
        self._record_plan("/v1/plan", status, started, batch=batch,
                          document=document, bytes_out=sent)

    def _handle_delta(self) -> None:
        started = monotonic()
        path = "/v1/plan/delta"
        body, ok = self._read_json_body()
        if not ok:
            status, code = self._last_error
            self._record_access("POST", path, status, started,
                                error=code)
            return
        problems = delta_request_problems(body)
        if problems:
            code = ("unsupported-schema"
                    if any("unsupported request schema" in problem
                           for problem in problems)
                    else "invalid-request")
            sent = self._send_error_envelope(
                400, code, "invalid delta request", problems)
            self._record_plan(path, 400, started,
                              document=error_envelope(code, "invalid"),
                              bytes_out=sent)
            return
        pinned = body.get("kernel_sha256")
        if pinned is not None and pinned != delta_kernel_sha256():
            sent = self._send_error_envelope(
                409, "stale-kernel",
                f"session kernels changed: this server repairs under "
                f"fingerprint {delta_kernel_sha256()}; re-establish "
                f"the session via /v1/plan")
            self._record_plan(path, 409, started,
                              document=error_envelope("stale-kernel",
                                                      "stale"),
                              bytes_out=sent)
            return
        session = self.server.sessions.get(body["session"])
        if session is None:
            sent = self._send_error_envelope(
                404, "unknown-session",
                f"session {body['session']!r} is not retained here; "
                f"re-establish it via /v1/plan")
            self._record_plan(path, 404, started,
                              document=error_envelope("unknown-session",
                                                      "unknown"),
                              bytes_out=sent)
            return
        request = canonical_delta_request(body,
                                          session.request["planner"])
        try:
            batch = self.server.scheduler.submit(request)
        except OverloadedError as exc:
            sent = self._send_json(429,
                                   error_envelope("overloaded", str(exc)))
            self._record_plan(path, 429, started,
                              document=error_envelope("overloaded",
                                                      "shed"),
                              bytes_out=sent)
            return
        except DrainingError as exc:
            sent = self._send_json(503,
                                   error_envelope("draining", str(exc)))
            self._record_plan(path, 503, started,
                              document=error_envelope("draining",
                                                      "drain"),
                              bytes_out=sent)
            return
        document, status, headers = self._settle(
            batch, self._timeout_s(), started)
        report = self.server.take_delta_report(batch.digest)
        if status == 200:
            successor = advance_session(session, request["deltas"],
                                        batch.payload)
            self.server.sessions.put(successor)
            headers["X-BC-Session"] = batch.payload["session"]
            if report is not None and report.energy_ratio is not None:
                headers["X-BC-Delta-Ratio"] = repr(report.energy_ratio)
        sent = self._send_json(status, document, headers)
        self._record_plan(path, status, started, batch=batch,
                          document=document, bytes_out=sent)
        self._record_delta(status, batch, report)

    def _record_delta(self, status: int, batch: Batch,
                      report: Optional[Any]) -> None:
        """Delta-specific telemetry on top of the shared plan metrics."""
        metrics = self.server.metrics
        if metrics is None:
            return
        strategy = report.strategy if report is not None else "cached"
        metrics.inc("service.delta_requests", strategy=strategy,
                    status=str(status))
        if report is not None and batch.compute_s is not None:
            metrics.observe("service.delta_repair_seconds",
                            batch.compute_s, strategy=report.strategy)

    def _handle_batch(self) -> None:
        started = monotonic()
        body, ok = self._read_json_body()
        if not ok:
            status, code = self._last_error
            self._record_access("POST", "/v1/batch", status, started,
                                error=code)
            return
        requests = body.get("requests") if isinstance(body, dict) else None
        if not isinstance(requests, list) or not requests:
            sent = self._send_error_envelope(
                400, "invalid-request",
                "batch body must be {\"requests\": [<request>, ...]}")
            self._record_access("POST", "/v1/batch", 400, started,
                                bytes_out=sent, error="invalid-request")
            return
        max_batch = self.server.config.max_batch
        if len(requests) > max_batch:
            sent = self._send_error_envelope(
                400, "batch-too-large",
                f"batch carries {len(requests)} requests; the limit "
                f"is {max_batch}")
            self._record_access("POST", "/v1/batch", 400, started,
                                bytes_out=sent, error="batch-too-large")
            return
        admitted: List[Tuple[Optional[Batch], Optional[Dict[str, Any]],
                             int]] \
            = [(batch, error_doc, status)
               for batch, error_doc, status in map(self._admit, requests)]
        timeout_s = self._timeout_s()
        responses: List[Dict[str, Any]] = []
        settled: List[Tuple[Optional[Batch], Dict[str, Any], int]] = []
        for batch, error_doc, status in admitted:
            if batch is None:
                responses.append(error_doc)
                settled.append((None, error_doc, status))
            else:
                document, status, _ = self._settle(batch, timeout_s,
                                                   started)
                if status == 200:
                    self.server.register_session(batch.request,
                                                 batch.payload)
                responses.append(document)
                settled.append((batch, document, status))
        self._send_json(200, {"responses": responses})
        for batch, document, status in settled:
            self._record_plan("/v1/batch", status, started,
                              batch=batch, document=document)

    # --- routing ----------------------------------------------------------

    def _wants_prometheus(self) -> bool:
        """Content negotiation for ``/metrics``: query beats Accept."""
        query = parse_qs(urlsplit(self.path).query)
        formats = query.get("format")
        if formats:
            return formats[0].lower() in ("prometheus", "text")
        accept = (self.headers.get("Accept") or "").lower()
        return "text/plain" in accept

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        started = monotonic()
        path = urlsplit(self.path).path
        if path == "/healthz":
            sent = self._send_json(200, {
                "status": "ok",
                "uptime_s": round(
                    monotonic() - self.server.started_monotonic, 3),
                "draining": self.server.scheduler.stats()["draining"],
            })
            self._record_access("GET", path, 200, started,
                                bytes_out=sent)
        elif path == "/metrics":
            document = self.server.metrics_document()
            if self._wants_prometheus():
                sent = self._send_text(200, prometheus_text(document))
            else:
                sent = self._send_json(200, document)
            self._record_access("GET", path, 200, started,
                                bytes_out=sent)
        else:
            sent = self._send_error_envelope(
                404, "not-found", f"unknown path {path!r}")
            self._record_access("GET", path, 404, started,
                                bytes_out=sent, error="not-found")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        started = monotonic()
        path = urlsplit(self.path).path
        if path == "/v1/plan":
            self._handle_plan()
        elif path == "/v1/plan/delta":
            self._handle_delta()
        elif path == "/v1/batch":
            self._handle_batch()
        elif path in ("/healthz", "/metrics"):
            sent = self._send_error_envelope(
                405, "method-not-allowed", f"{path} is GET-only")
            self._record_access("POST", path, 405, started,
                                bytes_out=sent,
                                error="method-not-allowed")
        else:
            sent = self._send_error_envelope(
                404, "not-found", f"unknown path {path!r}")
            self._record_access("POST", path, 404, started,
                                bytes_out=sent, error="not-found")


def build_server(config: ServiceConfig) -> PlanningHTTPServer:
    """Bind the server socket (without starting the accept loop)."""
    return PlanningHTTPServer(config)


def start_server(config: ServiceConfig
                 ) -> Tuple[PlanningHTTPServer, threading.Thread]:
    """Bind and start serving on a daemon thread; return both."""
    server = build_server(config)
    thread = threading.Thread(target=server.serve_forever,
                              name="plan-http", daemon=True)
    thread.start()
    return server, thread


def stop_server(server: PlanningHTTPServer, drain: bool = True) -> None:
    """Gracefully stop: drain the scheduler, close the socket and the
    access log, flush the trace (when enabled), disable the tracer."""
    server.scheduler.shutdown(drain=drain)
    server.shutdown()
    server.server_close()
    if server.access_log is not None:
        server.access_log.close()
    trace_dir = server.config.trace_dir
    if _HAVE_OBS and trace_dir and _TRACER.enabled:
        import os
        os.makedirs(trace_dir, exist_ok=True)
        _TRACER.write_jsonl(os.path.join(trace_dir, "service.jsonl"),
                            manifest=server.base_provenance)
        _TRACER.enabled = False
        _TRACER.reset()
