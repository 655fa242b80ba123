"""serve_churn: cache hits beside single-sensor drifts, through the server.

Set-up boots ``python -m repro.service`` (default flags, in-memory cache,
an ephemeral port) and establishes the BC-OPT sessions; the timed phase
then sends an open-loop schedule at a fixed rate from at most ``nproc``
sender threads, half ``/v1/plan`` repeats and half unique
``/v1/plan/delta`` drifts against the root handles.  Latency is timed
from each request's scheduled send.  A closed-loop phase with ``nproc``
clients sending the same mix back to back measures capacity, and one
client sending drifts alone prices a repair in server CPU time.  Every
response is checked after the phases, so the client stays light while
the server is measured.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.delta.engine import repair_plan
from repro.delta.session import plan_to_dict, session_from_plan_payload
from repro.geometry import Point
from repro.service.executor import request_network
from repro.service.request import (build_cost, canonical_json,
                                   response_problems)

import corpus
from checks import plan_problems
from stats import mean, percentile, split_by_kind

#: Every per-layer metric a traced serve_churn run reports.
LAYERS = ("service.queue_wait_mean_ms", "service.cpu_ms_per_request",
          "service.compute_hit_mean_ms", "service.compute_delta_mean_ms",
          "service.transport_mean_ms", "cache.hit_ratio",
          "delta.full_replan_ratio", "scheduler.joined",
          "delta.repair_mean_ms", "hit_p50_ms", "hit_p95_ms",
          "delta_p50_ms", "delta_p95_ms", "loadgen.send_lag_p95_ms", "trace.overhead_ratio")

#: Offered rate of the timed phase (requests/s): a fifth to a third of
#: the 60-130 answers per wall second the closed loop reached on a
#: 2-vCPU VM.
RATE_PER_S = 24.0
#: Samples of each kind the timed phase must hold (a p95 needs 200).
MIN_PER_KIND = 200
#: Server boots per run; set-up time is their median.
SETUPS = 3
#: Drift bodies generated for the closed-loop phase (never exhausted at
#: the capacities seen; a phase that runs out simply ends early).
CLOSED_ITEMS = 5000
#: Length of the open-loop phase as a share of ``--seconds`` (it sends
#: at least ``2 * MIN_PER_KIND`` requests, so it may run longer).
TIMED_SHARE = 1 / 2
#: Length of the closed-loop phase as a share of ``--seconds``.
CLOSED_SHARE = 3 / 10
#: Length of the drift-only phase that prices one repair in server CPU.
REPAIR_SHARE = 1 / 5
_REQUEST_TIMEOUT_S = 60.0


def sender_threads() -> int:
    """Sender threads and closed-loop clients: ``nproc``, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class Session:
    """One established session and what the checks need of it."""

    request: Dict[str, Any]
    root: str
    payload_text: str
    locations: List[Point]
    cost: Any


@dataclass
class Reply:
    """One request's timing and raw answer."""

    item: corpus.MixItem
    due: float
    sent: float
    done: float
    status: Optional[int]
    cache: Optional[str]
    body: bytes


@dataclass
class Server:
    """A ``repro.service`` child process on an ephemeral port."""

    root: str
    process: subprocess.Popen = field(init=False)
    port: int = 0

    def __post_init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)

    def wait_ready(self) -> None:
        """Read the port from the banner line (``serving on http://h:p``)."""
        line = self.process.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("//", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process.stderr.close()

    def cpu_s(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def metrics(self) -> Dict[str, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=_REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()


def _post(port: int, path: str, body: bytes
          ) -> Tuple[int, Dict[str, str], bytes]:
    """POST on a fresh connection, as the repository's load generator does.

    Back-to-back requests on a kept-alive connection stall about 40 ms
    each on the server's separate header and body writes (Nagle's
    algorithm against delayed ACKs), which would pin the measurement to
    a timer instead of the server's work.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=_REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", path, body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def boot(root: str, seed: int) -> Tuple[Server, List[Session], float,
                                          List[str]]:
    """Start a server and establish the sessions; time it end to end."""
    started = perf_counter()
    server = Server(root)
    try:
        server.wait_ready()
        replies = [_post(server.port, "/v1/plan", corpus.encode(body))
                   for body in corpus.session_requests(seed)]
    except BaseException:
        server.stop()
        raise
    elapsed = perf_counter() - started
    sessions, problems = [], []
    for status, headers, raw in replies:
        envelope = json.loads(raw)
        if status != 200:
            problems.append(f"session not established: {status} {raw[:200]!r}")
            continue
        payload = envelope["payload"]
        request = payload["request"]
        network = request_network(request)
        cost = build_cost(request["charging"])
        problems.extend(response_problems(envelope))
        problems.extend(plan_problems(payload["plan"], payload["metrics"],
                                      network.locations,
                                      request["radius_m"], cost))
        sessions.append(Session(request, headers["X-BC-Session"],
                                canonical_json(payload),
                                list(network.locations), cost))
    return server, sessions, elapsed, problems


def send(port: int, items: Sequence[corpus.MixItem], threads: int, *,
         rate: Optional[float] = None, until: Optional[float] = None
         ) -> List[Reply]:
    """Send ``items`` from ``threads`` threads.

    With ``rate`` the schedule is open loop: item i is due at
    ``start + i / rate`` whether or not earlier items have returned.
    Without it each thread sends back to back (closed loop) until the
    ``until`` deadline (seconds from start).
    """
    replies: List[Optional[Reply]] = [None] * len(items)
    lock = threading.Lock()
    cursor = [0]
    start = perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(items):
                break
            if rate is not None:
                due = start + index / rate
                pause = due - perf_counter()
                if pause > 0:
                    time.sleep(pause)
            else:
                due = perf_counter()
                if due - start >= until:
                    break
            item = items[index]
            sent = perf_counter()
            try:
                status, headers, body = _post(port, item.path, item.body)
            except (OSError, http.client.HTTPException) as error:
                status, headers, body = None, {}, repr(error).encode()
            replies[index] = Reply(item, due, sent, perf_counter(), status,
                                   headers.get("X-BC-Cache"), body)

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    return [reply for reply in replies if reply is not None]


def reply_problems(reply: Reply, sessions: List[Session]) -> List[str]:
    """Check one answer of the mix; return its problems."""
    if reply.status != 200:
        return [f"{reply.item.kind}: status {reply.status}: "
                f"{reply.body[:200]!r}"]
    envelope = json.loads(reply.body)
    problems = response_problems(envelope)
    session = sessions[reply.item.session]
    payload = envelope["payload"]
    if reply.item.kind == "hit":
        if reply.cache != "hit":
            problems.append(f"hit answered with X-BC-Cache {reply.cache!r}")
        if canonical_json(payload) != session.payload_text:
            problems.append("hit payload differs from the establishing one")
        return problems
    sensor, x, y = reply.item.moved
    locations = list(session.locations)
    locations[sensor] = Point(x, y)
    if payload["alive_count"] != len(locations):
        problems.append(f"delta alive_count {payload['alive_count']}")
    problems.extend(plan_problems(payload["plan"], payload["metrics"],
                                  locations, session.request["radius_m"],
                                  session.cost))
    return problems


def _histogram(document: Dict[str, Any], name: str,
               **labels: str) -> Tuple[int, float]:
    count, total = 0, 0.0
    for entry in document["metrics"]["histograms"]:
        if entry["name"] == name and all(
                entry["labels"].get(key) == value
                for key, value in labels.items()):
            count += entry["count"]
            total += entry["sum"]
    return count, total


def _counter(document: Dict[str, Any], name: str, **labels: str) -> float:
    return sum(entry["value"] for entry in document["metrics"]["counters"]
               if entry["name"] == name and all(
                   entry["labels"].get(key) == value
                   for key, value in labels.items()))


def _delta_mean_ms(before, after, name, **labels) -> float:
    count0, sum0 = _histogram(before, name, **labels)
    count1, sum1 = _histogram(after, name, **labels)
    return (sum1 - sum0) / (count1 - count0) * 1000.0 if count1 > count0 \
        else 0.0


def server_layers(before: Dict[str, Any], after: Dict[str, Any],
                  cpu_s: float, timed: List[Reply]) -> Dict[str, float]:
    """Per-layer metrics from two ``/metrics`` scrapes around a phase."""
    def grew(name: str, **labels: str) -> float:
        return (_counter(after, name, **labels)
                - _counter(before, name, **labels))

    batches = grew("service.batches")
    deltas = grew("service.delta_requests")
    client_ms = mean([r.done - r.sent for r in timed]) * 1000.0
    joined = (after["scheduler"]["counters"]["joined"]
              - before["scheduler"]["counters"]["joined"])
    return {
        "service.queue_wait_mean_ms": _delta_mean_ms(
            before, after, "service.queue_wait_seconds"),
        "service.cpu_ms_per_request": cpu_s * 1000.0 / len(timed),
        "service.compute_hit_mean_ms": _delta_mean_ms(
            before, after, "service.compute_seconds", outcome="hit"),
        "service.compute_delta_mean_ms": _delta_mean_ms(
            before, after, "service.compute_seconds", outcome="miss"),
        "service.transport_mean_ms": client_ms - _delta_mean_ms(
            before, after, "service.request_seconds"),
        "cache.hit_ratio": (grew("service.batches", outcome="hit")
                            / batches if batches else 0.0),
        "delta.full_replan_ratio": (grew("service.delta_requests",
                                         strategy="full") / deltas
                                    if deltas else 0.0),
        "scheduler.joined": float(joined),
    }


def replay_repairs(timed: List[Reply], sessions: List[Session]
                   ) -> Tuple[float, List[str]]:
    """Re-run each timed drift through ``repair_plan`` in this process.

    Returns the mean repair time (ms) and any drift whose replayed plan
    differs from the one the server returned.
    """
    states = [session_from_plan_payload(s.request,
                                        json.loads(s.payload_text)).state
              for s in sessions]
    elapsed: List[float] = []
    problems: List[str] = []
    for reply in timed:
        if reply.item.kind != "delta" or reply.status != 200:
            continue
        body = json.loads(reply.item.body)
        session = sessions[reply.item.session]
        started = perf_counter()
        state, _ = repair_plan(states[reply.item.session], body["deltas"],
                               session.cost)
        elapsed.append(perf_counter() - started)
        served = json.loads(reply.body)["payload"]["plan"]
        if canonical_json(plan_to_dict(state.plan)) != canonical_json(served):
            problems.append("in-process repair differs from the server's")
    return mean(elapsed) * 1000.0, problems


def run(root: str, seed: int, seconds: float, trace: bool
        ) -> Dict[str, Any]:
    """Measure serve_churn; return counts, metrics and notes."""
    threads = sender_threads()
    setups: List[float] = []
    failures: List[str] = []
    server: Optional[Server] = None
    try:
        for attempt in range(SETUPS):
            server, sessions, elapsed, problems = boot(root, seed)
            setups.append(elapsed)
            failures.extend(problems)
            if attempt < SETUPS - 1:
                server.stop()
        if failures:
            return {"attempted": len(sessions), "failed": len(failures),
                    "failures": failures, "metrics": {}, "notes": {}}

        roots = [s.root for s in sessions]
        requests = [s.request for s in sessions]
        positions = [[(p.x, p.y) for p in s.locations] for s in sessions]
        count = max(round(RATE_PER_S * seconds * TIMED_SHARE),
                    2 * MIN_PER_KIND)
        timed_items = corpus.churn_mix(seed, "timed", count, roots,
                                       requests, positions)
        closed_items = corpus.churn_mix(seed, "closed", CLOSED_ITEMS, roots,
                                        requests, positions)
        repair_items = [item for item in corpus.churn_mix(
            seed, "repair", CLOSED_ITEMS, roots, requests, positions)
            if item.kind == "delta"]

        scrape_s = 0.0
        if trace:
            begun = perf_counter()
            before, cpu_before = server.metrics(), server.cpu_s()
            scrape_s += perf_counter() - begun
        phase_started = perf_counter()
        timed = send(server.port, timed_items, threads, rate=RATE_PER_S)
        phase_s = perf_counter() - phase_started
        if trace:
            begun = perf_counter()
            cpu_s = server.cpu_s() - cpu_before
            after = server.metrics()
            scrape_s += perf_counter() - begun

        cpu_before_closed = server.cpu_s()
        closed = send(server.port, closed_items, threads,
                      until=seconds * CLOSED_SHARE)
        closed_cpu_s = server.cpu_s() - cpu_before_closed

        cpu_before_repairs = server.cpu_s()
        repairs = send(server.port, repair_items, 1,
                       until=seconds * REPAIR_SHARE)
        repair_cpu_s = server.cpu_s() - cpu_before_repairs
    finally:
        if server is not None:
            server.stop()

    failed = 0
    for reply in timed + closed + repairs:
        problems = reply_problems(reply, sessions)
        if problems:
            failed += 1
            failures.extend(problems)
    attempted = len(timed) + len(closed) + len(repairs)

    answered = [reply for reply in timed if reply.status == 200]
    latency = split_by_kind((reply.item.kind, reply.done - reply.due)
                            for reply in answered)
    energies = [json.loads(reply.body)["payload"]["metrics"]["total_j"]
                for reply in answered if reply.item.kind == "delta"]
    # Capacity and repair cost are counted in the server's CPU time: the
    # server is one process whose work the GIL serializes, so this is the
    # rate it sustains on a core of its own.  Per wall second both swung
    # 2x between runs with the host's load (every request wakes several
    # threads, and each wake-up waits for a free vCPU).
    capacity = sum(1 for r in closed if r.status == 200) / closed_cpu_s
    repaired = sum(1 for r in repairs if r.status == 200)

    notes = {"rate_per_s": RATE_PER_S, "sender_threads": threads,
             "timed_requests": len(timed), "timed_phase_s": phase_s,
             "hit_samples": len(latency["hit"]),
             "delta_samples": len(latency["delta"]),
             "closed_requests": len(closed), "setup_samples_s": setups,
             "repair_requests": len(repairs),
             "closed_wall_rate_per_s": len(closed) / (
                 max(r.done for r in closed) - min(r.sent for r in closed))}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "plans_per_s": capacity,
            "plan_ms": repair_cpu_s * 1000.0 / repaired,
            "energy_kj": mean(energies) / 1000.0,
        }
    else:
        metrics = server_layers(before, after, cpu_s, timed)
        repair_ms, problems = replay_repairs(timed, sessions)
        failures.extend(problems)
        failed += len(problems)
        metrics.update({
            "delta.repair_mean_ms": repair_ms,
            "hit_p50_ms": percentile(latency["hit"], 50) * 1000.0,
            "hit_p95_ms": percentile(latency["hit"], 95) * 1000.0,
            "delta_p50_ms": percentile(latency["delta"], 50) * 1000.0,
            "delta_p95_ms": percentile(latency["delta"], 95) * 1000.0,
            "loadgen.send_lag_p95_ms": percentile(
                [r.sent - r.due for r in timed], 95) * 1000.0,
            "trace.overhead_ratio": scrape_s / phase_s,
        })
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "notes": notes}
