"""The plan workloads: cold plans, closed loop, one caller per process.

Each plan is :func:`repro.service.executor.plan_payload` on a canonical
request with a fresh deployment and no active cache, so no plan can
reuse work of another.  An untraced run hands each plan to the first
free one of :func:`callers` forked processes, each a single caller.  The
traced run plans in its own process and rebuilds every plan from the
pipeline's public calls, timing each layer from outside, and asserts
that the rebuilt payload is byte-identical to ``plan_payload``'s.

Plan and layer times are the planning process's CPU time.  Planning is
single-threaded pure Python, so CPU time equals wall time while the
process runs; on a shared VM wall time also counts the spells in which
the host deschedules the process, which no change to the program can
move and which doubled the run-to-run spread.  Wall time is kept in the
run record.
"""

from __future__ import annotations

import os
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from itertools import count
from multiprocessing import get_context
from time import perf_counter, process_time
from typing import Any, Dict, Iterator, List, Set

import repro.tour.optimizer as optimizer_module
from repro.bundling import greedy_bundles
from repro.delta.session import plan_to_dict
from repro.network import uniform_deployment
from repro.planners import make_planner
from repro.service.executor import plan_payload, request_network
from repro.service.request import (build_cost, canonical_json,
                                   canonical_request, request_digest)
from repro.tour import evaluate_plan, optimize_tour

import corpus
from checks import plan_problems
from stats import mean, percentile

# A traced run stops at its time limit but rebuilds at least this many
# plans, so every layer mean has more than one sample.
MIN_TRACED = 3
# Callers of an untraced run, each a process of its own in a closed loop
# (at most nproc).  A cold plan's cost varies by about 20% with its
# deployment, so twice the plans per run halve the seed-to-seed variance
# of the plan metrics.
CALLERS = 2

_LAYER_TIMES = ("network.deploy_s", "bundling.obg_s", "tsp.order_s",
                "tour.alg3_s", "tour.anchor_s", "tour.evaluate_s",
                "io.serialize_s")
#: Every per-layer metric a traced plan run reports.
LAYERS = _LAYER_TIMES + ("tour.anchor_calls", "tour.alg3_sweeps",
                         "tour.anchor_move_ratio", "bundling.bundles",
                         "tsp.tour_km", "trace.overhead_ratio")


def setup(workload: str, seed: int) -> None:
    """Build the first round and run the discarded warm-up plan."""
    for body in corpus.plan_round(workload, seed, 0):
        canonical_request(body)
    plan_payload(canonical_request(corpus.warmup_request(workload)))


def _check(request: Dict[str, Any], payload: Dict[str, Any]) -> List[str]:
    network = request_network(request)
    problems = plan_problems(payload["plan"], payload["metrics"],
                             network.locations, request["radius_m"],
                             build_cost(request["charging"]))
    if payload["sensor_count"] != len(network):
        problems.append("sensor_count differs from the deployment")
    return problems


class _LayerClock:
    """Per-plan layer timings and counts, taken around public calls."""

    def __init__(self) -> None:
        self.times = {name: 0.0 for name in _LAYER_TIMES}
        self.anchor_calls = 0
        self.anchor_moves = 0
        self.sweeps = 0
        self.bundles = 0
        self.tour_m = 0.0
        self.bc_energy_j = 0.0

    def counted_anchor(self, original):
        def optimize_anchor(*args, **kwargs):
            started = process_time()
            result = original(*args, **kwargs)
            self.times["tour.anchor_s"] += process_time() - started
            self.anchor_calls += 1
            self.anchor_moves += bool(result.moved)
            return result
        return optimize_anchor


def traced_payload(request: Dict[str, Any], clock: "_LayerClock") -> str:
    """Rebuild ``plan_payload(request)`` layer by layer; return its JSON."""
    times = clock.times
    cost = build_cost(request["charging"])
    spec = request["deployment"]
    radius = request["radius_m"]

    started = process_time()
    network = uniform_deployment(spec["n"], spec["seed"],
                                 field_side_m=spec["field_side_m"],
                                 required_j=request["charging"]["delta_j"])
    times["network.deploy_s"] += process_time() - started

    planner = make_planner(request["planner"], radius,
                           tsp_strategy=request["tsp_strategy"],
                           seed=request["seed"])
    started = process_time()
    bundle_set = greedy_bundles(network, radius)
    times["bundling.obg_s"] += process_time() - started

    order_positions = planner.order_positions

    def timed_order(positions, depot):
        begun = process_time()
        order = order_positions(positions, depot)
        times["tsp.order_s"] += process_time() - begun
        return order

    planner.order_positions = timed_order
    plan = base = planner.plan_from_bundles(network, cost, bundle_set)

    if request["planner"] == "BC-OPT":
        original = optimizer_module.optimize_anchor
        optimizer_module.optimize_anchor = clock.counted_anchor(original)
        try:
            started = process_time()
            plan, report = optimize_tour(
                base, network.locations, cost, bundle_radius=radius,
                max_sweeps=planner.max_sweeps,
                radius_steps=planner.radius_steps)
            times["tour.alg3_s"] += process_time() - started
        finally:
            optimizer_module.optimize_anchor = original
        plan = plan.with_label(planner.name)
        clock.sweeps += report.sweeps
        # Energy of the BC plan Algorithm 3 started from: BC on the
        # same deployment with the same bundles and tour.
        clock.bc_energy_j = report.initial_energy_j

    started = process_time()
    metrics = evaluate_plan(plan, network.locations, cost)
    times["tour.evaluate_s"] += process_time() - started

    started = process_time()
    text = canonical_json({
        "request": request,
        "request_sha256": request_digest(request),
        "plan": plan_to_dict(plan),
        "metrics": metrics.as_row(),
        "sensor_count": len(network),
    })
    times["io.serialize_s"] += process_time() - started

    clock.bundles += len(bundle_set.bundles)
    clock.tour_m += base.tour_length()
    return text


def _bodies(workload: str, seed: int, deadline: float
            ) -> Iterator[Dict[str, Any]]:
    """The run's request bodies: whole rounds until ``deadline``."""
    for round_index in count():
        if round_index and perf_counter() >= deadline:
            return
        yield from corpus.plan_round(workload, seed, round_index)


def _timed_plan(body: Dict[str, Any]) -> Dict[str, Any]:
    """One cold ``plan_payload``: its CPU and wall time and its checks."""
    request = canonical_request(body)
    begun, wall = process_time(), perf_counter()
    payload = plan_payload(request)
    cpu_s, wall_s = process_time() - begun, perf_counter() - wall
    return {"cpu_s": cpu_s, "wall_s": wall_s, "request": request,
            "payload": payload, "problems": _check(request, payload)}


def callers() -> int:
    """Callers of an untraced run: ``nproc``, at most :data:`CALLERS`."""
    return max(1, min(CALLERS, len(os.sched_getaffinity(0))))


def _plan_untraced(workload: str, seed: int, deadline: float
                   ) -> List[Dict[str, Any]]:
    """Plan from :func:`callers` forked processes, one plan each at a time.

    The callers are forked so that they inherit the warmed-up imports of
    set-up; set-up starts no thread, so the fork copies no held lock.  A
    plan is handed to the first free caller, so the run ends on a whole
    round with at most the last plan running alone.
    """
    plans: List[Dict[str, Any]] = []
    slots = callers()
    with ProcessPoolExecutor(slots, mp_context=get_context("fork")) as pool:
        pending: Set[Future] = set()
        for body in _bodies(workload, seed, deadline):
            if len(pending) == slots:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                plans.extend(future.result() for future in done)
            pending.add(pool.submit(_untraced_plan, body))
        plans.extend(future.result() for future in pending)
    return plans


def _untraced_plan(body: Dict[str, Any]) -> Dict[str, Any]:
    """:func:`_timed_plan` without the payload, which stays in the caller."""
    plan = _timed_plan(body)
    plan["energy_j"] = plan.pop("payload")["metrics"]["total_j"]
    del plan["request"]
    return plan


def run(workload: str, seed: int, seconds: float, trace: bool
        ) -> Dict[str, Any]:
    """Measure one plan workload; return counts, metrics and notes."""
    deadline = perf_counter() + seconds
    if not trace:
        plans = _plan_untraced(workload, seed, deadline)
        latencies = [plan["cpu_s"] for plan in plans]
        failures = [f"plan {index}: {problem}"
                    for index, plan in enumerate(plans)
                    for problem in plan["problems"]]
        failed = sum(1 for plan in plans if plan["problems"])
        return {"attempted": len(plans), "failed": failed,
                "failures": failures,
                "metrics": {
                    "plans_per_s": len(plans) / sum(latencies),
                    "plan_ms": percentile(latencies, 50) * 1000.0,
                    "energy_kj": mean([plan["energy_j"]
                                       for plan in plans]) / 1000.0},
                "notes": {"plans": len(plans), "callers": callers(),
                          "plan_ms_samples": len(plans),
                          "cpu_busy_s": sum(latencies),
                          "wall_busy_s": sum(plan["wall_s"]
                                             for plan in plans)}}

    latencies: List[float] = []
    failures: List[str] = []
    failed = 0
    clock = _LayerClock()
    traced_s = 0.0
    for body in _bodies(workload, seed, deadline):
        if len(latencies) >= MIN_TRACED and perf_counter() >= deadline:
            break
        plan = _timed_plan(body)
        request, payload = plan["request"], plan["payload"]
        latencies.append(plan["cpu_s"])
        problems = plan["problems"]
        begun = process_time()
        rebuilt = traced_payload(request, clock)
        traced_s += process_time() - begun
        if rebuilt != canonical_json(payload):
            problems.append("traced rebuild differs from plan_payload")
        energy = payload["metrics"]["total_j"]
        if (request["planner"] == "BC-OPT"
                and energy > clock.bc_energy_j * (1 + 1e-12)):
            problems.append(f"BC-OPT energy {energy!r} J exceeds "
                            f"BC {clock.bc_energy_j!r} J")
        if problems:
            failed += 1
            failures.extend(f"plan {len(latencies)}: {problem}"
                            for problem in problems)

    plans = len(latencies)
    metrics = {name: total / plans for name, total in clock.times.items()}
    metrics.update({
        "tour.anchor_calls": clock.anchor_calls / plans,
        "tour.alg3_sweeps": clock.sweeps / plans,
        "tour.anchor_move_ratio": (clock.anchor_moves / clock.anchor_calls
                                   if clock.anchor_calls else 0.0),
        "bundling.bundles": clock.bundles / plans,
        "tsp.tour_km": clock.tour_m / plans / 1000.0,
        "trace.overhead_ratio": traced_s / sum(latencies) - 1.0,
    })
    notes = {"traced_plan_s": traced_s / plans,
             "layer_share": {name: metrics[name] * plans / traced_s
                             for name in _LAYER_TIMES}}
    return {"attempted": plans, "failed": failed, "failures": failures,
            "metrics": metrics, "notes": notes}
