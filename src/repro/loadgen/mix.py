"""Zipf-distributed request mixes.

Real planning traffic is skewed: a few deployments are re-planned over
and over (dashboards, retries, popular scenarios) while a long tail is
asked once.  The mix models that with a pool of ``pool`` distinct
canonical requests (same shape, different deployment seeds) sampled by
rank from a Zipf law: request rank ``k`` (1-based) has probability
proportional to ``1 / k**s``.  ``s = 0`` degenerates to uniform; large
``s`` concentrates traffic on rank 1 — which is exactly what exercises
the service's digest-joining and cache paths under load.

Everything is seeded: the same ``(pool, s, seed, count)`` always yields
the same request sequence.  :func:`churn_mix` layers incremental
traffic on top — a seeded fraction of arrivals becomes unique
``/v1/plan/delta`` requests against established sessions, every body
precomputed before the clock starts.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import constants

__all__ = ["build_pool", "churn_mix", "sample_indices", "zipf_weights"]


def zipf_weights(pool: int, s: float) -> List[float]:
    """Normalized rank probabilities ``P(k) ~ 1/k^s`` for ``pool`` items."""
    if pool <= 0:
        raise ValueError(f"pool must be positive: {pool!r}")
    if s < 0.0:
        raise ValueError(f"zipf exponent must be non-negative: {s!r}")
    raw = [1.0 / (rank ** s) for rank in range(1, pool + 1)]
    total = sum(raw)
    return [weight / total for weight in raw]


def sample_indices(count: int, pool: int, s: float,
                   seed: int) -> List[int]:
    """Draw ``count`` pool indices (0-based) from the Zipf mix."""
    weights = zipf_weights(pool, s)
    rng = random.Random(seed)
    cumulative: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)
    cumulative[-1] = 1.0  # absorb float drift at the top rank
    indices: List[int] = []
    for _ in range(count):
        draw = rng.random()
        low, high = 0, pool - 1
        while low < high:
            mid = (low + high) // 2
            if cumulative[mid] < draw:
                low = mid + 1
            else:
                high = mid
        indices.append(low)
    return indices


def build_pool(pool: int, node_count: int, planner: str,
               radius_m: float = 20.0,
               base_seed: int = 0) -> List[Dict[str, Any]]:
    """Build ``pool`` distinct planning requests (seed-varied).

    Rank 0 gets ``base_seed``, rank 1 ``base_seed + 1``, ... — so the
    hottest Zipf rank is a stable, nameable request across runs.
    """
    return [
        {
            "schema": "bundle-charging/request/v1",
            "deployment": {"kind": "uniform", "n": node_count,
                           "seed": base_seed + rank},
            "planner": planner,
            "radius_m": radius_m,
        }
        for rank in range(pool)
    ]


def churn_mix(assignment: Sequence[int],
              handles: Sequence[Optional[str]],
              churn: float, seed: int, node_count: int,
              field_side_m: float = constants.FIELD_SIDE_M
              ) -> Tuple[List[Dict[str, Any]], List[int], List[str]]:
    """Rewrite a seeded fraction of arrivals into delta requests.

    Every converted arrival gets its *own* precomputed
    ``/v1/plan/delta`` body — a unique seeded ``sensor_moved`` against
    the establishing (root) session handle of the arrival's Zipf rank
    — built entirely before the run starts, so the churn mix stays
    coordinated-omission-safe: nothing is generated on the timed path.
    Ranks whose session failed to establish keep their plan request.

    Args:
        assignment: per-arrival plan-pool index.
        handles: per-rank session handle from the establishment phase
            (None where establishment failed).
        churn: fraction of arrivals converted, in [0, 1].
        seed: conversion + move-generation seed.
        node_count: sensors per deployment (bounds the moved index).
        field_side_m: field bound of the generated positions; must be
            the side of the field the pool's deployments use.

    Returns:
        ``(extra_bodies, new_assignment, kinds)`` — delta request
        dicts to append to the pool, the rewritten per-arrival
        assignment (delta arrivals index past the plan pool), and one
        ``"plan"`` / ``"delta"`` label per pool entry after extension.
    """
    if not 0.0 <= churn <= 1.0:
        raise ValueError(f"churn must be a fraction in [0, 1]: {churn!r}")
    rng = random.Random(seed)
    extra: List[Dict[str, Any]] = []
    new_assignment = list(assignment)
    base = len(handles)
    for position, rank in enumerate(assignment):
        if rng.random() >= churn:
            continue
        handle = handles[rank] if 0 <= rank < base else None
        if handle is None:
            continue
        extra.append({
            "schema": "bundle-charging/delta-request/v1",
            "session": handle,
            "deltas": [{"type": "sensor_moved", "v": 1,
                        "index": rng.randrange(node_count),
                        "x": rng.uniform(0.0, field_side_m),
                        "y": rng.uniform(0.0, field_side_m)}],
        })
        new_assignment[position] = base + len(extra) - 1
    kinds = ["plan"] * base + ["delta"] * len(extra)
    return extra, new_assignment, kinds
