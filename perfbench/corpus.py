"""Seeded inputs of every workload.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical requests and delta bodies, another seed gives other
deployments.  The *shape* of each workload (which (n, r) cells, in which
proportion) is fixed, so two seeds differ only in sensor geometry and a
run-to-run spread measures the program, not a changing mix.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

FIELD_SIDE_M = 1000.0
DELTA_SCHEMA = "bundle-charging/delta-request/v1"

# plan_paper: a 20-cell Latin hypercube over n in [40, 200] and
# r in [10, 40] m.  A round is half of it (about 10 s of plans), and
# rounds alternate halves, so every two rounds hold every cell once and
# a run that ends on a whole round overruns its time by little.
PAPER_CELLS = 20
PAPER_ROUND = PAPER_CELLS // 2
# Visiting order that alternates small and large cells, so each half
# (and a traced run cut short by its time limit) holds a spread of sizes.
PAPER_ORDER = [(i * 9) % PAPER_CELLS for i in range(PAPER_CELLS)]
# plan_large: BC at n=1000; one TSP-bound r=20 plan per two OBG-bound
# r=50 plans keeps the median inside the r=50 mode (not between modes).
# A round is one such triple.
LARGE_N = 1000
LARGE_RADII = (50.0, 20.0, 50.0)

# The discarded warm-up plan of each plan workload: fixed, so set-up
# time does not depend on the seed.
WARMUP = {
    "plan_paper": ("BC-OPT", 40, 40.0),
    "plan_large": ("BC", LARGE_N, 50.0),
}

# serve_churn: the sessions established during set-up (paper regime).
SESSION_CELLS = ((50, 40.0), (90, 35.0), (130, 40.0), (170, 40.0))


def plan_request(planner: str, n: int, radius_m: float,
                 deployment_seed: int) -> Dict:
    """A canonical-form planning request (default TSP, 1 km field)."""
    return {
        "schema": "bundle-charging/request/v1",
        "deployment": {"kind": "uniform", "n": n, "seed": deployment_seed,
                       "field_side_m": FIELD_SIDE_M},
        "planner": planner,
        "radius_m": radius_m,
        "tsp_strategy": "nn+2opt",
        "seed": 0,
        "charging": {"model": "paper"},
    }


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def paper_cells() -> List[Tuple[int, float]]:
    """The (n, r) cells of one plan_paper round, in visiting order."""
    cells = []
    for i in range(PAPER_CELLS):
        n = 40 + round(160 * (i + 0.5) / PAPER_CELLS)
        j = (i * 7) % PAPER_CELLS          # pairs each n with its own r
        r = round(10.0 + 30.0 * (j + 0.5) / PAPER_CELLS, 2)
        cells.append((n, r))
    return [cells[i] for i in PAPER_ORDER]


def plan_round(workload: str, seed: int, round_index: int) -> List[Dict]:
    """One round of a plan workload: every plan on a fresh deployment."""
    rng = _rng(f"{workload}/round{round_index}", seed)
    if workload == "plan_paper":
        half = round_index % 2 * PAPER_ROUND
        cells = [("BC-OPT", n, r)
                 for n, r in paper_cells()[half:half + PAPER_ROUND]]
    elif workload == "plan_large":
        cells = [("BC", LARGE_N, r) for r in LARGE_RADII]
    else:
        raise ValueError(f"not a plan workload: {workload!r}")
    return [plan_request(planner, n, r, rng.getrandbits(32))
            for planner, n, r in cells]


def warmup_request(workload: str) -> Dict:
    planner, n, r = WARMUP[workload]
    return plan_request(planner, n, r, deployment_seed=0)


def session_requests(seed: int) -> List[Dict]:
    """The BC-OPT requests that establish the serve_churn sessions."""
    rng = _rng("serve_churn/sessions", seed)
    return [plan_request("BC-OPT", n, r, rng.getrandbits(32))
            for n, r in SESSION_CELLS]


def drift(rng: random.Random, x: float, y: float, radius_m: float,
          field_side_m: float) -> Tuple[float, float]:
    """A uniform point of the radius-r disk around (x, y), inside the field.

    The drift model of adaptive WPT under mobility: a sensor moves by at
    most r from where it is, and never leaves the deployment field.
    """
    while True:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        distance = radius_m * math.sqrt(rng.random())
        nx = x + distance * math.cos(angle)
        ny = y + distance * math.sin(angle)
        if 0.0 <= nx <= field_side_m and 0.0 <= ny <= field_side_m:
            return nx, ny


@dataclass(frozen=True)
class MixItem:
    """One request of the serve_churn mix.

    Attributes:
        kind: ``hit`` (a repeated /v1/plan) or ``delta`` (a drift).
        session: index of the established session it targets.
        path: the endpoint.
        body: the exact JSON bytes sent.
        moved: for a delta, ``(sensor index, x, y)``; else None.
    """

    kind: str
    session: int
    path: str
    body: bytes
    moved: Tuple[int, float, float] | None = None


def encode(document: Dict) -> bytes:
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def churn_mix(seed: int, phase: str, count: int, roots: List[str],
              requests: List[Dict],
              locations: List[List[Tuple[float, float]]]
              ) -> List[MixItem]:
    """``count`` requests: half cache-hit repeats, half unique drifts.

    Sessions are visited round-robin within each kind, so every session
    receives the same share of hits and of drifts whatever the seed.
    Each drift moves one sensor of a root session by at most r from its
    position in that session and keeps it inside the request's field.
    """
    rng = _rng(f"serve_churn/{phase}", seed)
    kinds = ["hit", "delta"] * (count // 2) + ["hit"] * (count % 2)
    rng.shuffle(kinds)
    sessions = len(roots)
    served = {"hit": 0, "delta": 0}
    mix: List[MixItem] = []
    for kind in kinds:
        index = served[kind] % sessions
        served[kind] += 1
        request = requests[index]
        if kind == "hit":
            mix.append(MixItem("hit", index, "/v1/plan", encode(request)))
            continue
        sensor = rng.randrange(len(locations[index]))
        x, y = locations[index][sensor]
        nx, ny = drift(rng, x, y, request["radius_m"],
                       request["deployment"]["field_side_m"])
        body = {"schema": DELTA_SCHEMA, "session": roots[index],
                "deltas": [{"type": "sensor_moved", "v": 1,
                            "index": sensor, "x": nx, "y": ny}]}
        mix.append(MixItem("delta", index, "/v1/plan/delta", encode(body),
                           (sensor, nx, ny)))
    return mix
