"""Output checks shared by every workload.

A plan passes when it charges every sensor exactly once, keeps every
member within r of its stop (Definition 3 of the paper), and its
reported metrics equal :func:`repro.tour.evaluate_plan` recomputed from
the returned plan.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.delta.session import plan_from_dict
from repro.geometry import Point
from repro.tour import evaluate_plan

# Anchors sit on the disk boundary up to rounding (a stop reported at
# 20.000000000000053 m for r = 20 m is on the boundary).
_RADIUS_SLACK = 1e-9


def plan_problems(plan_doc: Dict[str, Any], metrics: Dict[str, float],
                  locations: Sequence[Point], radius_m: float,
                  cost: Any) -> List[str]:
    """Every way ``plan_doc`` violates the checks above (empty = pass)."""
    problems: List[str] = []
    seen: Dict[int, int] = {}
    worst = 0.0
    for stop in plan_doc["stops"]:
        anchor = Point(*stop["position"])
        for sensor in stop["sensors"]:
            seen[sensor] = seen.get(sensor, 0) + 1
            worst = max(worst, anchor.distance_to(locations[sensor]))
    missing = [i for i in range(len(locations)) if i not in seen]
    repeated = sorted(i for i, times in seen.items() if times > 1)
    stray = sorted(i for i in seen if not 0 <= i < len(locations))
    if missing or repeated or stray:
        problems.append(f"coverage: missing {missing[:5]}, repeated "
                        f"{repeated[:5]}, unknown {stray[:5]}")
    if worst > radius_m * (1.0 + _RADIUS_SLACK):
        problems.append(f"Definition 3: a member is {worst!r} m from its "
                        f"anchor, r = {radius_m!r} m")
    recomputed = evaluate_plan(plan_from_dict(plan_doc), locations,
                               cost).as_row()
    if recomputed != metrics:
        changed = sorted(key for key in set(recomputed) | set(metrics)
                         if recomputed.get(key) != metrics.get(key))
        problems.append(f"metrics differ from evaluate_plan on {changed}")
    return problems
