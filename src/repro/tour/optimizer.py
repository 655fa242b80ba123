"""Charging-tour optimization — Algorithm 3 of the paper.

Start from the TSP tour over bundle SED centers and sweep the stops,
re-optimizing each anchor against its current tour neighbours with the
Theorem 4/5 search.  Each accepted move strictly decreases total energy,
so the sweep converges; we repeat sweeps until a full pass makes no move
(the paper runs a single ``i = 2..N-1`` pass — multiple passes only help,
and a ``max_sweeps=1`` knob reproduces the paper's exact loop).  A sweep
re-searches only the stops whose search inputs changed since their last
search (docs/algorithms.md, section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..charging import CostParameters
from ..errors import PlanError
from ..geometry import Point
from .anchor_opt import DEFAULT_RADIUS_STEPS, optimize_anchor
from .plan import ChargingPlan, stop_for_sensors

try:  # tracing is optional: tour refinement works with repro.obs absent
    from ..obs.tracer import obs_span
except ImportError:  # pragma: no cover - repro.obs stripped/blocked
    from contextlib import nullcontext as _nullcontext

    def obs_span(name, **attrs):  # type: ignore[misc]
        return _nullcontext()


@dataclass(frozen=True)
class TourOptimizationReport:
    """Bookkeeping from one optimizer run.

    Attributes:
        sweeps: number of full passes performed.
        moves: number of anchors actually moved.
        initial_energy_j: plan objective before optimization.
        final_energy_j: plan objective after optimization.
    """

    sweeps: int
    moves: int
    initial_energy_j: float
    final_energy_j: float

    @property
    def improvement_j(self) -> float:
        """Return the achieved energy reduction (>= 0)."""
        return self.initial_energy_j - self.final_energy_j


def optimize_tour(plan: ChargingPlan, locations: Sequence[Point],
                  cost: CostParameters,
                  centers: Optional[Sequence[Point]] = None,
                  bundle_radius: Optional[float] = None,
                  max_sweeps: int = 8,
                  radius_steps: int = DEFAULT_RADIUS_STEPS
                  ) -> "tuple[ChargingPlan, TourOptimizationReport]":
    """Run Algorithm 3 on ``plan``.

    Args:
        plan: the TSP-based plan to refine (stop order is preserved; only
            stop positions move).
        locations: sensor locations.
        cost: mission cost constants.
        centers: each stop's bundle SED center (the displacement origin of
            Theorem 4).  Defaults to the stops' current positions, which
            is correct when the input plan anchors at SED centers.
        bundle_radius: the generation radius ``r``.  When given, each
            anchor's displacement is capped at ``r - r'_i`` (``r'_i`` =
            the bundle's own enclosing radius) so every member stays
            within the charging bundle radius of the anchor — Definition 3
            of the paper.  When None, the cap is the shorter adjacent
            tour leg (pure energy trade-off, no validity constraint).
        max_sweeps: maximum full passes over the tour.
        radius_steps: the Theorem 4 displacement discretization ``h``.

    Returns:
        ``(optimized_plan, report)``.  The optimized plan's total energy
        is never higher than the input's.

    Raises:
        PlanError: when ``centers`` length mismatches the stop count.
    """
    from .evaluate import plan_total_energy  # local: avoid import cycle

    stops = list(plan.stops)
    if centers is None:
        centers = [stop.position for stop in stops]
    centers = list(centers)
    if len(centers) != len(stops):
        raise PlanError(
            f"need one center per stop: {len(centers)} centers for "
            f"{len(stops)} stops")

    initial_energy = plan_total_energy(plan, locations, cost)
    if len(stops) < 2:
        report = TourOptimizationReport(0, 0, initial_energy,
                                        initial_energy)
        return plan, report

    positions: List[Point] = [stop.position for stop in stops]
    depot = plan.depot
    moves = 0
    sweeps = 0

    # Definition 3 cap: a displaced anchor must keep every bundle member
    # within the charging radius, so d <= r - r'_i per stop.
    members = [[locations[s] for s in stop.sensors] for stop in stops]
    caps: List[Optional[float]] = []
    for i, member_locations in enumerate(members):
        if bundle_radius is None:
            caps.append(None)
            continue
        own_radius = (max(centers[i].distance_to(p)
                          for p in member_locations)
                      if member_locations else 0.0)
        caps.append(max(0.0, bundle_radius - own_radius))

    # Worklist: optimize_anchor is a pure function of (center, prev,
    # next, members, incumbent, cap), so a stop whose last search did
    # not move it and none of whose inputs changed since would not move
    # again.  Only a move changes an input: the mover's incumbent and
    # its neighbours' prev/next.  Skipping those searches leaves sweeps,
    # moves and positions identical to searching every stop.
    last = len(stops) - 1
    dirty = [True] * len(stops)
    with obs_span("bto.anchors", stops=len(stops)) as span:
        for _ in range(max_sweeps):
            sweeps += 1
            moved_this_sweep = 0
            for i in range(len(stops)):
                if not dirty[i]:
                    continue
                prev_point = _neighbor(positions, depot, i, -1)
                next_point = _neighbor(positions, depot, i, +1)
                result = optimize_anchor(
                    centers[i], prev_point, next_point, members[i],
                    cost, current=positions[i],
                    max_displacement=caps[i],
                    radius_steps=radius_steps)
                # A mover stays dirty: the search's acceptance threshold
                # scales with the incumbent's energy, so it may move again.
                dirty[i] = result.moved
                if result.moved:
                    positions[i] = result.position
                    moved_this_sweep += 1
                    if depot is None or i > 0:
                        dirty[i - 1] = True
                    if depot is None or i < last:
                        dirty[(i + 1) % len(stops)] = True
            moves += moved_this_sweep
            if moved_this_sweep == 0:
                break

        new_stops = [
            stop_for_sensors(positions[i], sorted(stop.sensors),
                             locations, cost)
            for i, stop in enumerate(stops)
        ]
        optimized = ChargingPlan(stops=tuple(new_stops), depot=depot,
                                 label=plan.label)
        final_energy = plan_total_energy(optimized, locations, cost)

        # The per-anchor moves each reduce the exact local objective, so
        # the global objective cannot increase; guard against
        # regressions anyway.
        if final_energy > initial_energy + 1e-6 * max(
                1.0, initial_energy):
            optimized = plan
            final_energy = initial_energy
        if span:
            span.set(sweeps=sweeps, moves=moves,
                     improvement_j=initial_energy - final_energy)

    report = TourOptimizationReport(sweeps, moves, initial_energy,
                                    final_energy)
    return optimized, report


def _neighbor(positions: Sequence[Point], depot: Optional[Point],
              index: int, direction: int) -> Point:
    """Return the tour neighbour of stop ``index`` in ``direction``.

    The tour is cyclic; when a depot exists it sits between the last and
    first stop, so the first stop's predecessor and the last stop's
    successor are the depot.
    """
    n = len(positions)
    target = index + direction
    if depot is not None:
        if target < 0 or target >= n:
            return depot
        return positions[target]
    return positions[target % n]
