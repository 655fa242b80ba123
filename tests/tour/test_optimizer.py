"""Tests for Algorithm 3 (charging-tour optimization)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.charging import CostParameters, FriisChargingModel
from repro.errors import PlanError
from repro.geometry import Point
from repro.tour import (ChargingPlan, optimize_tour, plan_total_energy,
                        stop_for_sensors)
from repro.tour import optimizer
from repro.tour.anchor_opt import AnchorResult, optimize_anchor
from repro.tour.optimizer import TourOptimizationReport, _neighbor


def _zigzag_plan(cost, amplitude=60.0, n=6):
    """Stops alternating above/below a line — lots of slack to optimize."""
    locations = []
    stops = []
    for i in range(n):
        y = amplitude if i % 2 else -amplitude
        location = Point(i * 150.0, y)
        locations.append(location)
        stops.append(stop_for_sensors(location, [i], locations, cost))
    plan = ChargingPlan(stops=tuple(stops), depot=Point(-100.0, 0.0))
    return plan, locations


class TestOptimizeTour:
    def test_energy_never_increases(self, paper_cost):
        plan, locations = _zigzag_plan(paper_cost)
        before = plan_total_energy(plan, locations, paper_cost)
        optimized, report = optimize_tour(plan, locations, paper_cost)
        after = plan_total_energy(optimized, locations, paper_cost)
        assert after <= before + 1e-6
        assert report.final_energy_j == pytest.approx(after, rel=1e-9)
        assert report.improvement_j >= 0.0

    def test_improves_zigzag_when_movement_expensive(self):
        cost = CostParameters(model=FriisChargingModel(),
                              move_cost_j_per_m=100.0)
        plan, locations = _zigzag_plan(cost)
        optimized, report = optimize_tour(plan, locations, cost)
        assert report.improvement_j > 0.0
        assert report.moves > 0

    def test_no_moves_when_charging_dominates(self, cheap_move_cost):
        plan, locations = _zigzag_plan(cheap_move_cost)
        optimized, report = optimize_tour(plan, locations,
                                          cheap_move_cost)
        assert report.improvement_j == pytest.approx(0.0, abs=1e-6)

    def test_dwell_still_covers_farthest_sensor(self, paper_cost):
        cost = CostParameters(model=FriisChargingModel(),
                              move_cost_j_per_m=100.0)
        plan, locations = _zigzag_plan(cost)
        optimized, _ = optimize_tour(plan, locations, cost)
        for stop in optimized.stops:
            worst = stop.worst_distance(locations)
            needed = cost.dwell_time_for_distance(worst)
            assert stop.dwell_s >= needed - 1e-6

    def test_bundle_radius_caps_displacement(self):
        cost = CostParameters(model=FriisChargingModel(),
                              move_cost_j_per_m=100.0)
        plan, locations = _zigzag_plan(cost)
        capped, _ = optimize_tour(plan, locations, cost,
                                  bundle_radius=5.0)
        for stop, original in zip(capped.stops, plan.stops):
            # Singleton bundles: displacement cap = radius - 0 = 5 m.
            assert original.position.distance_to(stop.position) \
                <= 5.0 + 1e-6

    def test_uncapped_moves_farther_than_capped(self):
        cost = CostParameters(model=FriisChargingModel(),
                              move_cost_j_per_m=100.0)
        plan, locations = _zigzag_plan(cost)
        capped, _ = optimize_tour(plan, locations, cost,
                                  bundle_radius=5.0)
        free, _ = optimize_tour(plan, locations, cost)
        capped_energy = plan_total_energy(capped, locations, cost)
        free_energy = plan_total_energy(free, locations, cost)
        assert free_energy <= capped_energy + 1e-6

    def test_single_stop_plan_untouched(self, paper_cost):
        locations = [Point(10, 10)]
        stop = stop_for_sensors(locations[0], [0], locations,
                                paper_cost)
        plan = ChargingPlan(stops=(stop,), depot=Point(0, 0))
        optimized, report = optimize_tour(plan, locations, paper_cost)
        assert report.moves == 0

    def test_centers_length_mismatch_rejected(self, paper_cost):
        plan, locations = _zigzag_plan(paper_cost)
        with pytest.raises(PlanError):
            optimize_tour(plan, locations, paper_cost,
                          centers=[Point(0, 0)])

    def test_sensor_assignment_preserved(self, paper_cost):
        plan, locations = _zigzag_plan(paper_cost)
        optimized, _ = optimize_tour(plan, locations, paper_cost)
        for before, after in zip(plan.stops, optimized.stops):
            assert before.sensors == after.sensors

    def test_max_sweeps_one_matches_paper_loop(self):
        cost = CostParameters(model=FriisChargingModel(),
                              move_cost_j_per_m=100.0)
        plan, locations = _zigzag_plan(cost)
        one_sweep, report = optimize_tour(plan, locations, cost,
                                          max_sweeps=1)
        assert report.sweeps == 1
        assert plan_total_energy(one_sweep, locations, cost) <= \
            plan_total_energy(plan, locations, cost) + 1e-6


def _exhaustive_sweep(plan, locations, cost, caps, max_sweeps):
    """Oracle: the paper loop, re-optimizing every stop on every sweep."""
    positions = [stop.position for stop in plan.stops]
    sweeps = moves = 0
    for _ in range(max_sweeps):
        sweeps += 1
        moved = 0
        for i, stop in enumerate(plan.stops):
            result = optimize_anchor(
                stop.position, _neighbor(positions, plan.depot, i, -1),
                _neighbor(positions, plan.depot, i, +1),
                [locations[s] for s in stop.sensors], cost,
                current=positions[i], max_displacement=caps[i])
            if result.moved:
                positions[i] = result.position
                moved += 1
        moves += moved
        if moved == 0:
            break
    return positions, sweeps, moves


@st.composite
def _tour_cases(draw):
    """Small tours on a coarse grid, so coincident stops are common."""
    grid = st.integers(0, 12).map(lambda k: k * 15.0)
    offset = st.integers(-3, 3).map(lambda k: k * 2.5)
    locations, stops = [], []
    for _ in range(draw(st.integers(2, 6))):
        anchor = Point(draw(grid), draw(grid))
        members = []
        for _ in range(draw(st.integers(1, 3))):
            members.append(len(locations))
            locations.append(Point(anchor.x + draw(offset),
                                   anchor.y + draw(offset)))
        stops.append((anchor, members))
    depot = draw(st.one_of(
        st.none(), st.builds(Point, grid, grid),
        st.sampled_from(locations)))  # a depot inside a bundle
    radius = draw(st.one_of(st.none(), st.sampled_from([0.0, 5.0, 20.0])))
    move_cost = draw(st.sampled_from([1.0, 20.0, 100.0]))
    return (locations, stops, depot, radius, move_cost,
            draw(st.integers(1, 8)))


class TestWorklistMatchesExhaustiveSweep:
    @settings(max_examples=60, deadline=None)
    @given(_tour_cases())
    # Two stops without a depot: prev and next are the same stop.
    @example(([Point(0, 0), Point(90, 40)],
              [(Point(0, 0), [0]), (Point(90, 40), [1])],
              None, None, 100.0, 8))
    # Coincident stops, and a depot on a bundle member.
    @example(([Point(30, 30), Point(30, 30), Point(120, 0)],
              [(Point(30, 30), [0]), (Point(30, 30), [1]),
               (Point(120, 0), [2])],
              Point(30, 30), 20.0, 100.0, 8))
    def test_positions_and_report_identical(self, case):
        locations, stop_specs, depot, radius, move_cost, max_sweeps = case
        cost = CostParameters(model=FriisChargingModel(),
                              move_cost_j_per_m=move_cost)
        plan = ChargingPlan(
            stops=tuple(stop_for_sensors(anchor, members, locations, cost)
                        for anchor, members in stop_specs),
            depot=depot)
        caps = [None if radius is None else max(0.0, radius - max(
            stop.position.distance_to(locations[s])
            for s in stop.sensors)) for stop in plan.stops]

        optimized, report = optimize_tour(plan, locations, cost,
                                          bundle_radius=radius,
                                          max_sweeps=max_sweeps)
        positions, sweeps, moves = _exhaustive_sweep(
            plan, locations, cost, caps, max_sweeps)

        assert [stop.position for stop in optimized.stops] == positions
        initial = plan_total_energy(plan, locations, cost)
        assert report == TourOptimizationReport(
            sweeps, moves, initial,
            plan_total_energy(optimized, locations, cost))

    def test_mover_is_revisited_when_neighbours_hold(self, paper_cost,
                                                     monkeypatch):
        # A search from the mover's new position can move it again: the
        # acceptance tolerance scales with the incumbent's energy.  A
        # fake search that creeps stop 0 one metre per call, three
        # times, checks the worklist keeps a mover dirty on its own.
        plan, locations = _zigzag_plan(paper_cost, n=4)
        start = plan.stops[0].position

        def creep(center, prev_point, next_point, members, cost,
                  current, **_):
            if center == start and current.x < start.x + 3.0:
                return AnchorResult(Point(current.x + 1.0, current.y),
                                    0.0, True)
            return AnchorResult(current, 0.0, False)

        monkeypatch.setattr(optimizer, "optimize_anchor", creep)
        _, report = optimize_tour(plan, locations, paper_cost)
        assert (report.sweeps, report.moves) == (4, 3)
