"""Fast self-tests of the benchmark at tiny sizes."""

import json
import math
import os
import re

import pytest

from repro.service.executor import plan_payload, request_network
from repro.service.request import canonical_json, canonical_request

import corpus
from plans import _LayerClock, traced_payload
from stats import TooFewSamples, percentile, split_by_kind

SPEC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def _sessions(seed):
    requests = [canonical_request(body)
                for body in corpus.session_requests(seed)]
    positions = [[(p.x, p.y) for p in request_network(r).locations]
                 for r in requests]
    roots = [f"root{i}" for i in range(len(requests))]
    return roots, requests, positions


def _mix(seed, count=40):
    return corpus.churn_mix(seed, "timed", count, *_sessions(seed))


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in ("plan_paper", "plan_large"):
        first = canonical_json(corpus.plan_round(workload, 3, 0))
        assert first == canonical_json(corpus.plan_round(workload, 3, 0))
        assert first != canonical_json(corpus.plan_round(workload, 4, 0))
        assert first != canonical_json(corpus.plan_round(workload, 3, 1))
    bodies = [item.body for item in _mix(3)]
    assert bodies == [item.body for item in _mix(3)]
    assert bodies != [item.body for item in _mix(4)]


def test_plan_rounds_keep_their_shape():
    paper = (corpus.plan_round("plan_paper", 1, 0)
             + corpus.plan_round("plan_paper", 1, 1))
    sizes = sorted(r["deployment"]["n"] for r in paper)
    radii = sorted(r["radius_m"] for r in paper)
    assert len(set(sizes)) == len(set(radii)) == corpus.PAPER_CELLS
    assert 40 <= sizes[0] and sizes[-1] <= 200
    assert 10.0 <= radii[0] and radii[-1] <= 40.0
    large = corpus.plan_round("plan_large", 1, 0)
    assert [r["radius_m"] for r in large].count(50.0) == 2 * len(large) // 3
    seeds = [r["deployment"]["seed"] for r in paper + large]
    assert len(set(seeds)) == len(seeds)


def test_drifts_stay_in_the_field_and_within_r():
    roots, requests, positions = _sessions(5)
    mix = corpus.churn_mix(5, "timed", 400, roots, requests, positions)
    assert [item.kind for item in mix].count("delta") == 200
    for item in mix:
        if item.kind == "hit":
            assert json.loads(item.body) == requests[item.session]
            continue
        body = json.loads(item.body)
        assert body["session"] == roots[item.session]
        (record,) = body["deltas"]
        request = requests[item.session]
        side = request["deployment"]["field_side_m"]
        x, y = positions[item.session][record["index"]]
        assert 0.0 <= record["x"] <= side and 0.0 <= record["y"] <= side
        assert math.hypot(record["x"] - x, record["y"] - y) \
            <= request["radius_m"]
    deltas = [item.body for item in mix if item.kind == "delta"]
    assert len(set(deltas)) == len(deltas)


def test_metric_names_are_well_formed_and_unique():
    with open(SPEC) as handle:
        spec = json.load(handle)
    names = [entry["name"] for key in ("end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_percentiles_refuse_thin_tails():
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(200)), 95) == 189
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 95)


def test_split_by_kind_keeps_each_kind_apart():
    split = split_by_kind([("hit", 1.0), ("delta", 9.0), ("hit", 2.0)])
    assert split == {"hit": [1.0, 2.0], "delta": [9.0]}
    mix = _mix(7, count=41)
    kinds = split_by_kind((item.kind, item.session) for item in mix)
    assert len(kinds["hit"]) == 21 and len(kinds["delta"]) == 20
    assert kinds["delta"][:4] == [0, 1, 2, 3]


@pytest.mark.parametrize("planner,n,radius", [("BC-OPT", 24, 40.0),
                                              ("BC", 30, 50.0)])
def test_traced_rebuild_matches_plan_payload(planner, n, radius):
    request = canonical_request(corpus.plan_request(planner, n, radius, 9))
    clock = _LayerClock()
    assert traced_payload(request, clock) == canonical_json(
        plan_payload(request))
    if planner == "BC-OPT":
        assert clock.anchor_calls > 0 and clock.sweeps > 0
    else:
        assert clock.anchor_calls == 0 and clock.times["tour.alg3_s"] == 0
