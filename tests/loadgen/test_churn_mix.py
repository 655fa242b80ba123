"""The --churn mix: delta conversion, kind labels, report split."""

from __future__ import annotations

import pytest

from repro.constants import FIELD_SIDE_M
from repro.delta import DELTA_REQUEST_SCHEMA
from repro.loadgen import (LatencyRecorder, build_report, churn_mix,
                           render_table, report_problems)


HANDLES = ["h0", "h1", None, "h3"]


class TestChurnMix:
    def test_zero_churn_converts_nothing(self):
        extra, assignment, kinds = churn_mix(
            [0, 1, 2, 3], HANDLES, 0.0, seed=1, node_count=25)
        assert extra == []
        assert assignment == [0, 1, 2, 3]
        assert kinds == ["plan"] * 4

    def test_full_churn_converts_every_established_rank(self):
        arrivals = [0, 1, 2, 3, 0, 1]
        extra, assignment, kinds = churn_mix(
            arrivals, HANDLES, 1.0, seed=1, node_count=25)
        # Rank 2 never established: its arrivals stay plan traffic.
        assert len(extra) == 5
        assert assignment[2] == 2
        converted = [i for i in assignment if i >= len(HANDLES)]
        assert len(converted) == 5
        assert kinds == ["plan"] * 4 + ["delta"] * 5

    def test_every_delta_body_is_unique_and_precomputed(self):
        arrivals = [0] * 10
        extra, _, _ = churn_mix(arrivals, HANDLES, 1.0, seed=3,
                                node_count=25)
        assert len({repr(body) for body in extra}) == len(extra)
        for body in extra:
            assert body["schema"] == DELTA_REQUEST_SCHEMA
            assert body["session"] == "h0"
            (record,) = body["deltas"]
            assert record["type"] == "sensor_moved"
            assert 0 <= record["index"] < 25
            assert 0.0 <= record["x"] <= FIELD_SIDE_M
            assert 0.0 <= record["y"] <= FIELD_SIDE_M

    @pytest.mark.parametrize("field_side_m", [None, 300.0])
    def test_moves_cover_the_whole_field(self, field_side_m):
        # The pool's requests plan on the default 1 km field, so drifts
        # must spread over all of it, not over a corner.
        kwargs = {} if field_side_m is None else {
            "field_side_m": field_side_m}
        side = field_side_m or FIELD_SIDE_M
        extra, _, _ = churn_mix([0] * 400, HANDLES, 1.0, seed=5,
                                node_count=25, **kwargs)
        quadrants = set()
        for body in extra:
            (record,) = body["deltas"]
            assert 0.0 <= record["x"] <= side
            assert 0.0 <= record["y"] <= side
            quadrants.add((record["x"] >= side / 2,
                           record["y"] >= side / 2))
        assert quadrants == {(False, False), (False, True),
                             (True, False), (True, True)}

    def test_deterministic_in_seed(self):
        arrivals = [0, 1, 3] * 5
        first = churn_mix(arrivals, HANDLES, 0.5, seed=9, node_count=25)
        second = churn_mix(arrivals, HANDLES, 0.5, seed=9,
                           node_count=25)
        assert first == second
        third = churn_mix(arrivals, HANDLES, 0.5, seed=10,
                          node_count=25)
        assert first != third

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError, match="churn"):
            churn_mix([0], HANDLES, 1.5, seed=0, node_count=25)


class TestRecorderKinds:
    @staticmethod
    def _recorder():
        recorder = LatencyRecorder()
        recorder.record(0.0, 0.0, 0.010, 200, kind="plan")
        recorder.record(0.0, 0.0, 0.030, 200, kind="plan")
        recorder.record(0.0, 0.0, 0.002, 200, kind="delta")
        recorder.record(0.0, 0.0, 0.0, 503, failed=True, kind="delta")
        return recorder

    def test_summary_splits_by_kind(self):
        summary = self._recorder().summary()
        kinds = summary["kinds"]
        assert set(kinds) == {"plan", "delta"}
        assert kinds["plan"]["count"] == 2
        assert kinds["plan"]["errors"] == 0
        assert kinds["delta"]["count"] == 2
        assert kinds["delta"]["errors"] == 1
        assert kinds["delta"]["latency_s"]["p50"] \
            <= kinds["plan"]["latency_s"]["p50"]

    def test_unlabeled_runs_carry_no_kinds_section(self):
        recorder = LatencyRecorder()
        recorder.record(0.0, 0.0, 0.010, 200)
        assert "kinds" not in recorder.summary()


class TestReportKinds:
    @staticmethod
    def _report():
        recorder = TestRecorderKinds._recorder()
        config = {"url": "http://x", "duration_s": 1.0, "churn": 0.5}
        offered = {"kind": "constant", "rate": 4.0, "requests": 4}
        return build_report(config, offered, 1.0, recorder.summary())

    def test_kinds_section_validates(self):
        assert report_problems(self._report()) == []

    def test_malformed_kinds_reported(self):
        report = self._report()
        report["summary"]["kinds"]["plan"]["count"] = "two"
        problems = report_problems(report)
        assert any("kinds['plan'].count" in p for p in problems)
        report["summary"]["kinds"] = []
        problems = report_problems(report)
        assert any("summary.kinds must be an object" in p
                   for p in problems)

    def test_table_renders_kind_rows(self):
        table = render_table(self._report())
        assert "kind" in table
        assert "plan" in table and "delta" in table
