"""Tests for schedule_from_segments — the executor-to-schedule bridge."""

from __future__ import annotations

import pytest

from repro.classical.execution import schedule_from_segments
from repro.errors import InfeasibleScheduleError
from repro.model.job import Instance


@pytest.fixture
def inst():
    return Instance.classical([(0.0, 2.0, 1.0), (0.0, 2.0, 1.0)], m=1, alpha=3.0)


class TestScheduleFromSegments:
    def test_boundaries_refine_grid(self, inst):
        # A speed change at t=0.7 (not an event point) must become a grid
        # boundary so the energy accounting stays exact.
        segments = [(0, 0.0, 0.7, 1.0), (0, 0.7, 1.0, 1.0), (1, 1.0, 2.0, 1.0)]
        sched = schedule_from_segments(inst, segments, [True, True])
        assert 0.7 in sched.grid.boundaries.tolist()

    def test_energy_matches_piecewise_integral(self, inst):
        # Speed 2 for 0.5 units then speed 1 for 1 unit on job 0.
        segments = [(0, 0.0, 0.5, 2.0), (1, 0.5, 1.5, 1.0)]
        sched = schedule_from_segments(inst, segments, [True, True])
        expected = 0.5 * 2.0**3 + 1.0 * 1.0**3
        assert sched.energy == pytest.approx(expected, rel=1e-9)

    def test_segment_straddling_event_point_splits_work(self, inst):
        # Instance event points are {0, 2}; add a third job event via a
        # segment crossing t=1 on a refined grid.
        segments = [(0, 0.5, 1.5, 1.0)]
        sched = schedule_from_segments(inst, segments, [False, False])
        assert sched.work_done()[0] == pytest.approx(1.0)

    def test_unknown_job_rejected(self, inst):
        with pytest.raises(InfeasibleScheduleError):
            schedule_from_segments(inst, [(7, 0.0, 1.0, 1.0)], [False, False])

    def test_zero_length_segments_ignored(self, inst):
        sched = schedule_from_segments(
            inst, [(0, 1.0, 1.0, 5.0)], [False, False]
        )
        assert sched.energy == 0.0

    def test_multiprocessor_parallel_segments_exact_energy(self):
        inst = Instance.classical([(0.0, 1.0, 2.0), (0.0, 1.0, 1.0)], m=2, alpha=3.0)
        segments = [(0, 0.0, 1.0, 2.0), (1, 0.0, 1.0, 1.0)]
        sched = schedule_from_segments(inst, segments, [True, True])
        # Both dedicated: 2^3 + 1^3 = 9.
        assert sched.energy == pytest.approx(9.0, rel=1e-9)

    def test_finished_claims_validated_downstream(self, inst):
        sched = schedule_from_segments(
            inst, [(0, 0.0, 1.0, 1.0)], [True, False]
        )
        sched.validate()  # job 0 got its full unit of work
        with pytest.raises(InfeasibleScheduleError):
            schedule_from_segments(inst, [(0, 0.0, 0.5, 1.0)], [True, False]).validate()
