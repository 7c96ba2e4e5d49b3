"""Tests for the full-horizon Schedule object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GridMismatchError, InfeasibleScheduleError
from repro.model.intervals import grid_for_instance
from repro.model.job import Instance
from repro.model.schedule import Schedule
from repro.model.validation import validate_segments


@pytest.fixture
def two_job_instance() -> Instance:
    return Instance.from_tuples(
        [(0.0, 2.0, 2.0, 5.0), (1.0, 3.0, 1.0, 3.0)], m=1, alpha=3.0
    )


def make_schedule(inst: Instance, loads, finished) -> Schedule:
    return Schedule(
        instance=inst,
        grid=grid_for_instance(inst),
        loads=np.array(loads, dtype=float),
        finished=np.array(finished, dtype=bool),
    )


class TestCost:
    def test_energy_and_lost_value(self, two_job_instance):
        # Grid: [0,1), [1,2), [2,3). Job 0 fully in [0,2), job 1 rejected.
        sched = make_schedule(
            two_job_instance,
            [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
            [True, False],
        )
        # Single processor: speed 1 in each of the two unit intervals.
        assert sched.energy == pytest.approx(2.0)
        assert sched.lost_value == pytest.approx(3.0)
        assert sched.cost == pytest.approx(5.0)
        breakdown = sched.cost_breakdown()
        assert breakdown.total == pytest.approx(5.0)
        assert "energy" in str(breakdown)

    def test_empty_schedule_costs_total_value(self, two_job_instance):
        sched = Schedule.empty(two_job_instance, grid_for_instance(two_job_instance))
        assert sched.energy == 0.0
        assert sched.cost == pytest.approx(8.0)

    def test_from_portions(self, two_job_instance):
        grid = grid_for_instance(two_job_instance)
        x = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        sched = Schedule.from_portions(
            two_job_instance, grid, x, np.array([True, True])
        )
        np.testing.assert_allclose(sched.loads[0], [1.0, 1.0, 0.0])
        np.testing.assert_allclose(sched.loads[1], [0.0, 0.5, 0.5])


class TestValidation:
    def test_shape_mismatch_rejected(self, two_job_instance):
        with pytest.raises(GridMismatchError):
            make_schedule(two_job_instance, [[1.0, 0.0, 0.0]], [True, False])

    def test_negative_load_rejected(self, two_job_instance):
        sched = make_schedule(
            two_job_instance, [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [False, False]
        )
        with pytest.raises(InfeasibleScheduleError):
            sched.validate()

    def test_work_outside_window_rejected(self, two_job_instance):
        # Job 1 is not available in [0,1).
        sched = make_schedule(
            two_job_instance, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [False, False]
        )
        with pytest.raises(InfeasibleScheduleError):
            sched.validate()

    def test_underfilled_finish_claim_rejected(self, two_job_instance):
        sched = make_schedule(
            two_job_instance, [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]], [True, False]
        )
        with pytest.raises(InfeasibleScheduleError):
            sched.validate()
        sched.validate(strict_finish=False)  # tolerated when asked

    def test_valid_schedule_passes(self, two_job_instance):
        sched = make_schedule(
            two_job_instance,
            [[1.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
            [True, True],
        )
        sched.validate()


class TestAccounting:
    def test_work_done_and_fractions(self, two_job_instance):
        sched = make_schedule(
            two_job_instance,
            [[1.0, 0.5, 0.0], [0.0, 0.5, 0.5]],
            [False, True],
        )
        np.testing.assert_allclose(sched.work_done(), [1.5, 1.0])
        np.testing.assert_allclose(sched.completion_fractions(), [0.75, 1.0])

    def test_portions_roundtrip(self, two_job_instance):
        loads = [[1.0, 1.0, 0.0], [0.0, 0.5, 0.5]]
        sched = make_schedule(two_job_instance, loads, [True, True])
        x = sched.portions()
        np.testing.assert_allclose(x[0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(x[1], [0.0, 0.5, 0.5])


class TestRealizeAndSpeeds:
    def test_realize_segments_valid(self, two_job_instance):
        sched = make_schedule(
            two_job_instance,
            [[1.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
            [True, True],
        )
        segments = [
            seg for isched in sched.realize() for seg in isched.segments
        ]
        validate_segments(segments, m=1)
        work = {}
        for seg in segments:
            work[seg.job] = work.get(seg.job, 0.0) + seg.work
        assert work[0] == pytest.approx(2.0)
        assert work[1] == pytest.approx(1.0)

    def test_processor_speed_matrix_descending(self, two_job_instance):
        inst = two_job_instance.with_machine(m=2)
        sched = Schedule(
            instance=inst,
            grid=grid_for_instance(inst),
            loads=np.array([[1.0, 1.0, 0.0], [0.0, 0.5, 0.5]]),
            finished=np.array([True, True]),
        )
        mat = sched.processor_speed_matrix()
        assert mat.shape == (2, 3)
        assert np.all(np.diff(mat, axis=0) <= 1e-12)  # rows sorted fast->slow

    def test_summary_mentions_acceptance(self, two_job_instance):
        sched = make_schedule(
            two_job_instance,
            [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
            [True, False],
        )
        assert "1/2" in sched.summary()
