"""Tests for schedule_from_segments — the executor-to-schedule bridge."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.classical.execution import loads_from_segments, schedule_from_segments
from repro.errors import InfeasibleScheduleError
from repro.model.intervals import Grid
from repro.model.job import Instance
from repro.perf.reference import loads_from_segments_reference


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


@st.composite
def segment_cases(draw):
    """A grid and segments over it: segments across several intervals,
    segments no longer than the 1e-12 skip, several segments on one
    ``(job, interval)`` cell, and now and then an unknown job or a start
    outside the grid."""
    widths = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=8))
    bounds = np.concatenate(([0.5], 0.5 + np.cumsum(widths)))
    points = bounds.tolist()
    n = draw(st.integers(1, 5))
    time = st.one_of(
        st.sampled_from(points),
        st.floats(points[0], points[-1]),
        st.sampled_from(points).map(lambda p: p + 3e-13),
    )
    segments = []
    for _ in range(draw(st.integers(0, 14))):
        start = draw(time)
        end = draw(
            st.one_of(
                st.just(start + 1e-12),
                time.filter(lambda t, start=start: t > start),
                st.floats(start, points[-1] + 1.0),
            )
        )
        job = draw(st.integers(0, n - 1))
        segments.append((job, start, end, draw(st.floats(0.0, 4.0))))
    if segments and draw(st.booleans()):
        # Repeat a segment's cells with another speed.
        job, start, end, _ = draw(st.sampled_from(segments))
        segments.append((job, start, end, draw(st.floats(0.1, 4.0))))
    hostile = draw(st.sampled_from(["none", "none", "unknown job", "early", "late"]))
    at = draw(st.integers(0, len(segments)))
    if hostile == "unknown job":
        segments.insert(at, (n + draw(st.integers(0, 3)), points[0], points[-1], 1.0))
    elif hostile == "early":
        segments.insert(at, (0, points[0] - 1e-9, points[0] + 0.5, 1.0))
    elif hostile == "late":
        segments.insert(at, (0, points[-1], points[-1] + 0.5, 1.0))
    return n, Grid(bounds), segments


def _outcome(build, n, grid, segments):
    try:
        return build(n, grid, segments).tobytes()
    except (IndexError, InfeasibleScheduleError) as exc:
        return type(exc), str(exc)


class TestLoadsFromSegmentsParity:
    """The bisect-and-scatter segment loop against the historical
    per-overlap loop, bit for bit, errors included."""

    @given(case=segment_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        n, grid, segments = case
        assert _outcome(loads_from_segments, n, grid, segments) == _outcome(
            loads_from_segments_reference, n, grid, segments
        )

    def test_repeated_cells_add_in_segment_order(self):
        grid = Grid(np.array([0.0, 1.0, 2.0]))
        segments = [(0, 0.0, 2.0, 0.1), (0, 0.0, 1.0, 0.2), (0, 0.5, 1.5, 0.3)]
        new = loads_from_segments(1, grid, segments)
        old = loads_from_segments_reference(1, grid, segments)
        assert new.tobytes() == old.tobytes()
        assert new[0, 0] == (0.0 + 0.1) + 0.2 + 0.5 * 0.3

    @pytest.mark.parametrize("start", [-1.0, 2.0, 3.0])
    def test_start_outside_the_grid_raises_index_error(self, start):
        grid = Grid(np.array([0.0, 1.0, 2.0]))
        for build in (loads_from_segments, loads_from_segments_reference):
            with pytest.raises(IndexError, match="outside grid span"):
                build(1, grid, [(0, start, start + 1.0, 1.0)])
