"""Tests for IntervalSet algebra and the EDF executor."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.classical.timeline import IntervalSet, edf_execute
from repro.errors import InfeasibleScheduleError, InvalidParameterError


def iset(*parts):
    return IntervalSet.from_parts(parts)


class TestIntervalSet:
    def test_from_parts_merges_touching(self):
        s = iset((0.0, 1.0), (1.0, 2.0), (3.0, 4.0))
        assert s.parts == ((0.0, 2.0), (3.0, 4.0))

    def test_degenerate_parts_dropped(self):
        assert iset((0.0, 0.0), (1.0, 1.0 + 1e-15)).parts == ()

    def test_invalid_direct_construction(self):
        with pytest.raises(InvalidParameterError):
            IntervalSet(parts=((1.0, 0.5),))
        with pytest.raises(InvalidParameterError):
            IntervalSet(parts=((0.0, 2.0), (1.0, 3.0)))

    def test_measure_within(self):
        s = iset((0.0, 2.0), (3.0, 5.0))
        assert s.measure_within(1.0, 4.0) == pytest.approx(2.0)
        assert s.measure_within(5.0, 9.0) == 0.0

    def test_union(self):
        a, b = iset((0.0, 1.0)), iset((0.5, 2.0))
        assert a.union(b).parts == ((0.0, 2.0),)

    def test_subtract_middle(self):
        s = iset((0.0, 3.0)).subtract(iset((1.0, 2.0)))
        assert s.parts == ((0.0, 1.0), (2.0, 3.0))

    def test_subtract_everything(self):
        assert iset((0.0, 1.0)).subtract(iset((0.0, 2.0))).parts == ()

    @given(
        parts=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            max_size=6,
        ),
        window=st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=10.0),
        ),
    )
    @settings(max_examples=200)
    def test_subtract_union_measures(self, parts, window):
        """measure(A) == measure(A - B) + measure(A ∩ B) (via window B)."""

        def measure(s):
            return sum(b - a for a, b in s.parts)

        a = IntervalSet.from_parts((min(p), max(p)) for p in parts)
        lo, hi = min(window), max(window)
        if hi > lo + 1e-9:
            b = IntervalSet.span(lo, hi)
            inter = sum(max(0.0, min(y, hi) - max(x, lo)) for x, y in a.parts)
        else:
            b, inter = IntervalSet.empty(), 0.0
        assert measure(a.subtract(b)) + inter == pytest.approx(
            measure(a), abs=1e-7
        )


class TestEdfExecute:
    def test_single_job(self):
        segs = edf_execute(
            job_ids=[0],
            releases=[0.0],
            deadlines=[1.0],
            workloads=[0.5],
            region=IntervalSet.span(0.0, 1.0),
            speed=1.0,
        )
        assert len(segs) == 1
        job, a, b, s = segs[0]
        assert (job, a, s) == (0, 0.0, 1.0)
        assert b == pytest.approx(0.5)

    def test_edf_priority(self):
        # Tighter-deadline job 1 preempts nothing but runs first.
        segs = edf_execute(
            job_ids=[0, 1],
            releases=[0.0, 0.0],
            deadlines=[2.0, 1.0],
            workloads=[1.0, 1.0],
            region=IntervalSet.span(0.0, 2.0),
            speed=1.0,
        )
        assert segs[0][0] == 1  # earliest deadline first
        assert segs[1][0] == 0

    def test_late_release_waits(self):
        segs = edf_execute(
            job_ids=[0],
            releases=[1.0],
            deadlines=[2.0],
            workloads=[0.5],
            region=IntervalSet.span(0.0, 2.0),
            speed=1.0,
        )
        assert segs[0][1] == pytest.approx(1.0)

    def test_disconnected_region(self):
        segs = edf_execute(
            job_ids=[0],
            releases=[0.0],
            deadlines=[4.0],
            workloads=[2.0],
            region=iset((0.0, 1.0), (3.0, 4.0)),
            speed=1.0,
        )
        assert len(segs) == 2
        spans = [(a, b) for _, a, b, _ in segs]
        assert spans == [(0.0, 1.0), (3.0, 4.0)]

    def test_infeasible_speed_detected(self):
        with pytest.raises(InfeasibleScheduleError):
            edf_execute(
                job_ids=[0],
                releases=[0.0],
                deadlines=[1.0],
                workloads=[5.0],
                region=IntervalSet.span(0.0, 1.0),
                speed=1.0,
            )

    def test_zero_speed_rejected(self):
        with pytest.raises(InvalidParameterError):
            edf_execute(
                job_ids=[0],
                releases=[0.0],
                deadlines=[1.0],
                workloads=[0.5],
                region=IntervalSet.span(0.0, 1.0),
                speed=0.0,
            )

    def test_preemption_on_tighter_arrival(self):
        # Job 0 runs, job 1 (tighter) arrives at 0.5 and preempts.
        segs = edf_execute(
            job_ids=[0, 1],
            releases=[0.0, 0.5],
            deadlines=[3.0, 1.0],
            workloads=[2.0, 0.5],
            region=IntervalSet.span(0.0, 3.0),
            speed=1.0,
        )
        order = [j for j, *_ in segs]
        assert order == [0, 1, 0]

    def test_work_conservation(self):
        workloads = [0.7, 0.9, 0.4]
        segs = edf_execute(
            job_ids=[0, 1, 2],
            releases=[0.0, 0.2, 0.4],
            deadlines=[3.0, 2.0, 2.5],
            workloads=workloads,
            region=IntervalSet.span(0.0, 3.0),
            speed=1.0,
        )
        done = {j: 0.0 for j in range(3)}
        for j, a, b, s in segs:
            done[j] += (b - a) * s
        for j, w in enumerate(workloads):
            assert done[j] == pytest.approx(w, abs=1e-9)
