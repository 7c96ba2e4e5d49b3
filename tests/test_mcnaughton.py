"""Tests for McNaughton's wrap-around layout."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chen.mcnaughton import mcnaughton_layout
from repro.errors import InfeasibleScheduleError
from repro.model.validation import (
    check_no_job_self_overlap,
    check_no_processor_overlap,
    check_segment_work,
)


def layout(durations, *, length=1.0, procs=2, speed=1.0, start=0.0, first=0):
    return mcnaughton_layout(
        list(range(len(durations))),
        durations,
        start=start,
        length=length,
        first_processor=first,
        num_processors=procs,
        speed=speed,
    )


class TestLayoutBasics:
    def test_single_job_single_processor(self):
        segs = layout([0.7], procs=1)
        assert len(segs) == 1
        assert segs[0].processor == 0
        assert segs[0].duration == pytest.approx(0.7)

    def test_wrap_splits_job_across_processors(self):
        # Jobs 0.8 + 0.8 on 2 processors of length 1: job 1 wraps.
        segs = layout([0.8, 0.8])
        by_job = {}
        for s in segs:
            by_job.setdefault(s.job, []).append(s)
        assert len(by_job[0]) == 1
        assert len(by_job[1]) == 2
        # The two pieces of job 1 do not overlap in time.
        check_no_job_self_overlap(segs)

    def test_work_conservation(self):
        durations = [0.5, 0.9, 0.3, 0.3]
        segs = layout(durations, procs=2, speed=2.0)
        expected = {i: d * 2.0 for i, d in enumerate(durations)}
        check_segment_work(segs, expected)

    def test_zero_duration_jobs_skipped(self):
        segs = layout([0.0, 0.5, 0.0])
        assert {s.job for s in segs} == {1}

    def test_first_processor_offset(self):
        segs = layout([0.5], first=3)
        assert segs[0].processor == 3

    def test_start_offset(self):
        segs = layout([0.5], start=10.0)
        assert segs[0].start == pytest.approx(10.0)

    def test_overfull_pool_rejected(self):
        with pytest.raises(InfeasibleScheduleError):
            layout([1.0, 1.0, 1.0], procs=2)

    def test_single_overlong_job_rejected(self):
        with pytest.raises(InfeasibleScheduleError):
            layout([1.5], procs=2)

    def test_full_strips_advance_past_rounding(self):
        # 3 * 0.7 / 0.7 == 2.9999999999999996: re-deriving the strip
        # from the cursor once sent the fourth job back onto the full
        # third strip, forever.
        segs = mcnaughton_layout(
            [0, 1, 2, 3],
            [0.7, 0.7, 0.7, 0.5],
            start=0.0,
            length=0.7,
            first_processor=0,
            num_processors=4,
            speed=1.0,
        )
        assert [(s.job, s.processor, s.start, s.end) for s in segs] == [
            (0, 0, 0.0, 0.7),
            (1, 1, 0.0, 0.7),
            (2, 2, 0.0, 0.7),
            (3, 3, 0.0, 0.5),
        ]

    def test_dust_past_the_last_strip_is_dropped(self):
        # Within the capacity tolerance but past the end of the last
        # strip: nowhere left to advance to, so the loop must stop.
        segs = layout([1.0, 1.0, 1e-10], procs=2)
        assert [(s.job, s.processor) for s in segs] == [(0, 0), (1, 1)]

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(InfeasibleScheduleError):
            mcnaughton_layout(
                [0, 1],
                [0.5],
                start=0.0,
                length=1.0,
                first_processor=0,
                num_processors=1,
                speed=1.0,
            )


class TestLayoutProperties:
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10
        ),
        procs=st.integers(min_value=1, max_value=5),
        length=st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=200)
    def test_always_feasible_when_capacity_suffices(self, durations, procs, length):
        scaled = [d * length for d in durations]  # each fits one strip
        if sum(scaled) > procs * length:
            return  # capacity exceeded; covered by the rejection test
        segs = layout(scaled, procs=procs, length=length)
        check_no_processor_overlap(segs)
        check_no_job_self_overlap(segs)
        total = sum(s.duration for s in segs)
        assert total == pytest.approx(sum(scaled), abs=1e-7)

    @given(
        durations=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=10
        ),
    )
    @settings(max_examples=100)
    def test_segments_stay_inside_interval(self, durations):
        procs = len(durations)  # always enough capacity
        segs = layout(durations, procs=procs, length=1.0, start=5.0)
        for s in segs:
            assert s.start >= 5.0 - 1e-9
            assert s.end <= 6.0 + 1e-9

    @given(
        durations=st.lists(
            st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=8
        ),
    )
    @settings(max_examples=100)
    def test_at_most_procs_minus_one_migrations(self, durations):
        """McNaughton's classic guarantee: at most m-1 jobs are split."""
        procs = max(2, int(np.ceil(sum(durations))) + 1)
        segs = layout(durations, procs=procs, length=1.0)
        split_jobs = set()
        seen = set()
        for s in segs:
            if s.job in seen:
                split_jobs.add(s.job)
            seen.add(s.job)
        assert len(split_jobs) <= procs - 1
