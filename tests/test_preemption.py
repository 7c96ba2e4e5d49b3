"""Tests for preemption/migration accounting (:mod:`repro.analysis.preemption`).

Pins the structural bounds of the realization substrate: McNaughton's
per-interval migration cap, zero migrations on a single processor, and
sane counting on hand-built schedules where the answer is known.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import run_pd
from repro.analysis.preemption import preemption_stats
from repro.chen.scheduler import schedule_interval
from repro.model.job import Instance
from repro.model.power import PolynomialPower
from repro.workloads.random_instances import poisson_instance

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def _interval_migrations(loads, m):
    """Count wrap migrations in one realized atomic interval."""
    interval = schedule_interval(
        loads, m=m, start=0.0, end=1.0, power=PolynomialPower(3.0)
    )
    by_job: dict[int, list] = {}
    for seg in interval.segments:
        by_job.setdefault(seg.job, []).append(seg)
    count = 0
    for runs in by_job.values():
        runs.sort(key=lambda s: s.start)
        count += sum(
            1 for a, b in zip(runs, runs[1:]) if a.processor != b.processor
        )
    return count


class TestMcNaughtonBound:
    @given(
        n_jobs=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=50),
    )
    @SETTINGS
    def test_per_interval_migrations_below_m_minus_1(self, n_jobs, m, seed):
        rng = np.random.default_rng(seed)
        loads = rng.uniform(0.01, 1.0, size=n_jobs)
        assert _interval_migrations(loads, m) <= max(m - 1, 0)

    def test_equal_pool_jobs_wrap(self):
        # 5 equal jobs on 3 processors: all pool; the virtual timeline is
        # cut twice, so exactly 2 jobs migrate (the m-1 bound is tight).
        assert _interval_migrations([1.0] * 5, 3) == 2

    def test_dedicated_jobs_never_migrate(self):
        # One giant + tiny rest: giant is dedicated, others pool on m=2.
        assert _interval_migrations([100.0, 0.1, 0.1], 2) <= 1


class TestScheduleLevelStats:
    def test_single_processor_never_migrates(self):
        inst = poisson_instance(10, m=1, alpha=3.0, seed=3)
        stats = preemption_stats(run_pd(inst).schedule)
        assert stats.migrations == 0
        assert stats.max_migrations_per_interval == 0
        assert stats.segments > 0

    def test_single_job_has_no_preemptions(self):
        inst = Instance.from_tuples([(0.0, 2.0, 1.0, 10.0)], m=1, alpha=3.0)
        stats = preemption_stats(run_pd(inst).schedule)
        assert stats.preemptions == 0
        assert stats.migrations == 0
        assert stats.segments == 1

    def test_two_disjoint_jobs_no_preemptions(self):
        inst = Instance.from_tuples(
            [(0.0, 1.0, 0.5, 10.0), (2.0, 3.0, 0.5, 10.0)], m=1, alpha=3.0
        )
        stats = preemption_stats(run_pd(inst).schedule)
        assert stats.preemptions == 0

    def test_interleaved_jobs_count_preemptions(self):
        # A long job interrupted by a tight one: the long job's work is
        # split around the middle interval -> at least one preemption.
        inst = Instance.from_tuples(
            [(0.0, 3.0, 1.0, 100.0), (1.0, 2.0, 1.5, 100.0)], m=1, alpha=3.0
        )
        stats = preemption_stats(run_pd(inst).schedule)
        assert stats.preemptions >= 1
        assert stats.migrations == 0  # single processor

    @given(seed=st.integers(min_value=0, max_value=20))
    @SETTINGS
    def test_bounds_hold_on_random_multiproc(self, seed):
        inst = poisson_instance(8, m=3, alpha=3.0, seed=seed)
        stats = preemption_stats(run_pd(inst).schedule)
        assert stats.max_migrations_per_interval <= inst.m - 1
        # Every migration is also a preemption by our counting.
        assert stats.preemptions + stats.migrations >= stats.migrations
        assert stats.segments >= int(run_pd(inst).accepted_mask.sum())

    def test_row_rendering(self):
        inst = poisson_instance(5, m=2, alpha=3.0, seed=1)
        text = preemption_stats(run_pd(inst).schedule).row()
        assert "migrations=" in text and "segments=" in text
