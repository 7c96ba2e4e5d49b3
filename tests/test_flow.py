"""Tests for Horn's max-flow feasibility oracle (:mod:`repro.offline.flow`).

The oracle is deliberately independent of the library's constructive
scheduling code (it rests on networkx max-flow), so these tests use it
both as a subject and as a cross-checker: its feasibility verdicts must
agree with hand-computable cases, with the analytic lower bounds, and
with the constructive Chen/McNaughton layer on random instances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.classical.yds import yds
from repro.errors import InvalidParameterError
from repro.model.job import Instance
from repro.offline.flow import (
    check_feasible_at_speed,
    minimal_uniform_speed,
    run_uniform_speed,
)
from repro.workloads.random_instances import poisson_instance

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _classical(rows, m=1, alpha=3.0):
    return Instance.classical(rows, m=m, alpha=alpha)


# ---------------------------------------------------------------------------
# Feasibility oracle
# ---------------------------------------------------------------------------
class TestFeasibilityOracle:
    def test_single_job_threshold(self):
        inst = _classical([(0.0, 2.0, 1.0)])
        assert check_feasible_at_speed(inst, 0.5).feasible
        assert check_feasible_at_speed(inst, 10.0).feasible
        assert not check_feasible_at_speed(inst, 0.4999).feasible

    def test_two_stacked_jobs_single_proc(self):
        # Both jobs live in [1,2): need combined speed 2 there, plus job 1
        # can use [0,1): feasible at speed 1... no — at speed 1 job 2
        # occupies all of [1,2) alone, job 1 must fit in [0,1): works.
        inst = _classical([(0.0, 2.0, 1.0), (1.0, 2.0, 1.0)])
        assert check_feasible_at_speed(inst, 1.0).feasible
        assert not check_feasible_at_speed(inst, 0.9).feasible

    def test_parallelism_cap_binds(self):
        # Three unit jobs in a unit window on two processors: a job cannot
        # run on two processors at once, so speed 1.5 is needed (not 1.0,
        # which total capacity alone would allow... total work 3 <= 2*1*1.5).
        inst = _classical(
            [(0.0, 1.0, 1.0)] * 3, m=2
        )
        assert check_feasible_at_speed(inst, 1.5).feasible
        assert not check_feasible_at_speed(inst, 1.2).feasible

    def test_speed_validation(self):
        inst = _classical([(0.0, 1.0, 1.0)])
        with pytest.raises(InvalidParameterError):
            check_feasible_at_speed(inst, 0.0)

    def test_accepted_subset_only(self):
        inst = _classical([(0.0, 1.0, 1.0), (0.0, 1.0, 5.0)])
        # Full set needs speed 6 on one processor; job 0 alone only 1.
        assert not check_feasible_at_speed(inst, 2.0).feasible
        assert check_feasible_at_speed(inst, 1.0, accepted=(0,)).feasible

    def test_empty_demand_feasible(self):
        inst = _classical([(0.0, 1.0, 1.0)])
        out = check_feasible_at_speed(inst, 1.0, accepted=())
        assert out.feasible and out.demand == 0.0

    def test_witness_respects_windows_and_capacities(self):
        inst = _classical(
            [(0.0, 3.0, 2.0), (1.0, 2.0, 1.0), (0.5, 2.5, 1.5)], m=2
        )
        s = minimal_uniform_speed(inst)
        witness = check_feasible_at_speed(inst, s)
        from repro.model.intervals import grid_for_instance

        grid = grid_for_instance(inst)
        avail = grid.availability_matrix(inst)
        busy = witness.busy_time
        assert (busy[~avail] == 0.0).all()
        # Per-job per-interval busy time never exceeds the interval.
        assert (busy <= grid.lengths[None, :] + 1e-9).all()
        # Per-interval total never exceeds m * length.
        assert (busy.sum(axis=0) <= inst.m * grid.lengths + 1e-9).all()


# ---------------------------------------------------------------------------
# Minimal uniform speed
# ---------------------------------------------------------------------------
class TestMinimalUniformSpeed:
    def test_single_job_density(self):
        inst = _classical([(0.0, 4.0, 2.0)])
        assert minimal_uniform_speed(inst) == pytest.approx(0.5)

    def test_window_bound_dominates(self):
        # Two unit jobs inside [0,1) on one processor: speed 2 needed.
        inst = _classical([(0.0, 1.0, 1.0), (0.0, 1.0, 1.0)])
        assert minimal_uniform_speed(inst) == pytest.approx(2.0)

    def test_parallelism_bound_needs_bisection(self):
        # Three unit jobs in [0,1) on m=2: analytic window bound gives
        # 3/2 = 1.5 which happens to be exact here; a staircase instance
        # where the bound is *not* tight exercises the bisection branch.
        inst = _classical(
            [(0.0, 1.0, 1.0), (0.0, 2.0, 1.8), (0.0, 2.0, 1.8)], m=2
        )
        s = minimal_uniform_speed(inst)
        assert check_feasible_at_speed(inst, s * 1.0000001).feasible
        assert not check_feasible_at_speed(inst, s * 0.999).feasible

    def test_no_jobs_raises(self):
        inst = _classical([(0.0, 1.0, 1.0)])
        with pytest.raises(InvalidParameterError):
            minimal_uniform_speed(inst, accepted=())

    @given(seed=st.integers(min_value=0, max_value=12))
    @SETTINGS
    def test_minimality_random(self, seed):
        inst = poisson_instance(6, m=2, alpha=3.0, seed=seed)
        s = minimal_uniform_speed(inst)
        assert check_feasible_at_speed(inst, s * (1 + 1e-7)).feasible
        assert not check_feasible_at_speed(inst, s * 0.99).feasible


# ---------------------------------------------------------------------------
# Uniform-speed baseline schedule
# ---------------------------------------------------------------------------
class TestUniformSpeedBaseline:
    def test_schedule_validates_and_finishes_everything(self):
        inst = _classical(
            [(0.0, 3.0, 2.0), (1.0, 2.0, 1.0), (0.5, 2.5, 1.5)], m=2
        )
        result = run_uniform_speed(inst)
        result.schedule.validate()
        assert result.schedule.finished.all()
        assert result.lost_value == 0.0
        # Pinned-speed energy never undercuts the energy-minimal
        # realization of the same loads.
        assert result.energy >= result.schedule.energy - 1e-9

    def test_energy_is_work_times_speed_power(self):
        inst = _classical([(0.0, 2.0, 1.0), (1.0, 2.0, 1.0)])
        s = minimal_uniform_speed(inst)
        result = run_uniform_speed(inst)
        total_work = float(inst.workloads.sum())
        # All busy time runs at speed s: E = (work / s) * s^alpha.
        assert result.energy == pytest.approx(
            (total_work / s) * s**inst.alpha, rel=1e-6
        )

    def test_explicit_speed_must_be_feasible(self):
        inst = _classical([(0.0, 1.0, 1.0)])
        with pytest.raises(InvalidParameterError):
            run_uniform_speed(inst, speed=0.5)
        result = run_uniform_speed(inst, speed=2.0)
        assert result.energy == pytest.approx(0.5 * 2.0**3)

    def test_yds_never_worse_than_uniform_single_proc(self):
        # YDS is the offline optimum; the uniform baseline is feasible,
        # so YDS's energy is a lower bound — strictly lower whenever the
        # optimal profile is non-constant.
        inst = _classical(
            [(0.0, 1.0, 1.0), (0.0, 4.0, 0.5), (2.0, 3.0, 1.2)]
        )
        uniform = run_uniform_speed(inst)
        optimal = yds(inst)
        assert optimal.energy <= uniform.energy + 1e-9
        assert optimal.energy < uniform.energy * 0.95  # non-constant here

    @given(seed=st.integers(min_value=0, max_value=10))
    @SETTINGS
    def test_uniform_upper_bounds_yds_random(self, seed):
        inst = poisson_instance(5, m=1, alpha=3.0, seed=seed).with_values(
            [1e30] * 5
        )
        uniform = run_uniform_speed(inst)
        uniform.schedule.validate()
        assert yds(inst).energy <= uniform.energy + 1e-7

    def test_subset_accepted_marks_rest_unfinished(self):
        inst = Instance.from_tuples(
            [(0.0, 1.0, 1.0, 2.0), (0.0, 1.0, 1.0, 3.0)], m=1, alpha=3.0
        )
        result = run_uniform_speed(inst, accepted=(1,))
        assert result.schedule.finished.tolist() == [False, True]
        assert result.lost_value == pytest.approx(2.0)
        assert result.cost == pytest.approx(result.energy + 2.0)


class TestFlowVsYds:
    """On one processor the minimal uniform speed equals YDS's peak
    speed: both are the maximum density over critical intervals. Two
    entirely independent code paths (max-flow bisection vs the
    combinatorial YDS peeling) must agree on this number."""

    @given(seed=st.integers(min_value=0, max_value=15))
    @SETTINGS
    def test_minimal_speed_equals_yds_peak_single_proc(self, seed):
        inst = poisson_instance(6, m=1, alpha=3.0, seed=seed).with_values(
            [1e30] * 6
        )
        s_flow = minimal_uniform_speed(inst)
        speeds = yds(inst).schedule.processor_speed_matrix()
        s_yds_peak = float(speeds.max())
        assert s_flow == pytest.approx(s_yds_peak, rel=1e-6)

    def test_handcrafted_peak(self):
        # Critical interval [1,2) with 2 units of work: peak 2.0.
        inst = _classical(
            [(0.0, 3.0, 1.0), (1.0, 2.0, 2.0)], m=1
        )
        assert minimal_uniform_speed(inst) == pytest.approx(2.0)
        speeds = yds(inst).schedule.processor_speed_matrix()
        assert float(speeds.max()) == pytest.approx(2.0)
