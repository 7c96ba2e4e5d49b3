"""Tests for the PD primal-dual online algorithm (the paper's Listing 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classical.oa import run_oa
from repro.classical.yds import yds
from repro.core.pd import PDScheduler, run_pd
from repro.errors import InvalidParameterError
from repro.model.job import Instance, Job
from repro.perf.reference import _refine
from repro.workloads import (
    lower_bound_instance,
    pd_cost_closed_form,
    poisson_instance,
)


class TestBasicBehaviour:
    def test_single_job_runs_at_minimal_speed(self):
        inst = Instance.classical([(0.0, 2.0, 4.0)], m=1, alpha=3.0)
        result = run_pd(inst)
        assert result.accepted_mask.all()
        assert result.cost == pytest.approx(2.0 * 2.0**3)

    def test_worthless_job_rejected(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1e-9)], m=1, alpha=3.0)
        result = run_pd(inst)
        assert not result.accepted_mask.any()
        assert result.cost == pytest.approx(1e-9)
        assert result.schedule.energy == 0.0

    def test_rejection_threshold_single_job(self):
        """A lone job is rejected iff planned energy > alpha^(alpha-2) * v.

        This is the paper's Section 3 observation about the rejection
        policy with the optimal delta (here: energy 1, alpha = 3, so the
        threshold value is 1/3).
        """
        for value, expect in [(0.34, True), (0.32, False)]:
            inst = Instance.from_tuples([(0.0, 1.0, 1.0, value)], m=1, alpha=3.0)
            assert bool(run_pd(inst).accepted_mask[0]) is expect

    def test_decisions_recorded(self):
        inst = Instance.from_tuples(
            [(0.0, 1.0, 1.0, 100.0), (0.0, 1.0, 1.0, 1e-9)], m=1, alpha=3.0
        )
        result = run_pd(inst)
        assert len(result.decisions) == 2
        assert result.decisions[0].accepted or result.decisions[1].accepted
        for d in result.decisions:
            assert d.lam >= 0.0
            assert d.planned_speed >= 0.0

    def test_schedule_validates(self):
        inst = poisson_instance(25, m=3, alpha=2.5, seed=0)
        result = run_pd(inst)
        result.schedule.validate()

    def test_small_job_beside_a_huge_load_gets_its_workload(self):
        # The second job clears at s = fl(1e6 + 0.0105), where its load
        # ``s - 1e6`` cancels to 2.4e-9 short of the workload; the
        # water-fill scales it back, so the schedule validates.
        inst = Instance.from_tuples(
            [(0.0, 1.0, 1e6, 1e18), (0.0, 1.0, 0.0105, 1e10)], m=1, alpha=3.0
        )
        result = run_pd(inst)
        assert result.accepted_mask.all()
        result.schedule.validate()
        assert result.schedule.loads[1].sum() == pytest.approx(0.0105, rel=1e-12)

    def test_summary_text(self):
        inst = Instance.classical([(0.0, 1.0, 1.0)], m=1, alpha=3.0)
        text = run_pd(inst).summary()
        assert "delta" in text


class TestOnlineDiscipline:
    def test_out_of_order_arrivals_rejected(self):
        sched = PDScheduler(m=1, alpha=3.0)
        sched.arrive(Job(1.0, 2.0, 1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            sched.arrive(Job(0.0, 3.0, 1.0, 1.0))

    def test_finish_without_jobs_rejected(self):
        with pytest.raises(InvalidParameterError):
            PDScheduler(m=1, alpha=3.0).finish()

    def test_frozen_assignments_never_move(self):
        """PD never redistributes earlier jobs (the Figure 3 property)."""
        sched = PDScheduler(m=1, alpha=3.0)
        sched.arrive(Job(0.0, 4.0, 2.0, 1e9))
        loads_before = sched.finish().schedule.loads
        grid_before = sched._grid
        sched.arrive(Job(1.0, 2.0, 1.0, 1e9))
        # Re-express the old loads on the new grid: they must be exactly
        # the proportional split, with all new work on the new row.
        ref = _refine(grid_before, [1.0, 2.0])
        expected_row0 = ref.split_row(loads_before[0])
        np.testing.assert_allclose(
            sched.finish().schedule.loads[0], expected_row0, rtol=1e-12
        )

    def test_grid_refinement_transparent(self):
        """Feeding the same jobs with a pre-known grid changes nothing.

        The paper's Section 3: refinement with proportional splitting
        produces the identical schedule.
        """
        jobs = [
            (0.0, 8.0, 2.0, 1e9),
            (1.0, 5.0, 1.0, 1e9),
            (2.0, 3.0, 0.5, 1e9),
            (2.5, 7.0, 1.5, 1e9),
        ]
        inst = Instance.from_tuples(jobs, m=1, alpha=3.0)
        r1 = run_pd(inst)
        # Shuffled input order must not matter (run_pd sorts by release).
        inst2 = Instance.from_tuples([jobs[2], jobs[0], jobs[3], jobs[1]], m=1, alpha=3.0)
        r2 = run_pd(inst2)
        assert r1.cost == pytest.approx(r2.cost, rel=1e-9)

    def test_planned_loads_store_only_rejects(self):
        """Only a rejected job's x̌ is kept beside the live stores; an
        accepted job's planned row is its schedule row, bit for bit."""
        inst = poisson_instance(60, m=2, alpha=3.0, seed=0).sorted_by_release()
        sched = PDScheduler(m=2, alpha=3.0)
        for job in inst.jobs:
            sched.arrive(job)
        result = sched.finish()
        accepted = result.accepted_mask
        assert accepted.any() and not accepted.all()
        kept = {job_id for entries in sched._planned for job_id, _ in entries}
        assert kept and not any(accepted[j] for j in kept)
        assert np.array_equal(
            result.planned_loads[accepted], result.schedule.loads[accepted]
        )
        assert not result.schedule.loads[~accepted].any()


class TestAgainstClassicalAlgorithms:
    def test_matches_oa_on_lower_bound_family(self):
        """High-value single-proc: PD spreads like OA on this family."""
        for n in [3, 7, 12]:
            inst = lower_bound_instance(n, 3.0)
            pd_cost = run_pd(inst).cost
            oa_cost = run_oa(inst).energy
            assert pd_cost == pytest.approx(oa_cost, rel=1e-7)
            assert pd_cost == pytest.approx(pd_cost_closed_form(n, 3.0), rel=1e-7)

    def test_batch_instance_single_proc_matches_optimal(self):
        """With one arrival epoch PD has full information: optimal."""
        inst = Instance.classical(
            [(0.0, 1.0, 1.0), (0.0, 2.0, 1.0), (0.0, 4.0, 2.0)], m=1, alpha=3.0
        )
        assert run_pd(inst).cost == pytest.approx(yds(inst).energy, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0])
    def test_within_competitive_bound_of_optimal(self, alpha):
        inst = poisson_instance(12, m=1, alpha=alpha, seed=42)
        classical = inst.with_values([1e12] * inst.n)
        pd_cost = run_pd(classical).cost
        opt = yds(classical.with_machine(m=1)).energy
        assert pd_cost <= alpha**alpha * opt * (1.0 + 1e-6)
        assert pd_cost >= opt * (1.0 - 1e-9)


class TestMultiprocessor:
    def test_two_identical_jobs_two_processors(self):
        inst = Instance.classical([(0.0, 1.0, 2.0), (0.0, 1.0, 2.0)], m=2, alpha=3.0)
        result = run_pd(inst)
        assert result.cost == pytest.approx(2 * 2.0**3)

    def test_more_processors_never_hurt(self):
        base = poisson_instance(15, m=1, alpha=3.0, seed=5)
        costs = [run_pd(base.with_machine(m=m)).cost for m in [1, 2, 4, 8]]
        for a, b in zip(costs, costs[1:]):
            assert b <= a * (1.0 + 1e-6)

    def test_heavy_job_gets_dedicated_processor(self):
        inst = Instance.classical(
            [(0.0, 1.0, 10.0), (0.0, 1.0, 1.0), (0.0, 1.0, 1.0)], m=2, alpha=3.0
        )
        result = run_pd(inst)
        speeds = result.schedule.processor_speed_matrix()
        assert speeds[0, 0] == pytest.approx(10.0)
        assert speeds[1, 0] == pytest.approx(2.0)

    def test_m_at_least_n_all_independent(self):
        """With a processor per job everyone runs at solo-optimal speed."""
        inst = Instance.classical(
            [(0.0, 2.0, 1.0), (0.0, 2.0, 2.0), (0.0, 2.0, 3.0)], m=3, alpha=3.0
        )
        result = run_pd(inst)
        expected = sum(2.0 * (w / 2.0) ** 3 for w in [1.0, 2.0, 3.0])
        assert result.cost == pytest.approx(expected, rel=1e-9)


class TestDeltaParameter:
    def test_custom_delta_accepted(self):
        inst = Instance.classical([(0.0, 1.0, 1.0)], m=1, alpha=3.0)
        result = run_pd(inst, delta=0.05)
        assert result.delta == 0.05

    def test_invalid_delta(self):
        with pytest.raises(InvalidParameterError):
            PDScheduler(m=1, alpha=3.0, delta=-1.0)

    def test_smaller_delta_rejects_more(self):
        """Delta scales the marginal price: smaller delta makes jobs look
        cheaper, hence *larger* delta rejects more."""
        inst = Instance.from_tuples(
            [(0.0, 1.0, 1.0, 0.5), (0.5, 2.0, 1.0, 0.5)], m=1, alpha=3.0
        )
        acc_small = run_pd(inst, delta=0.01).accepted_mask.sum()
        acc_large = run_pd(inst, delta=5.0).accepted_mask.sum()
        assert acc_small >= acc_large


def _scaled(instance: Instance, c: float) -> Instance:
    """Workloads times ``c``, values times ``c**alpha``: the same instance
    in other units, whose PD run is the original's scaled by ``c``."""
    alpha = instance.alpha
    return Instance.from_tuples(
        [
            (j.release, j.deadline, j.workload * c, j.value * c**alpha)
            for j in instance.jobs
        ],
        m=instance.m,
        alpha=alpha,
    )


def _assert_close(actual, expected):
    expected = np.asarray(expected, dtype=np.float64)
    scale = float(np.abs(expected).max()) if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


class TestScaleInvariance:
    """PD's water-fill has no absolute floor: a change of work units moves
    loads and planned speeds by ``c`` and duals by ``c**alpha``, to float
    rounding. (Cost is not compared: the schedule's energy skips intervals
    whose load is below an absolute emptiness gate.)"""

    @pytest.mark.parametrize("family", ["poisson", "tight", "heavy-tail"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_units_scale_out(self, family, m):
        from repro.workloads import WORKLOADS

        instance = WORKLOADS.build(family, 200, seed=0, m=m, alpha=3.0)
        base = run_pd(instance)
        speeds = np.array([d.planned_speed for d in base.decisions])
        for c in (1e-9, 1e-3, 1e3):
            run = run_pd(_scaled(instance, c))
            assert np.array_equal(run.accepted_mask, base.accepted_mask)
            _assert_close(run.schedule.loads / c, base.schedule.loads)
            _assert_close(
                np.array([d.planned_speed for d in run.decisions]) / c, speeds
            )
            _assert_close(run.lambdas / c**3, base.lambdas)
