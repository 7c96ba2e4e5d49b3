"""Edge cases and numerical stress across the stack."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.analysis.certificates import dual_certificate
from repro.classical.oa import oa_segments, run_oa, run_oa_multiprocessor
from repro.classical.yds import yds
from repro.core.pd import PDScheduler, run_pd
from repro.engine.registry import REGISTRY
from repro.errors import InvalidParameterError, ReproError
from repro.model.job import Instance, Job
from repro.offline.convex import solve_min_energy
from repro.perf.epochs import arrive_epochs


class TestDegenerateInstances:
    def test_single_job(self):
        inst = Instance.classical([(0.0, 1.0, 1.0)], m=1, alpha=3.0)
        result = run_pd(inst)
        assert result.cost == pytest.approx(1.0)
        dual_certificate(result).require()

    def test_single_job_many_processors(self):
        inst = Instance.classical([(0.0, 1.0, 1.0)], m=64, alpha=3.0)
        result = run_pd(inst)
        assert result.cost == pytest.approx(1.0)  # extra processors idle

    def test_identical_jobs(self):
        inst = Instance.classical([(0.0, 1.0, 1.0)] * 5, m=1, alpha=2.0)
        result = run_pd(inst)
        assert result.accepted_mask.all()
        assert result.cost == pytest.approx(1.0 * 5.0**2)

    def test_simultaneous_arrivals_order_independent_cost(self):
        rows = [
            (0.0, 2.0, 1.0, 1e9),
            (0.0, 1.0, 0.5, 1e9),
            (0.0, 3.0, 2.0, 1e9),
        ]
        costs = set()
        for perm in [(0, 1, 2), (2, 1, 0), (1, 2, 0)]:
            inst = Instance.from_tuples([rows[i] for i in perm], m=1, alpha=3.0)
            costs.add(round(run_pd(inst).cost, 9))
        # run_pd sorts ties by deadline, so all permutations coincide.
        assert len(costs) == 1

    def test_non_overlapping_jobs_are_independent(self):
        inst = Instance.classical(
            [(0.0, 1.0, 1.0), (5.0, 6.0, 2.0), (10.0, 11.0, 0.5)], m=1, alpha=3.0
        )
        result = run_pd(inst)
        expected = 1.0 + 8.0 + 0.125
        assert result.cost == pytest.approx(expected)

    def test_zero_value_job_among_valuable_ones(self):
        inst = Instance.from_tuples(
            [(0.0, 1.0, 1.0, 0.0), (0.0, 2.0, 1.0, 1e9)], m=1, alpha=3.0
        )
        result = run_pd(inst)
        # Arrival order: deadline 1 first -> job with value 0 rejected.
        assert result.accepted_mask.sum() == 1
        assert result.cost < 1e9

    def test_gap_between_jobs_keeps_processor_idle(self):
        inst = Instance.classical([(0.0, 1.0, 1.0), (3.0, 4.0, 1.0)], m=1, alpha=3.0)
        sched = run_pd(inst).schedule
        k_gap = sched.grid.locate(2.0)
        assert sched.processor_speed_matrix()[0, k_gap] == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "name", [info.name for info in REGISTRY.select(multiprocessor=False)]
    )
    def test_empty_instance_single_processor(self, name):
        with pytest.raises(InvalidParameterError):
            REGISTRY.run(name, Instance((), m=1))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize(
        "entry",
        [
            run_oa,
            oa_segments,
            run_oa_multiprocessor,
            lambda instance: REGISTRY.run("oa", instance),
        ],
        ids=["run_oa", "oa_segments", "run_oa_multiprocessor", "registry"],
    )
    def test_oa_empty_instance_raises_canonical_error(self, entry, m):
        with pytest.raises(InvalidParameterError):
            entry(Instance((), m=m))


class TestExtremeParameters:
    @pytest.mark.parametrize("alpha", [1.05, 1.1, 5.0, 8.0])
    def test_alpha_extremes(self, alpha):
        inst = Instance.classical(
            [(0.0, 2.0, 1.0), (1.0, 3.0, 1.0)], m=1, alpha=alpha
        )
        result = run_pd(inst)
        dual_certificate(result).require()
        assert result.cost >= yds(inst).energy * (1.0 - 1e-7)

    def test_tiny_workloads(self):
        inst = Instance.classical([(0.0, 1.0, 1e-9), (0.0, 1.0, 1e-9)], m=1, alpha=3.0)
        result = run_pd(inst)
        assert result.accepted_mask.all()
        assert result.cost == pytest.approx((2e-9) ** 3, rel=1e-6)

    def test_huge_workloads(self):
        inst = Instance.classical([(0.0, 1.0, 1e6)], m=1, alpha=2.0)
        result = run_pd(inst)
        assert result.cost == pytest.approx(1e12)

    def test_long_horizon_short_jobs(self):
        inst = Instance.classical(
            [(0.0, 1e6, 1.0), (5e5, 5e5 + 1.0, 1.0)], m=1, alpha=3.0
        )
        result = run_pd(inst)
        result.schedule.validate()
        dual_certificate(result).require()

    def test_very_tight_windows(self):
        inst = Instance.classical(
            [(0.0, 1e-6, 1.0), (0.0, 2e-6, 1.0)], m=2, alpha=2.0
        )
        result = run_pd(inst)
        result.schedule.validate()
        assert np.isfinite(result.cost)

    @pytest.mark.parametrize("m", [1, 7, 32])
    def test_many_processors_batch(self, m):
        inst = Instance.classical([(0.0, 1.0, 1.0)] * 10, m=m, alpha=3.0)
        result = run_pd(inst)
        # With m >= 10 every job runs alone at speed 1.
        if m >= 10:
            assert result.cost == pytest.approx(10.0)
        dual_certificate(result).require()


def large_magnitude_twins() -> dict[str, Instance]:
    """Nine jobs near 2**60, with int fields and as their float twin.

    At this magnitude one float ulp is 256, so every absolute time
    tolerance rounds away, and an int field compares exactly with the
    floats its arithmetic rounds to.
    """
    rng = random.Random(0)
    rows = []
    for _ in range(9):
        release = 2**60 + rng.randint(0, 2_000_000)
        deadline = release + rng.randint(1, 2_000_000)
        workload = rng.randint(1, 9)
        value = 2**60 + rng.randint(0, 999)
        rows.append((release, deadline, workload, value))
    return {
        "int": Instance(tuple(Job(*row) for row in rows), m=1, alpha=3),
        "float": Instance(
            tuple(Job(*map(float, row)) for row in rows), m=1, alpha=3.0
        ),
    }


class TestLargeMagnitudes:
    @pytest.mark.parametrize("twin", ["float", "int"])
    def test_every_algorithm_runs_or_raises_canonical_error(self, twin):
        """Each registered algorithm either runs to a finite cost or
        fails with a ``ReproError``: no raw ``IndexError`` or
        ``ZeroDivisionError`` from its time arithmetic."""
        instance = large_magnitude_twins()[twin]
        ran = 0
        for name in REGISTRY.names():
            try:
                outcome = REGISTRY.run(name, instance)
            except ReproError:
                continue
            assert math.isfinite(outcome.cost) and outcome.cost >= 0.0, name
            ran += 1
        assert ran > 0


class TestSchedulerStateMachine:
    def test_interleaved_queries_do_not_corrupt_state(self):
        sched = PDScheduler(m=2, alpha=3.0)
        d1 = sched.arrive(Job(0.0, 2.0, 1.0, 1e9))
        d2 = sched.arrive(Job(0.5, 1.5, 0.5, 1e9))
        d3 = sched.arrive(Job(1.0, 3.0, 2.0, 1e9))
        assert d1.accepted and d2.accepted and d3.accepted
        result = sched.finish()
        result.schedule.validate()
        # finish() is idempotent enough to call twice.
        again = sched.finish()
        assert again.cost == pytest.approx(result.cost)

    def test_equal_release_and_degenerate_refinements(self):
        sched = PDScheduler(m=1, alpha=2.0)
        sched.arrive(Job(0.0, 1.0, 1.0, 1e9))
        sched.arrive(Job(0.0, 1.0, 1.0, 1e9))  # identical window: no refine
        sched.arrive(Job(0.0, 1.0 + 1e-13, 1.0, 1e9))  # near-duplicate point
        result = sched.finish()
        result.schedule.validate()
        assert result.cost == pytest.approx(9.0, rel=1e-6)

    def test_deadline_beyond_known_horizon_extends_grid(self):
        sched = PDScheduler(m=1, alpha=3.0)
        sched.arrive(Job(0.0, 1.0, 1.0, 1e9))
        sched.arrive(Job(0.5, 10.0, 1.0, 1e9))  # extends horizon
        result = sched.finish()
        assert result.schedule.grid.span == (0.0, 10.0)
        result.schedule.validate()


class TestOfflineEdgeCases:
    def test_empty_acceptance_set(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0)], m=1, alpha=2.0)
        sol = solve_min_energy(inst, accepted=[])
        assert sol.energy == 0.0
        assert sol.schedule.cost == pytest.approx(1.0)  # pays the value

    def test_one_interval_instance(self):
        inst = Instance.classical([(0.0, 1.0, 1.0), (0.0, 1.0, 2.0)], m=1, alpha=3.0)
        sol = solve_min_energy(inst)
        assert sol.energy == pytest.approx(27.0)  # (1+2)^3 over unit time

    def test_disjoint_windows_decompose(self):
        inst = Instance.classical(
            [(0.0, 1.0, 1.0), (2.0, 3.0, 1.0)], m=1, alpha=3.0
        )
        assert solve_min_energy(inst).energy == pytest.approx(2.0)


class TestExtensionEdgeCases:
    """Degenerate and boundary inputs for the extension layer."""

    def test_discrete_single_job_at_exact_level(self):
        from repro.discrete import SpeedSet, run_pd_discrete

        inst = Instance.from_tuples([(0.0, 2.0, 1.0, 100.0)], m=1, alpha=3.0)
        # PD runs the job at speed 0.5; the menu contains exactly that.
        res = run_pd_discrete(inst, SpeedSet([0.5]))
        assert res.overhead == pytest.approx(1.0, rel=1e-9)
        assert res.screened_ids == ()

    def test_discrete_alpha_close_to_one(self):
        from repro.discrete import SpeedSet, worst_overhead_factor

        # Near-linear power: interpolation gap collapses (P nearly linear
        # means the envelope nearly coincides with P between levels).
        menu = SpeedSet.geometric(0.5, 4.0, 4)
        assert worst_overhead_factor(menu, 1.01) < 1.01

    def test_profit_of_all_rejected_equals_zero(self):
        from repro.profit import profit_of_result

        inst = Instance.from_tuples(
            [(0.0, 0.5, 5.0, 1e-6), (1.0, 1.2, 3.0, 1e-6)], m=1, alpha=3.0
        )
        result = run_pd(inst)
        assert not result.accepted_mask.any()
        p = profit_of_result(result)
        assert p.profit == pytest.approx(0.0, abs=1e-12)
        assert p.loss == pytest.approx(inst.total_value)

    def test_augmentation_huge_epsilon_accepts_everything(self):
        from repro.profit import run_pd_augmented

        inst = Instance.from_tuples(
            [(0.0, 1.0, 2.0, 0.5), (0.0, 1.0, 1.0, 0.2)], m=1, alpha=3.0
        )
        aug = run_pd_augmented(inst, 1e3)
        assert aug.inner.accepted_mask.all()
        assert aug.energy < 1e-3  # nearly free at that speed advantage

    def test_flow_oracle_more_processors_than_jobs(self):
        from repro.offline.flow import minimal_uniform_speed

        inst = Instance.classical([(0.0, 2.0, 1.0)], m=8, alpha=3.0)
        # Extra processors cannot help a single nonparallel job.
        assert minimal_uniform_speed(inst) == pytest.approx(0.5)

    def test_flow_oracle_zero_length_window_between_jobs(self):
        from repro.offline.flow import check_feasible_at_speed

        # Jobs meeting exactly at t=1: no shared interval.
        inst = Instance.classical(
            [(0.0, 1.0, 1.0), (1.0, 2.0, 1.0)], m=1, alpha=3.0
        )
        assert check_feasible_at_speed(inst, 1.0).feasible
        assert not check_feasible_at_speed(inst, 0.99).feasible

    def test_sumpower_extreme_exponent_mix(self):
        from repro.general import SumPower

        p = SumPower([1e-6, 1e6], [8.0, 1.0])
        for marginal in (1e6 + 1e-3, 2e6, 1e9):
            s = p.derivative_inverse(marginal)
            assert p.derivative(s) == pytest.approx(marginal, rel=1e-6)

    def test_policy_on_single_job(self):
        from repro.core.policies import run_oracle_admission

        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 10.0)], m=1, alpha=3.0)
        r = run_oracle_admission(inst)
        assert r.admitted_ids == (0,)
        assert r.cost == pytest.approx(1.0)  # speed 1 for 1 time unit

    def test_adversary_search_zero_rounds_returns_seed(self):
        from repro.analysis.adversary import search_adversarial

        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 10.0)], m=1, alpha=3.0)
        out = search_adversarial([inst], rounds=0, rng=0)
        assert out.instance.jobs == inst.jobs
        assert out.evaluations == 1


class TestHostileParameters:
    """Parameters a caller can pass by mistake fail at construction with
    the canonical error, not later with a raw one (or not at all)."""

    @pytest.mark.parametrize("m", [True, False, 2.5, float("nan"), "2", 0])
    def test_instance_rejects_non_int_m(self, m):
        with pytest.raises(InvalidParameterError, match="processor count"):
            Instance((Job(0.0, 1.0, 1.0, 1.0),), m=m)

    def test_columnar_instance_rejects_bool_m(self):
        arrays = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0)]).arrays
        with pytest.raises(InvalidParameterError, match="processor count"):
            Instance.from_arrays(arrays, m=True)

    @pytest.mark.parametrize("m", [True, 2.5, float("nan"), 0])
    def test_scheduler_rejects_non_int_m(self, m):
        with pytest.raises(InvalidParameterError, match="processor count"):
            PDScheduler(m=m, alpha=3.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1.0])
    def test_scheduler_rejects_bad_delta(self, delta):
        with pytest.raises(InvalidParameterError, match="delta"):
            PDScheduler(m=1, alpha=3.0, delta=delta)

    def test_scheduler_rejects_nan_delta_with_custom_power(self):
        from repro.model.power import PolynomialPower

        with pytest.raises(InvalidParameterError, match="delta"):
            PDScheduler(
                m=1, alpha=3.0, delta=float("nan"), power=PolynomialPower(2.5)
            )

    @pytest.mark.parametrize("epoch_size", [2.5, True, 0, "8"])
    def test_epochs_reject_non_int_epoch_size(self, epoch_size):
        arrays = Instance.from_tuples(
            [(0.0, 1.0, 1.0, 1.0), (0.5, 2.0, 1.0, 1.0)]
        ).arrays
        sched = PDScheduler(m=1, alpha=3.0)
        with pytest.raises(InvalidParameterError, match="epoch_size"):
            arrive_epochs(sched, arrays, epoch_size=epoch_size)
        assert sched._count == 0
