"""Randomized differential testing across independent implementations.

Strategy: generate many small random instances and cross-check every pair
of components that compute the same quantity by different algorithms —
the strongest practical defence against "plausible but wrong" scheduling
code. All generators are seeded; failures print the offending seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.certificates import dual_certificate
from repro.classical.oa import run_oa
from repro.classical.yds import yds
from repro.core.cll import run_cll
from repro.core.pd import run_pd
from repro.model.job import Instance, Job
from repro.model.schedule import Schedule
from repro.offline.convex import solve_min_energy
from repro.offline.optimal import solve_exact
from repro.perf.reference import _refine, _remap_rows
from repro.workloads.random_instances import poisson_instance


def tiny_instance(seed: int, n: int = 5, m: int = 1, alpha: float = 2.0) -> Instance:
    """Small random profitable instance with adversarial value spread."""
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0.0
    for _ in range(n):
        t += float(rng.uniform(0.0, 1.5))
        span = float(rng.uniform(0.3, 2.5))
        w = float(rng.uniform(0.1, 2.0))
        solo = (w / span) ** (alpha - 1.0) * w
        value = solo * float(rng.choice([0.05, 0.3, 1.0, 3.0, 30.0]))
        jobs.append(Job(t, t + span, w, value))
    return Instance(tuple(jobs), m=m, alpha=alpha)


class TestPdVsExactOptimum:
    """The theorem chain on many random instances, exactly solved."""

    @pytest.mark.parametrize("seed", range(20))
    def test_single_processor(self, seed):
        inst = tiny_instance(seed, n=5, m=1, alpha=2.0)
        pd = run_pd(inst)
        cert = dual_certificate(pd)
        opt = solve_exact(inst.sorted_by_release()).cost
        assert cert.g <= opt * (1 + 1e-6) + 1e-9, f"seed {seed}: dual above OPT"
        assert opt <= pd.cost * (1 + 1e-6) + 1e-9, f"seed {seed}: OPT above PD"
        assert pd.cost <= 4.0 * opt * (1 + 1e-6) + 1e-9, f"seed {seed}: ratio > 4"

    @pytest.mark.parametrize("seed", range(10))
    def test_two_processors(self, seed):
        inst = tiny_instance(seed, n=5, m=2, alpha=2.0)
        pd = run_pd(inst)
        opt = solve_exact(inst.sorted_by_release()).cost
        assert pd.cost <= 4.0 * opt * (1 + 1e-6) + 1e-9
        assert dual_certificate(pd).g <= opt * (1 + 1e-6) + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_alpha_three(self, seed):
        inst = tiny_instance(seed, n=5, m=1, alpha=3.0)
        pd = run_pd(inst)
        opt = solve_exact(inst.sorted_by_release()).cost
        assert pd.cost <= 27.0 * opt * (1 + 1e-6) + 1e-9


class TestOfflineSolversAgree:
    """Combinatorial YDS vs numeric block-coordinate descent."""

    @pytest.mark.parametrize("seed", range(15))
    def test_yds_vs_bcd(self, seed):
        inst = tiny_instance(seed, n=6, m=1, alpha=3.0)
        classical = inst.with_values([1e12] * inst.n)
        a = yds(classical).energy
        b = solve_min_energy(classical).energy
        assert a == pytest.approx(b, rel=1e-5), f"seed {seed}"

    @pytest.mark.parametrize("seed", range(8))
    def test_bcd_beats_any_feasible_start(self, seed):
        """The solver must not exceed the AVR warm start it begins from."""
        inst = tiny_instance(seed, n=6, m=2, alpha=3.0).with_values([1e12] * 6)
        from repro.classical.avr import run_avr

        assert solve_min_energy(inst).energy <= run_avr(inst).energy * (1 + 1e-9)


class TestOnlineAlgorithmsConsistent:
    @pytest.mark.parametrize("seed", range(10))
    def test_pd_classical_limit_equals_high_value_run(self, seed):
        """PD with huge values == PD where rejection is impossible: both
        accept everything and produce identical schedules."""
        inst = tiny_instance(seed, n=6, m=1, alpha=3.0)
        high = inst.with_values([1e14] * inst.n)
        higher = inst.with_values([1e16] * inst.n)
        r1, r2 = run_pd(high), run_pd(higher)
        assert r1.accepted_mask.all() and r2.accepted_mask.all()
        assert r1.cost == pytest.approx(r2.cost, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_oa_vs_pd_on_batch_arrivals(self, seed):
        """All jobs released together: PD (high values) and OA both solve
        the same static convex problem."""
        rng = np.random.default_rng(seed)
        rows = [
            (0.0, float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.2, 2.0)))
            for _ in range(5)
        ]
        inst = Instance.classical(rows, m=1, alpha=3.0)
        assert run_pd(inst).cost == pytest.approx(run_oa(inst).energy, rel=1e-5)

    @pytest.mark.parametrize("seed", range(10))
    def test_cll_and_pd_reject_same_obviously_bad_jobs(self, seed):
        """Jobs worth < 1% of their solo energy must be rejected by both."""
        inst = tiny_instance(seed, n=6, m=1, alpha=3.0)
        values = []
        for job in inst.jobs:
            solo = (job.workload / job.span) ** 2.0 * job.workload
            values.append(solo * 0.001)
        cheap = inst.with_values(values)
        pd = run_pd(cheap)
        cll = run_cll(cheap.sorted_by_release())
        assert not pd.accepted_mask.any()
        assert not cll.accepted_mask.any()


class TestScheduleEnergyAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_assignment_energy_equals_segment_energy(self, seed):
        """Schedule.energy (via P_k) == sum of P(speed)*duration over the
        realized segments — two independent accounting paths."""
        inst = tiny_instance(seed, n=6, m=2, alpha=3.0)
        sched = run_pd(inst).schedule
        power = sched.instance.power
        seg_energy = sum(
            power(seg.speed) * seg.duration
            for isched in sched.realize()
            for seg in isched.segments
        )
        assert seg_energy == pytest.approx(sched.energy, rel=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_refinement_energy_invariance(self, seed):
        """Section 3: splitting every interval, loads shared by
        sub-length (the reference oracle's refinement), leaves the
        schedule's energy unchanged."""
        inst = tiny_instance(seed, n=5, m=2, alpha=2.5)
        sched = run_pd(inst).schedule
        mids = [
            (a + b) / 2.0
            for a, b in zip(sched.grid.boundaries, sched.grid.boundaries[1:])
        ]
        refinement = _refine(sched.grid, mids)
        finer = Schedule(
            instance=sched.instance,
            grid=refinement.grid,
            loads=_remap_rows(sched.loads, refinement),
            finished=sched.finished,
        )
        assert finer.grid.size == 2 * sched.grid.size
        assert finer.energy == pytest.approx(sched.energy, rel=1e-9)


class TestGeneralizedDegeneracy:
    """The generalized machinery must reproduce the polynomial machinery
    exactly when the power collapses to a single monomial — across
    exponents, machine counts, and workload shapes."""

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("m", [1, 3])
    def test_pd_general_equals_pd(self, alpha, m):
        from repro.general import SumPower, general_dual_bound, run_pd_general
        from repro.analysis.certificates import dual_certificate

        inst = poisson_instance(7, m=m, alpha=alpha, seed=17)
        delta = alpha ** (1.0 - alpha)
        gen = run_pd_general(inst, SumPower([1.0], [alpha]), delta=delta)
        ref = run_pd(inst)
        assert gen.cost == pytest.approx(ref.cost, rel=1e-10)
        assert np.array_equal(gen.accepted_mask, ref.accepted_mask)
        assert general_dual_bound(gen).g == pytest.approx(
            dual_certificate(ref).g, rel=1e-9
        )

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_energy_with_power_equals_schedule_energy(self, alpha):
        from repro.general import SumPower, energy_with_power

        inst = poisson_instance(6, m=2, alpha=alpha, seed=18)
        schedule = run_pd(inst).schedule
        assert energy_with_power(
            schedule, SumPower([1.0], [alpha])
        ) == pytest.approx(schedule.energy, rel=1e-12)

    def test_discretize_with_exact_level_menu_is_identity_energy(self):
        """A menu containing every realized speed reproduces the
        continuous energy exactly (theta = 1 everywhere)."""
        from repro.discrete import SpeedSet, discretize_schedule

        inst = poisson_instance(6, m=2, alpha=3.0, seed=19)
        schedule = run_pd(inst).schedule
        speeds = sorted(
            {
                round(seg.speed, 12)
                for iv in schedule.realize()
                for seg in iv.segments
                if seg.speed > 0
            }
        )
        menu = SpeedSet(speeds)
        disc = discretize_schedule(schedule, menu)
        assert disc.energy == pytest.approx(schedule.energy, rel=1e-6)
        assert disc.overhead == pytest.approx(1.0, rel=1e-6)
