"""Cross-cutting property-based tests over randomly generated instances.

Hypothesis drives whole random instances through the full PD pipeline and
asserts model-level invariants that must hold regardless of the input:
the Theorem 3 certificate, cost monotonicities, and the algebraic
invariances (time shift, time/work scaling) the energy model implies.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.certificates import dual_certificate
from repro.core.pd import run_pd
from repro.model.job import Instance, Job
from repro.workloads.perturb import (
    add_job,
    shift_time,
    tighten_deadlines,
)

# derandomize: whole-pipeline properties must stay reproducible run-to-run
# (the per-module property tests keep hypothesis's random exploration).
SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, max_jobs: int = 7, max_m: int = 3):
    """Random profitable instances with value spreads around solo energy."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    m = draw(st.integers(min_value=1, max_value=max_m))
    alpha = draw(st.sampled_from([1.5, 2.0, 3.0]))
    jobs = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=2.0))
        span = draw(st.floats(min_value=0.1, max_value=3.0))
        w = draw(st.floats(min_value=0.05, max_value=2.0))
        solo = (w / span) ** (alpha - 1.0) * w
        ratio = draw(st.sampled_from([0.05, 0.5, 1.0, 2.0, 20.0]))
        jobs.append(Job(t, t + span, w, solo * ratio))
    return Instance(tuple(jobs), m=m, alpha=alpha)


class TestCertificateUniversality:
    @given(inst=instances())
    @SETTINGS
    def test_certificate_always_holds(self, inst):
        result = run_pd(inst)
        cert = dual_certificate(result)
        assert cert.holds, f"ratio {cert.ratio} > {cert.bound} on {inst.jobs}"

    @given(inst=instances())
    @SETTINGS
    def test_schedule_always_validates(self, inst):
        run_pd(inst).schedule.validate()

    @given(inst=instances())
    @SETTINGS
    def test_cost_bounded_by_total_value_plus_finish_all(self, inst):
        """PD never costs more than rejecting everything costs... is not
        true in general (it commits online); but it never exceeds
        alpha^alpha times that trivial upper bound, by Theorem 3."""
        result = run_pd(inst)
        trivial_opt_bound = inst.total_value  # OPT <= reject everything
        alpha = inst.alpha
        assert result.cost <= alpha**alpha * trivial_opt_bound * (1 + 1e-6) + 1e-9


class TestMonotonicities:
    @given(inst=instances(max_m=2))
    @SETTINGS
    def test_extra_processor_never_hurts(self, inst):
        c1 = run_pd(inst).cost
        c2 = run_pd(inst.with_machine(m=inst.m + 1)).cost
        assert c2 <= c1 * (1.0 + 1e-6) + 1e-9

    @given(inst=instances(max_jobs=5), w=st.floats(min_value=0.1, max_value=1.0))
    @SETTINGS
    def test_adding_a_job_never_lowers_cost(self, inst, w):
        """More demand cannot reduce energy+loss: the added job either
        costs energy or forfeits value."""
        lo, hi = inst.horizon
        extra = Job(hi, hi + 1.0, w, w)  # disjoint: affects nothing else
        c1 = run_pd(inst).cost
        c2 = run_pd(add_job(inst, extra)).cost
        assert c2 >= c1 - 1e-9


class TestInvariances:
    @given(inst=instances(), offset=st.floats(min_value=0.0, max_value=50.0))
    @SETTINGS
    def test_time_shift_invariance(self, inst, offset):
        c1 = run_pd(inst).cost
        c2 = run_pd(shift_time(inst, offset)).cost
        assert c2 == pytest.approx(c1, rel=1e-7)

    @given(inst=instances(max_jobs=5), scale=st.sampled_from([0.5, 2.0, 4.0]))
    @SETTINGS
    def test_classical_time_scaling_law(self, inst, scale):
        """For must-finish jobs, stretching time by c scales energy by
        c^(1-alpha) — and PD's schedule follows the model exactly."""
        classical = inst.with_values([1e13] * inst.n)
        c1 = run_pd(classical).cost
        c2 = run_pd(classical.scaled(time=scale)).cost
        assert c2 == pytest.approx(scale ** (1 - inst.alpha) * c1, rel=1e-5)

    @given(inst=instances(max_jobs=5), scale=st.sampled_from([0.5, 2.0]))
    @SETTINGS
    def test_classical_work_scaling_law(self, inst, scale):
        """Scaling workloads by c scales energy by c^alpha."""
        classical = inst.with_values([1e18] * inst.n)
        c1 = run_pd(classical).cost
        c2 = run_pd(classical.scaled(work=scale)).cost
        assert c2 == pytest.approx(scale**inst.alpha * c1, rel=1e-5)


class TestPerturbations:
    @given(inst=instances(max_jobs=5))
    @SETTINGS
    def test_tightening_deadlines_never_helps_classical(self, inst):
        """Shrinking windows (must-finish) can only increase energy."""
        classical = inst.with_values([1e13] * inst.n)
        c_loose = run_pd(classical).cost
        c_tight = run_pd(tighten_deadlines(classical, 0.5)).cost
        assert c_tight >= c_loose * (1.0 - 1e-7)

    @given(inst=instances(max_jobs=5), factor=st.sampled_from([2.0, 10.0]))
    @SETTINGS
    def test_raising_all_values_never_lowers_acceptance(self, inst, factor):
        base = run_pd(inst)
        raised = run_pd(inst.with_values([j.value * factor for j in inst.jobs]))
        assert raised.accepted_mask.sum() >= base.accepted_mask.sum()
