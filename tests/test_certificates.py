"""Tests for the dual certificate — the executable form of Theorem 3."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.certificates import (
    certificate_from_duals,
    contributing_jobs,
    dual_certificate,
)
from repro.core.pd import PDScheduler, run_pd
from repro.errors import CertificateError, InvalidParameterError
from repro.offline import solve_exact
from repro.workloads import (
    WORKLOADS,
    batch_instance,
    heavy_tail_instance,
    lower_bound_instance,
    poisson_instance,
    tight_instance,
)


def _windows(first, stop):
    return np.array(first, dtype=np.int64), np.array(stop, dtype=np.int64)


class TestContributingJobs:
    def test_top_m_by_s_hat(self):
        windows = _windows([0, 0, 0], [2, 1, 2])
        s_hat = np.array([1.0, 3.0, 2.0])
        phi = contributing_jobs(windows, 2, s_hat, m=2)
        assert phi[0] == (1, 2)  # two largest available
        assert phi[1] == (2, 0)  # job 1 unavailable in interval 1

    def test_zero_s_hat_excluded(self):
        phi = contributing_jobs(_windows([0, 0], [1, 1]), 1, np.array([0.0, 1.0]), m=2)
        assert phi[0] == (1,)

    def test_fewer_jobs_than_m(self):
        phi = contributing_jobs(_windows([0], [1]), 1, np.array([2.0]), m=4)
        assert phi[0] == (0,)


class TestNoAvailabilityMatrix:
    def test_certificates_read_windows_only(self, monkeypatch):
        """No certificate path builds the ``(n, N)`` availability
        matrix: PD's certificate, CLL's hook and the general-power
        bound all run with it disabled."""
        from repro.core.cll import _cll_certificate, run_cll
        from repro.general import SumPower, general_dual_bound, run_pd_general
        from repro.model.intervals import Grid

        pd_inst = poisson_instance(30, m=2, alpha=3.0, seed=5)
        cll_inst = poisson_instance(30, m=1, alpha=3.0, seed=5)
        pd_result = run_pd(pd_inst)
        cll_result = run_cll(cll_inst)
        general = run_pd_general(pd_inst, SumPower([1.0, 0.5], [3.0, 1.0]), delta=0.1)

        def refuse(self, instance):
            raise AssertionError("a certificate built the availability matrix")

        monkeypatch.setattr(Grid, "availability_matrix", refuse)
        assert dual_certificate(pd_result).holds
        assert np.isfinite(_cll_certificate(cll_result).g)
        assert general_dual_bound(general).holds


class TestDualCertificate:
    @pytest.mark.parametrize(
        "maker,kwargs",
        [
            (poisson_instance, dict(n=20, m=1, alpha=3.0)),
            (poisson_instance, dict(n=20, m=4, alpha=3.0)),
            (poisson_instance, dict(n=20, m=2, alpha=1.5)),
            (heavy_tail_instance, dict(n=15, m=2, alpha=2.5)),
            (tight_instance, dict(n=15, m=1, alpha=2.0)),
            (batch_instance, dict(n=12, m=4, alpha=3.0)),
        ],
    )
    def test_theorem3_certificate_holds(self, maker, kwargs):
        for seed in range(3):
            inst = maker(seed=seed, **kwargs)
            result = run_pd(inst)
            cert = dual_certificate(result)
            assert cert.holds, (
                f"{maker.__name__} seed={seed}: ratio {cert.ratio} > {cert.bound}"
            )
            cert.require()  # must not raise

    def test_certificate_on_lower_bound_family(self):
        inst = lower_bound_instance(15, 3.0)
        cert = dual_certificate(run_pd(inst))
        assert cert.holds
        # On the adversarial family the ratio should be substantial —
        # this family drives it toward alpha^alpha.
        assert cert.ratio > 2.0

    def test_g_is_lower_bound_on_opt(self):
        """Weak duality: g(lambda~) <= cost(OPT), via exact enumeration."""
        for seed in range(4):
            inst = poisson_instance(7, m=1, alpha=2.0, seed=seed)
            result = run_pd(inst)
            cert = dual_certificate(result)
            opt = solve_exact(inst.sorted_by_release()).cost
            assert cert.g <= opt * (1.0 + 1e-6) + 1e-9

    def test_g_lower_bound_multiprocessor(self):
        for seed in range(3):
            inst = poisson_instance(6, m=2, alpha=2.0, seed=seed)
            result = run_pd(inst)
            cert = dual_certificate(result)
            opt = solve_exact(inst.sorted_by_release()).cost
            assert cert.g <= opt * (1.0 + 1e-6) + 1e-9

    def test_require_raises_on_fabricated_violation(self):
        inst = poisson_instance(5, m=1, alpha=2.0, seed=0)
        cert = dual_certificate(run_pd(inst))
        from dataclasses import replace

        broken = replace(cert, g=cert.cost / (cert.bound * 10.0))
        with pytest.raises(CertificateError):
            broken.require()

    def test_e_lambda_consistency(self):
        """E_lambda(j) = l(j) * s_hat^alpha and x_hat = l(j) s_hat / w."""
        inst = poisson_instance(10, m=2, alpha=3.0, seed=1)
        result = run_pd(inst)
        cert = dual_certificate(result)
        w = result.schedule.instance.workloads
        # Where s_hat > 0, E_lambda / x_hat = w * s_hat^(alpha) / s_hat...
        # verify through the defining identity E = lambda * x_hat / alpha
        # (Proposition 8a).
        mask = cert.x_hat > 1e-12
        np.testing.assert_allclose(
            cert.e_lambda[mask],
            result.lambdas[mask] * cert.x_hat[mask] / 3.0,
            rtol=1e-8,
        )

    def test_accepted_jobs_have_s_hat_from_lambda(self):
        inst = poisson_instance(10, m=1, alpha=3.0, seed=2)
        result = run_pd(inst)
        cert = dual_certificate(result)
        w = result.schedule.instance.workloads
        expected = (result.lambdas / (3.0 * w)) ** 0.5
        np.testing.assert_allclose(cert.s_hat, expected, rtol=1e-10)

    def test_classical_limit_matches_oa_analysis(self):
        """With huge values, g > 0 and ratio <= alpha^alpha still."""
        inst = poisson_instance(12, m=1, alpha=3.0, seed=3)
        classical = inst.with_values([1e15] * inst.n)
        cert = dual_certificate(run_pd(classical))
        assert cert.g > 0
        assert cert.holds


def assert_same_certificate(a, b) -> None:
    """Two certificates equal bit for bit."""
    assert (a.g, a.cost, a.bound) == (b.g, b.cost, b.bound)
    for name in ("s_hat", "e_lambda", "x_hat"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.contributors == b.contributors


def _cll_candidates(result):
    """The dual vectors CLL's hook certifies: lambda, lambda/2, lambda/4."""
    inst = result.schedule.instance
    alpha = inst.alpha
    prices = alpha * inst.workloads * result.planned_speeds ** (alpha - 1.0)
    lam = np.where(result.accepted_mask, np.minimum(prices, inst.values), inst.values)
    return lam, 0.5 * lam, 0.25 * lam


def _priority_orders(result) -> set[bytes]:
    """The distinct ``(-s_hat, id)`` orders of the positive ``s_hat`` of
    CLL's candidates."""
    inst = result.schedule.instance
    alpha = inst.alpha
    orders = set()
    for lam in _cll_candidates(result):
        s_hat = (np.maximum(lam, 0.0) / (alpha * inst.workloads)) ** (
            1.0 / (alpha - 1.0)
        )
        order = np.lexsort((np.arange(inst.n), -s_hat))
        orders.add(order[s_hat[order] > 0.0].tobytes())
    return orders


class TestSharedCllCertificate:
    """CLL's hook runs one contributor pass per distinct priority order
    of its three candidates and returns what the best of three
    independent ``certificate_from_duals`` calls returns."""

    @staticmethod
    def check(result, monkeypatch) -> int:
        from repro.analysis import certificates
        from repro.core.cll import _cll_certificate

        independent = [
            certificate_from_duals(result.schedule, lam)
            for lam in _cll_candidates(result)
        ]
        expected = max(independent, key=lambda cert: cert.g)
        calls = []
        passes = certificates._contributions

        def counting(*args):
            calls.append(1)
            return passes(*args)

        with monkeypatch.context() as patch:
            patch.setattr(certificates, "_contributions", counting)
            shared = _cll_certificate(result)
        assert_same_certificate(shared, expected)
        return len(calls)

    @given(
        family=st.sampled_from(["poisson", "heavy-tail", "tight", "uniform"]),
        n=st.integers(1, 40),
        seed=st.integers(0, 10**6),
        alpha=st.sampled_from([1.5, 2.0, 3.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_runs(self, family, n, seed, alpha):
        from repro.core.cll import run_cll

        result = run_cll(WORKLOADS.build(family, n, seed=seed, m=1, alpha=alpha))
        with pytest.MonkeyPatch.context() as monkeypatch:
            passes = self.check(result, monkeypatch)
        assert passes == len(_priority_orders(result))

    def test_reordering_cell(self, monkeypatch):
        """``tight`` at alpha=3, seed 7001, n=200 (a sweep-cold cell):
        a damped candidate reorders ``s_hat``, so two passes run."""
        from repro.core.cll import run_cll

        result = run_cll(WORKLOADS.build("tight", 200, seed=7001, m=1, alpha=3.0))
        assert len(_priority_orders(result)) == 2
        assert self.check(result, monkeypatch) == 2


class TestStreamingCertificate:
    """``PDScheduler.streaming_certificate`` off the live state equals
    the dense ``dual_certificate(finish())`` bit for bit."""

    @pytest.mark.parametrize("family", ["poisson", "heavy-tail", "tight", "slotted"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_equals_dense_certificate(self, family, m):
        instance = WORKLOADS.build(family, 120, seed=3, m=m, alpha=3.0)
        arrays = instance.sorted_by_release().arrays
        sched = PDScheduler(m=m, alpha=3.0)
        sched.arrive_many(arrays)
        streamed = sched.streaming_certificate()
        assert streamed.cost == sched.streaming_cost()
        assert_same_certificate(streamed, dual_certificate(sched.finish()))

    def test_rows_and_blocks_mixed(self):
        from repro.model.job_arrays import JobArrays

        instance = WORKLOADS.build("poisson", 60, seed=8, m=2, alpha=2.5)
        ordered = instance.sorted_by_release()
        sched = PDScheduler(m=2, alpha=2.5)
        for job in ordered.jobs[:20]:
            sched.arrive(job)
        rest = ordered.arrays
        sched.arrive_many(
            JobArrays(
                rest.releases[20:],
                rest.deadlines[20:],
                rest.workloads[20:],
                rest.values[20:],
            )
        )
        assert_same_certificate(
            sched.streaming_certificate(), dual_certificate(sched.finish())
        )

    def test_needs_a_job(self):
        with pytest.raises(InvalidParameterError, match="no jobs"):
            PDScheduler(m=1, alpha=3.0).streaming_certificate()
