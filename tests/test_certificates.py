"""Tests for the dual certificate — the executable form of Theorem 3."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.certificates import contributing_jobs, dual_certificate
from repro.core.pd import run_pd
from repro.errors import CertificateError
from repro.offline import solve_exact
from repro.workloads import (
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
