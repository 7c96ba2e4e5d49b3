"""Unit tests for the power-function layer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidParameterError
from repro.model.power import (
    PolynomialPower,
    energy_at_constant_speed,
    optimal_constant_speed_energy,
)

ALPHAS = [1.2, 2.0, 2.5, 3.0, 4.0]


class TestPolynomialPower:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_zero_speed_zero_power(self, alpha):
        assert PolynomialPower(alpha)(0.0) == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_power_value(self, alpha):
        p = PolynomialPower(alpha)
        assert p(2.0) == pytest.approx(2.0**alpha)

    def test_negative_speed_clamps(self):
        assert PolynomialPower(3.0)(-1.0) == 0.0
        assert PolynomialPower(3.0).derivative(-1.0) == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0, -2.0, math.nan, math.inf])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(InvalidParameterError):
            PolynomialPower(alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_derivative_matches_finite_difference(self, alpha):
        p = PolynomialPower(alpha)
        s, h = 1.7, 1e-7
        fd = (p(s + h) - p(s - h)) / (2 * h)
        assert p.derivative(s) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_derivative_inverse_roundtrip(self, alpha):
        p = PolynomialPower(alpha)
        for s in [0.1, 1.0, 3.7, 50.0]:
            assert p.derivative_inverse(p.derivative(s)) == pytest.approx(s)

    def test_derivative_inverse_of_nonpositive_is_zero(self):
        p = PolynomialPower(2.5)
        assert p.derivative_inverse(0.0) == 0.0
        assert p.derivative_inverse(-3.0) == 0.0

    def test_job_energy_formula(self):
        # workload w at speed s: duration w/s, energy (w/s) * s^alpha.
        p = PolynomialPower(3.0)
        w, s = 2.0, 1.5
        assert p.job_energy(w, s) == pytest.approx((w / s) * s**3)

    def test_energy_negative_duration_rejected(self):
        with pytest.raises(InvalidParameterError):
            PolynomialPower(2.0).energy(1.0, -1.0)

    def test_array_operations_match_scalar(self):
        p = PolynomialPower(2.7)
        speeds = np.array([0.0, 0.5, 1.0, 2.0, 10.0])
        np.testing.assert_allclose(
            p.power_array(speeds), [p(float(s)) for s in speeds]
        )
        np.testing.assert_allclose(
            p.derivative_array(speeds), [p.derivative(float(s)) for s in speeds]
        )

    def test_paper_constants(self):
        p = PolynomialPower(3.0)
        assert p.competitive_ratio_pd == pytest.approx(27.0)
        assert p.competitive_ratio_cll == pytest.approx(27.0 + 6 * math.e)
        assert p.optimal_delta == pytest.approx(3.0**-2)
        assert p.rejection_energy_factor == pytest.approx(3.0)

    @given(
        alpha=st.floats(min_value=1.05, max_value=5.0),
        s=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_convexity_of_derivative(self, alpha, s):
        """P' is increasing: the water-filling inverse is well-defined."""
        p = PolynomialPower(alpha)
        assert p.derivative(s * 1.01) >= p.derivative(s)


class TestConstantSpeedEnergy:
    def test_constant_speed_is_optimal(self):
        # Splitting the work across two speeds can only cost more.
        p = PolynomialPower(3.0)
        w, t = 2.0, 1.0
        base = energy_at_constant_speed(p, w, t)
        for frac in [0.1, 0.3, 0.5, 0.9]:
            split = p(w * frac / (t / 2)) * (t / 2) + p(
                w * (1 - frac) / (t / 2)
            ) * (t / 2)
            assert split >= base - 1e-12

    def test_zero_workload_zero_energy(self):
        assert energy_at_constant_speed(PolynomialPower(2.0), 0.0, 0.0) == 0.0

    def test_positive_work_zero_time_raises(self):
        with pytest.raises(InvalidParameterError):
            energy_at_constant_speed(PolynomialPower(2.0), 1.0, 0.0)

    def test_closed_form_wrapper(self):
        assert optimal_constant_speed_energy(3.0, 2.0, 4.0) == pytest.approx(
            4.0 * (0.5**3)
        )

    @given(
        w=st.floats(min_value=0.01, max_value=100.0),
        t=st.floats(min_value=0.01, max_value=100.0),
        alpha=st.floats(min_value=1.1, max_value=4.0),
    )
    def test_scaling_law(self, w, t, alpha):
        """Energy scales as work^alpha * time^(1-alpha)."""
        e1 = optimal_constant_speed_energy(alpha, w, t)
        e2 = optimal_constant_speed_energy(alpha, 2 * w, t)
        assert e2 == pytest.approx(2**alpha * e1, rel=1e-9)
        e3 = optimal_constant_speed_energy(alpha, w, 2 * t)
        assert e3 == pytest.approx(2 ** (1 - alpha) * e1, rel=1e-9)
