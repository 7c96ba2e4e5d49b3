"""Convex power functions beyond the paper's ``s**alpha``.

The paper's conclusion, following Gupta, Krishnaswamy, and Pruhs,
conjectures that the primal-dual machinery extends to "more complex
variations" of the model. The most natural variation is the power
function itself: real processors are better described by a *sum* of
monomials — e.g. the cube-root-rule dynamic term plus a near-linear
short-circuit/leakage term ``P(s) = s**3 + c * s`` — than by a single
power law.

:class:`SumPower` implements any ``P(s) = sum_i c_i * s**a_i`` with
``c_i > 0`` and ``a_i >= 1`` (convex, ``P(0) = 0``, strictly increasing
derivative wherever some ``a_i > 1``), satisfying the
:class:`~repro.model.power.PowerFunction` protocol the water-filling
engine needs. The derivative inverse has no closed form in general; a
guarded Newton iteration with a bisection fallback delivers it to
machine precision (the derivative is smooth, increasing, and convex for
``a_i >= 2``-free mixes too, so Newton from a log-space initial guess
converges fast).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConvergenceError, InvalidParameterError
from ..types import FloatArray, left_sum

__all__ = ["SumPower"]

_NEWTON_STEPS = 60
_BISECT_STEPS = 200


@dataclass(frozen=True)
class SumPower:
    """``P(s) = sum_i coefficients[i] * s**exponents[i]``.

    Parameters
    ----------
    coefficients:
        Positive weights ``c_i``.
    exponents:
        Exponents ``a_i >= 1``; at least one must exceed 1 so the
        derivative is strictly increasing on ``s > 0`` (required by the
        marginal-price inversion).

    Examples
    --------
    >>> p = SumPower([1.0, 0.5], [3.0, 1.0])   # cube rule + leakage
    >>> p(2.0)
    9.0
    >>> p.derivative(2.0)
    12.5
    >>> round(p.derivative_inverse(12.5), 10)
    2.0
    """

    coefficients: tuple[float, ...]
    exponents: tuple[float, ...]

    def __init__(
        self, coefficients: Sequence[float], exponents: Sequence[float]
    ) -> None:
        coeffs = tuple(float(c) for c in coefficients)
        exps = tuple(float(a) for a in exponents)
        if len(coeffs) != len(exps) or not coeffs:
            raise InvalidParameterError(
                "coefficients and exponents must align and be non-empty"
            )
        for c in coeffs:
            if not math.isfinite(c) or c <= 0.0:
                raise InvalidParameterError(f"coefficients must be > 0, got {c}")
        for a in exps:
            if not math.isfinite(a) or a < 1.0:
                raise InvalidParameterError(f"exponents must be >= 1, got {a}")
        if max(exps) <= 1.0:
            raise InvalidParameterError(
                "at least one exponent must exceed 1 (strictly convex part)"
            )
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "exponents", exps)

    # ------------------------------------------------------------------
    # PowerFunction protocol
    # ------------------------------------------------------------------
    def __call__(self, speed: float) -> float:
        """Power at ``speed`` (clamped below at 0)."""
        if speed <= 0.0:
            return 0.0
        return float(
            left_sum(c * speed**a for c, a in zip(self.coefficients, self.exponents))
        )

    def derivative(self, speed: float) -> float:
        """Marginal power ``sum_i c_i * a_i * s**(a_i - 1)``."""
        if speed <= 0.0:
            return self.marginal_at_zero
        return float(
            left_sum(
                c * a * speed ** (a - 1.0)
                for c, a in zip(self.coefficients, self.exponents)
            )
        )

    @property
    def marginal_at_zero(self) -> float:
        """``P'(0+)`` — nonzero when a linear term is present."""
        return float(
            left_sum(
                c * a
                for c, a in zip(self.coefficients, self.exponents)
                if a == 1.0
            )
        )

    def derivative_inverse(self, marginal: float) -> float:
        """The speed with ``P'(s) == marginal`` (0 below ``P'(0+)``).

        Newton on the smooth increasing derivative, seeded from the
        dominant monomial in log space, with a bisection fallback if
        Newton wanders (it does not in practice; the fallback is a
        correctness net, exercised in tests via pathological mixes).
        """
        if marginal <= self.marginal_at_zero:
            return 0.0
        # Seed: invert the asymptotically dominant monomial.
        c_max, a_max = max(
            zip(self.coefficients, self.exponents), key=lambda t: t[1]
        )
        s = (marginal / (c_max * a_max)) ** (1.0 / (a_max - 1.0))
        s = max(s, 1e-300)
        for _ in range(_NEWTON_STEPS):
            f = self.derivative(s) - marginal
            if abs(f) <= 1e-14 * marginal:
                return float(s)
            fp = self._second_derivative(s)
            if fp <= 0.0:
                break
            step = f / fp
            new_s = s - step
            if new_s <= 0.0:
                new_s = s / 2.0
            if abs(new_s - s) <= 1e-16 * max(s, 1.0):
                return float(new_s)
            s = new_s
        # Bisection fallback on a doubling bracket.
        lo, hi = 0.0, max(s, 1.0)
        for _ in range(200):
            if self.derivative(hi) >= marginal:
                break
            hi *= 2.0
        else:  # pragma: no cover - derivative is unbounded
            raise ConvergenceError(f"cannot bracket marginal {marginal}")
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if self.derivative(mid) >= marginal:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-15 * max(1.0, hi):
                break
        return float(hi)

    def _second_derivative(self, speed: float) -> float:
        return float(
            left_sum(
                c * a * (a - 1.0) * speed ** (a - 2.0)
                for c, a in zip(self.coefficients, self.exponents)
                if a > 1.0
            )
        )

    # ------------------------------------------------------------------
    # Conveniences mirroring PolynomialPower
    # ------------------------------------------------------------------
    def energy(self, speed: float, duration: float) -> float:
        """Energy at constant ``speed`` for ``duration`` time units."""
        if duration < 0.0:
            raise InvalidParameterError(f"duration must be >= 0, got {duration}")
        return self(speed) * duration

    def power_array(self, speeds: FloatArray) -> FloatArray:
        """Elementwise power for an array of speeds."""
        s = np.maximum(np.asarray(speeds, dtype=np.float64), 0.0)
        out = np.zeros_like(s)
        for c, a in zip(self.coefficients, self.exponents):
            out += c * s**a
        return out
