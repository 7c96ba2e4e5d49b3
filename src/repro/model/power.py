"""Power functions for speed-scalable processors.

The paper models a processor running at speed ``s`` as consuming power
``P_alpha(s) = s**alpha`` for a constant energy exponent ``alpha > 1``
(classical CMOS systems are well approximated by ``alpha = 3``). Energy is
power integrated over time, so a job of workload ``w`` executed at constant
speed ``s`` takes time ``w / s`` and costs energy ``(w / s) * s**alpha =
w * s**(alpha - 1)``.

This module provides a small protocol so that the rest of the library can
work with any convex power function, plus the concrete
:class:`PolynomialPower` the paper uses. Keeping derivative and inverse
derivative as first-class operations matters because the primal-dual
algorithm PD prices work at the *marginal* energy cost ``w * P'(s)`` and
must invert that relation during water-filling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import InvalidParameterError
from ..types import FloatArray

__all__ = [
    "PowerFunction",
    "PolynomialPower",
    "energy_at_constant_speed",
    "optimal_constant_speed_energy",
]


@runtime_checkable
class PowerFunction(Protocol):
    """Protocol for convex, differentiable power functions ``P(s)``.

    Implementations must satisfy ``P(0) == 0``, convexity, and strict
    monotonicity of the derivative on ``s > 0`` so that
    :meth:`derivative_inverse` is well defined.
    """

    def __call__(self, speed: float) -> float:
        """Power drawn at ``speed``."""
        ...

    def derivative(self, speed: float) -> float:
        """Marginal power ``P'(speed)``."""
        ...

    def derivative_inverse(self, marginal: float) -> float:
        """The speed ``s`` with ``P'(s) == marginal`` (0 for ``marginal <= 0``)."""
        ...


@dataclass(frozen=True, slots=True)
class PolynomialPower:
    """The paper's power function ``P_alpha(s) = s**alpha`` with ``alpha > 1``.

    Instances are immutable and cheap; pass them around freely. All array
    variants accept NumPy arrays and broadcast elementwise — the
    simulator's hot paths use those.

    Parameters
    ----------
    alpha:
        Energy exponent. The paper requires ``alpha > 1`` (and the original
        Yao–Demers–Shenker model assumed ``alpha >= 2``); we enforce the
        weaker paper condition.

    Examples
    --------
    >>> p = PolynomialPower(3.0)
    >>> p(2.0)
    8.0
    >>> p.derivative(2.0)
    12.0
    >>> round(p.derivative_inverse(12.0), 12)
    2.0
    """

    alpha: float

    def __post_init__(self) -> None:
        if not (self.alpha > 1.0) or not math.isfinite(self.alpha):
            raise InvalidParameterError(
                f"energy exponent alpha must be a finite number > 1, got {self.alpha!r}"
            )

    # ------------------------------------------------------------------
    # Scalar operations
    # ------------------------------------------------------------------
    def __call__(self, speed: float) -> float:
        """Power ``speed**alpha`` (speeds are clamped below at 0)."""
        if speed <= 0.0:
            return 0.0
        return float(speed**self.alpha)

    def derivative(self, speed: float) -> float:
        """Marginal power ``alpha * speed**(alpha - 1)``."""
        if speed <= 0.0:
            return 0.0
        return float(self.alpha * speed ** (self.alpha - 1.0))

    def derivative_inverse(self, marginal: float) -> float:
        """Speed at which the marginal power equals ``marginal``.

        Inverts ``P'(s) = alpha * s**(alpha-1)``; returns 0 for
        non-positive marginals (the derivative is 0 at speed 0). For
        exponents near 1 the inverse explodes — huge marginals (e.g. the
        sentinel values of classical must-finish jobs) then map to
        ``inf``, which callers treat as "no cap".
        """
        if marginal <= 0.0:
            return 0.0
        # Work in log space to detect overflow without raising.
        log_speed = math.log(marginal / self.alpha) / (self.alpha - 1.0)
        if log_speed > 690.0:  # exp(690) ~ 1e299, the edge of float64
            return math.inf
        return math.exp(log_speed)

    def energy(self, speed: float, duration: float) -> float:
        """Energy used running at constant ``speed`` for ``duration`` time."""
        if duration < 0.0:
            raise InvalidParameterError(f"duration must be >= 0, got {duration}")
        return self(speed) * duration

    def job_energy(self, workload: float, speed: float) -> float:
        """Energy to process ``workload`` at constant ``speed``.

        Equals ``workload * speed**(alpha-1)`` — the form used by the
        paper's single-processor rejection-policy discussion.
        """
        if workload <= 0.0 or speed <= 0.0:
            return 0.0
        return float(workload * speed ** (self.alpha - 1.0))

    # ------------------------------------------------------------------
    # Array operations (vectorized hot paths)
    # ------------------------------------------------------------------
    def power_array(self, speeds: FloatArray) -> FloatArray:
        """Elementwise power for an array of speeds (negatives clamp to 0)."""
        s = np.maximum(np.asarray(speeds, dtype=np.float64), 0.0)
        return s**self.alpha

    def derivative_array(self, speeds: FloatArray) -> FloatArray:
        """Elementwise marginal power for an array of speeds."""
        s = np.maximum(np.asarray(speeds, dtype=np.float64), 0.0)
        return self.alpha * s ** (self.alpha - 1.0)

    # ------------------------------------------------------------------
    # Paper-specific constants
    # ------------------------------------------------------------------
    @property
    def competitive_ratio_pd(self) -> float:
        """``alpha**alpha`` — PD's tight competitive ratio (Theorem 3)."""
        return float(self.alpha**self.alpha)

    @property
    def competitive_ratio_cll(self) -> float:
        """``alpha**alpha + 2 e alpha`` — the Chan–Lam–Li bound PD improves."""
        return float(self.alpha**self.alpha + 2.0 * math.e * self.alpha)

    @property
    def optimal_delta(self) -> float:
        """``delta = alpha**(1 - alpha)`` — the PD parameter from Theorem 3."""
        return float(self.alpha ** (1.0 - self.alpha))

    @property
    def rejection_energy_factor(self) -> float:
        """``alpha**(alpha - 2)``.

        On one processor, PD with the optimal ``delta`` rejects a job
        exactly when its planned energy exceeds this factor times the
        job's value (Section 3 of the paper).
        """
        return float(self.alpha ** (self.alpha - 2.0))


def energy_at_constant_speed(
    power: PowerFunction, workload: float, duration: float
) -> float:
    """Minimum energy to finish ``workload`` within ``duration`` time.

    For a convex power function the optimum is the constant speed
    ``workload / duration`` (by Jensen's inequality), which this helper
    evaluates. Raises when the duration is non-positive but work remains.
    """
    if workload <= 0.0:
        return 0.0
    if duration <= 0.0:
        raise InvalidParameterError(
            f"cannot finish workload {workload} in non-positive duration {duration}"
        )
    speed = workload / duration
    return power(speed) * duration


def optimal_constant_speed_energy(
    alpha: float, workload: float, duration: float
) -> float:
    """Closed form ``duration * (workload / duration)**alpha``.

    Convenience wrapper around :func:`energy_at_constant_speed` for the
    polynomial power function; used pervasively in tests as an oracle.
    """
    return energy_at_constant_speed(PolynomialPower(alpha), workload, duration)
