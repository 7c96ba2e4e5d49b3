"""The dual lower bound ``g(lambda~)`` for arbitrary convex power.

Everything in the paper's Section 4.1–4.2 except the final constants is
plain convex duality, so it survives the generalization verbatim:

* the optimal infeasible solution schedules, in every atomic interval,
  the ``min(m, n_k)`` available jobs with the largest ``s^_j``, each at
  constant speed ``s^_j`` (Lemma 5c's argument only needs the per-job
  contribution to be decreasing in ``s^_j``, which convexity gives);
* ``s^_j`` solves the stationarity condition ``w_j P'(s^_j) =
  lambda~_j`` — the generalized Lemma 5a — i.e. ``s^_j =
  P'^{-1}(lambda~_j / w_j)``;
* the per-job contribution of the x-variables generalizes
  ``(1 - alpha) l(j) s^_j**alpha`` to ``l(j) * (P(s^_j) - s^_j
  P'(s^_j))`` (non-positive by convexity with ``P(0) = 0``), giving

      g(lambda~) = sum_j l(j) * (P(s^) - s^ P'(s^)) + sum_j lambda~_j.

Weak duality ``g(lambda~) <= cost(OPT)`` is then inherited from the
Lagrangian construction — it does not depend on the power function at
all. What is *lost* is the closed-form ``alpha**alpha`` combination of
Lemmas 9–11; :func:`general_dual_bound` therefore reports the empirical
certified ratio instead, and the test-suite pins weak duality on
instances whose optimum is computable in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.certificates import contributions
from ..model.power import PowerFunction
from ..types import left_sum
from .pd_general import GeneralPDResult

__all__ = ["GeneralDualBound", "general_dual_bound"]


@dataclass(frozen=True)
class GeneralDualBound:
    """Dual value and the empirical certified ratio of a generalized run.

    Attributes
    ----------
    g:
        The dual lower bound on ``cost(OPT)`` for the generalized
        objective. Positive whenever some job has positive value or work.
    cost:
        ``cost(PD)`` of the generalized run.
    ratio:
        ``cost / g`` — an *upper bound on the run's competitive ratio on
        this instance* by weak duality. Unlike the polynomial case there
        is no theorem capping it a priori; E16 charts how it behaves.
    s_hat:
        The generalized Lemma 5 speeds.
    """

    g: float
    cost: float
    ratio: float
    s_hat: np.ndarray

    @property
    def holds(self) -> bool:
        """Sanity: the bound is usable (positive dual value)."""
        return self.g > 0.0 and np.isfinite(self.ratio)


def general_dual_bound(result: GeneralPDResult) -> GeneralDualBound:
    """Evaluate the generalized ``g(lambda~)`` for a run.

    Mirrors :func:`repro.analysis.certificates.dual_certificate` with the
    polynomial closed forms replaced by protocol calls; the contributing
    sets and ``l(j)`` come from the same window pass
    (:func:`~repro.analysis.certificates.contributions`).
    """
    schedule = result.schedule
    instance = schedule.instance
    power: PowerFunction = result.power
    w = instance.workloads
    lam = np.maximum(result.lambdas, 0.0)

    s_hat = np.array(
        [power.derivative_inverse(float(l) / float(wj)) for l, wj in zip(lam, w)]
    )
    _, l_of_j = contributions(schedule.grid, instance, s_hat)

    x_contrib = float(
        left_sum(
            l_of_j[j]
            * (power(float(s_hat[j])) - float(s_hat[j]) * power.derivative(float(s_hat[j])))
            for j in range(instance.n)
        )
    )
    g = x_contrib + float(lam.sum())
    cost = result.cost
    ratio = cost / g if g > 0.0 else float("inf")
    return GeneralDualBound(g=g, cost=cost, ratio=ratio, s_hat=s_hat)
