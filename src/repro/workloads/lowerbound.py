"""The Theorem 3 lower-bound family (Bansal–Kimbrel–Pruhs instance).

The tightness half of the paper's Theorem 3 re-uses the classical lower
bound for OA: on a single processor, job ``j in {1..n}`` arrives at time
``j - 1`` with workload ``(n - j + 1)**(-1/alpha)`` and common deadline
``n``; values are high enough that PD finishes everything. PD (like OA)
spreads each job's remaining work uniformly to the horizon, which drives
its cost toward ``alpha**alpha`` times the optimum as ``n`` grows.

Both the instance generator and the closed-form cost expressions live
here, so experiment E2 can plot measured against analytic values.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance, Job
from ..model.power import PolynomialPower
from ..types import left_sum
from .registry import register_workload

__all__ = [
    "lower_bound_instance",
    "pd_cost_closed_form",
    "optimal_cost_closed_form",
]

#: Values this large never trigger rejection on this family.
_SAFE_VALUE = 1e18


def lower_bound_instance(n: int, alpha: float, *, value: float = _SAFE_VALUE) -> Instance:
    """Build the n-job lower-bound instance on one processor.

    Job ``j`` (1-based): release ``j - 1``, deadline ``n``, workload
    ``(n - j + 1)**(-1/alpha)``.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1 jobs, got {n}")
    PolynomialPower(alpha)  # the canonical error for a bad alpha
    jobs = tuple(
        Job(
            release=float(j - 1),
            deadline=float(n),
            workload=float((n - j + 1) ** (-1.0 / alpha)),
            value=value,
            name=f"lb{j}",
        )
        for j in range(1, n + 1)
    )
    return Instance(jobs, m=1, alpha=alpha)


def pd_cost_closed_form(n: int, alpha: float) -> float:
    """Exact energy of PD (= OA) on the lower-bound instance.

    PD spreads job ``j`` uniformly over ``[j-1, n)``, so during
    ``[k-1, k)`` the speed is ``sum_{j<=k} (n-j+1)**(-1-1/alpha)`` and the
    energy is the sum of the alpha-th powers of these unit-interval
    speeds. This closed form lets tests pin the simulator to analysis.
    """
    j = np.arange(1, n + 1, dtype=np.float64)
    terms = (n - j + 1.0) ** (-1.0 - 1.0 / alpha)
    speeds = np.cumsum(terms)  # speed during [k-1, k) is the k-th prefix sum
    return float(np.sum(speeds**alpha))


def optimal_cost_closed_form(n: int, alpha: float) -> float:
    """Exact optimal (YDS) energy on the lower-bound instance.

    The YDS critical intervals peel off from the end: the last job alone
    is the most intense, then the last two, and so on; job ``j`` ends up
    running alone during ``[j-1, j)`` at speed ``(n-j+1)**(-1/alpha)``.
    Hence OPT = ``sum_j (n-j+1)**(-1)`` = the harmonic number ``H_n``.
    """
    return float(left_sum(1.0 / (n - j + 1) for j in range(1, n + 1)))


@register_workload(
    "lowerbound",
    summary="the Theorem 3 adversarial family (PD cost -> alpha^alpha OPT)",
    deterministic=True,
)
def _lower_bound_family(n, *, m=1, alpha=3.0, seed=0):
    """Adapter: the adversarial family is deterministic and single-proc,
    so ``m`` and ``seed`` are accepted (for the uniform registry
    contract) and ignored — exactly the CLI's historical behaviour."""
    return lower_bound_instance(n, alpha)
