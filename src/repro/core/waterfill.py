"""Exact water-filling step of the primal-dual algorithm.

When job ``j`` arrives, Listing 1 of the paper raises the variables
``x_{jk}`` of all atomic intervals inside ``[r_j, d_j)`` *continuously*,
always feeding the intervals whose marginal price

    ``lambda_{jk} = delta * w_j * P'(s_{jk})``

is currently smallest, until either the whole job is placed
(``sum_k x_{jk} = 1``) or the common price reaches the job's value
(rejection). Because every ``P_k`` is convex, this continuous procedure is
equivalent to a *single price query*: find the smallest common price
``lambda`` whose induced per-interval loads sum to the job's workload.

The load an interval accepts at price ``lambda`` is
``z_k(lambda) = max_load_at_speed(s(lambda))`` with
``s(lambda) = P'^{-1}(lambda / (delta * w_j))``, a closed-form
water-level query (see :mod:`repro.chen.interval_power`). The map
``s -> sum_k z_k(s)`` is piecewise linear, continuous, and non-decreasing,
with at most ``m + 2`` slope changes per interval, so the clearing speed
is solved exactly on it
(:meth:`~repro.perf.kernels.WindowKernel.clearing_speed`): sort the
window's slope changes, sweep to the linear piece that reaches the
workload, and solve that piece — machine-precision placements without
simulating the continuous process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from ..model.power import PolynomialPower, PowerFunction
from ..perf.kernels import WindowKernel
from ..types import FloatArray, left_sum

__all__ = ["WaterfillOutcome", "price_cap", "waterfill_job"]

#: Relative tolerance on the placed workload.
_WORK_TOL = 1e-11


def price_cap(
    power: PowerFunction, value: float, workload: float, delta: float
) -> float:
    """The job's price cap: the speed ``s`` at which its marginal price
    ``delta * workload * P'(s)`` reaches ``value``.

    That is ``power.derivative_inverse(value / (delta * workload))``,
    float for float, wherever that expression returns a finite cap. For
    :class:`~repro.model.power.PolynomialPower` the rows it cannot take
    are solved in log space,
    ``exp((log v - log delta - log w - log alpha) / (alpha - 1))``:
    ``delta * workload`` underflowing to 0 (a ``ZeroDivisionError``), a
    positive quotient whose share of ``alpha`` underflows to 0 (a math
    domain error), and the quotient overflowing (which read as no cap
    at all). The log form keeps the scalar's overflow edge. An infinite
    value has no cap.
    """
    if not math.isfinite(value):
        return math.inf
    if type(power) is not PolynomialPower:
        return power.derivative_inverse(value / (delta * workload))
    if value <= 0.0:
        return 0.0
    alpha = power.alpha
    scale = delta * workload
    marginal = value / scale if scale > 0.0 else math.inf
    if marginal < math.inf and (marginal == 0.0 or marginal / alpha > 0.0):
        return power.derivative_inverse(marginal)
    log_speed = (
        math.log(value) - math.log(delta) - math.log(workload) - math.log(alpha)
    ) / (alpha - 1.0)
    return math.inf if log_speed > 690.0 else math.exp(log_speed)


@dataclass(frozen=True)
class WaterfillOutcome:
    """Result of pricing one job against the frozen assignment.

    Attributes
    ----------
    accepted:
        Whether the job could be fully placed at a price below its value.
    lam:
        The job's dual variable ``lambda_j``: the clearing price when
        accepted, the job's value when rejected.
    speed:
        The planned speed ``s~_j`` at which the job's marginal was priced
        when ``lambda_j`` got fixed (Equation (10) of the paper).
    load_list:
        Per-interval loads, one float per interval of the window. For an
        accepted job these are the final assignment (summing to the
        workload); for a rejected job these are the loads *planned just
        before rejection* — the paper's ``x̌_{jk}`` — which the analysis
        package needs for Propositions 7/8. The algorithm itself resets
        them to zero. :attr:`loads` is the same vector as an array.
    planned_work:
        Sum of the loads (equals the workload when accepted).
    """

    accepted: bool
    lam: float
    speed: float
    load_list: list[float]
    planned_work: float

    @property
    def loads(self) -> FloatArray:
        """The per-interval loads as a float64 array."""
        return np.array(self.load_list, dtype=np.float64)


def waterfill_job(
    kernel: WindowKernel,
    *,
    workload: float,
    value: float,
    delta: float,
    power: PolynomialPower,
    cap: float | None = None,
) -> WaterfillOutcome:
    """Price job ``j`` against the intervals of ``kernel``.

    Parameters
    ----------
    kernel:
        The frozen pre-arrival assignment of the job's window, as a
        :class:`~repro.perf.kernels.WindowKernel` over its atomic
        intervals.
    workload, value:
        The job's ``w_j`` (finite, > 0) and ``v_j`` (>= 0; ``inf`` means
        the job must be placed).
    delta:
        The PD aggressiveness parameter (finite, > 0; Theorem 3 uses
        ``alpha**(1-alpha)``).
    power:
        The power function ``P_alpha``.
    cap:
        The job's :func:`price_cap`, where the caller already holds it
        (the epoch layer prices every arrival of a block in one pass);
        None computes it here.
    """
    if not (math.isfinite(workload) and workload > 0.0):
        raise InvalidParameterError(
            f"workload must be finite and > 0, got {workload}"
        )
    if not (value >= 0.0):
        raise InvalidParameterError(f"value must be >= 0, got {value}")
    if not (math.isfinite(delta) and delta > 0.0):
        raise InvalidParameterError(f"delta must be finite and > 0, got {delta}")
    if len(kernel) == 0:
        # No interval can host the job (can happen only with a stale
        # grid); the job is rejected at its value.
        return WaterfillOutcome(
            accepted=False,
            lam=value,
            speed=0.0,
            load_list=[],
            planned_work=0.0,
        )

    # Price cap: lambda <= value <=> planned speed <= s_cap. An infinite
    # value (classical must-finish jobs, the offline solver's block
    # steps, or a near-1 exponent mapping a huge value to inf) means no
    # effective cap: bracket by doubling instead.
    s_cap = price_cap(power, value, workload, delta) if cap is None else cap
    if not math.isfinite(s_cap):
        s_cap = max(1.0, workload)
        for _ in range(200):
            if kernel.total_at_speed(s_cap) >= workload:
                break
            s_cap *= 2.0

    placed_at_cap = kernel.total_at_speed(s_cap)
    if placed_at_cap < workload * (1.0 - _WORK_TOL):
        # Even at the job's full value the intervals cannot absorb the
        # workload cheaply enough: reject. Record the planned loads for
        # the analysis of unfinished jobs.
        return WaterfillOutcome(
            accepted=False,
            lam=value,
            speed=s_cap,
            load_list=kernel.loads_at_speed(s_cap),
            planned_work=placed_at_cap,
        )

    # The cap test accepts within the tolerance even when the window
    # holds slightly less than the workload at the cap; the job is then
    # priced at the cap. Otherwise the clearing speed lies at or below
    # the cap.
    if placed_at_cap < workload:
        s = s_cap
    else:
        s = kernel.clearing_speed(workload, s_cap)
    loads = kernel.loads_at_speed(s)
    placed = left_sum(loads)
    if placed <= 0.0:
        # Degenerate: numerical cap hit; treat as rejection.
        return WaterfillOutcome(
            accepted=False,
            lam=value,
            speed=s_cap,
            load_list=loads,
            planned_work=placed,
        )
    if abs(placed - workload) > _WORK_TOL * workload:
        # The speed is exact, but each interval's load is evaluated as
        # ``target * (m - d) - suffix[d]``, which cancels when existing
        # loads dwarf the job, so the placed work can miss the workload
        # by about ``eps * m * s * sum(lengths)``: scale it back.
        scale = workload / placed
        loads = [z * scale for z in loads]
        placed = workload

    lam = delta * workload * power.derivative(s)
    lam = min(lam, value)
    return WaterfillOutcome(
        accepted=True, lam=lam, speed=s, load_list=loads, planned_work=placed
    )
