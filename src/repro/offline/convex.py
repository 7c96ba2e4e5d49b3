"""Offline convex program (CP): minimum energy for a fixed accepted set.

For a fixed set of accepted jobs the paper's program (Figure 1) reduces to

    ``min  sum_k P_k(x_{.k})   s.t.  sum_k c_{jk} x_{jk} = 1`` per job,

a smooth convex problem over a product of scaled simplices. We solve it by
**block-coordinate descent**: cyclically re-water-fill each job against
the others' frozen loads — each block step is an *exact* minimization over
that job's row (the water-filling clearing price is closed-form, see
:mod:`repro.core.waterfill`). BCD on a differentiable convex objective
with separable constraints converges to the global optimum (Tseng 2001);
we certify each solution a posteriori via the KKT residual (per job, the
marginal energy must be constant on the support of its row and no smaller
anywhere else in its window).

This numeric solver is the library's stand-in for the exact
Albers–Antoniadis–Greiner multiprocessor offline algorithm; on ``m == 1``
the tests cross-validate it against the combinatorial YDS optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..chen.interval_power import interval_energy, interval_energy_gradient
from ..core.waterfill import waterfill_job
from ..errors import ConvergenceError, InvalidParameterError
from ..model.intervals import Grid, grid_for_instance
from ..model.job import Instance
from ..model.schedule import Schedule
from ..perf.kernels import IntervalLoads, WindowKernel
from ..types import FloatArray, left_sum

__all__ = ["OfflineSolution", "solve_min_energy", "kkt_residual"]

_LOAD_EPS = 1e-12


@dataclass(frozen=True)
class OfflineSolution:
    """A solved (or best-effort) instance of the fixed-acceptance CP.

    ``kkt`` is the final KKT residual (see :func:`kkt_residual`); a value
    around or below the requested tolerance certifies global optimality of
    the convex program up to that tolerance.
    """

    schedule: Schedule
    energy: float
    cycles: int
    kkt: float
    converged: bool

    @property
    def cost(self) -> float:
        return self.schedule.cost


def solve_min_energy(
    instance: Instance,
    accepted: Sequence[int] | None = None,
    *,
    grid: Grid | None = None,
    max_cycles: int = 400,
    tol: float = 1e-8,
    raise_on_failure: bool = False,
) -> OfflineSolution:
    """Minimize total energy finishing exactly the ``accepted`` jobs.

    Parameters
    ----------
    instance:
        The problem instance (values are irrelevant here except for the
        cost of the returned schedule).
    accepted:
        Job ids that must be finished; default: all jobs.
    grid:
        Grid to work on; defaults to the instance grid.
    max_cycles:
        Cap on BCD sweeps. Each sweep re-optimizes every accepted job once.
    tol:
        Relative KKT tolerance for declaring convergence.
    raise_on_failure:
        When true, raise :class:`ConvergenceError` (carrying the best
        solution) instead of returning an unconverged result.
    """
    acc = sorted(set(range(instance.n) if accepted is None else accepted))
    if any(j < 0 or j >= instance.n for j in acc):
        raise InvalidParameterError(f"accepted ids out of range: {acc}")
    g = grid or grid_for_instance(instance)
    n, big_n = instance.n, g.size
    lengths = g.lengths
    power = instance.power

    finished = np.zeros(n, dtype=bool)
    finished[acc] = True

    loads = np.zeros((n, big_n))
    windows: dict[int, list[int]] = {}
    for j in acc:
        job = instance[j]
        ks = list(g.covering(job.release, job.deadline))
        windows[j] = ks
        # AVR warm start: uniform density over the window.
        span = float(left_sum(lengths[k] for k in ks))
        for k in ks:
            loads[j, k] = job.workload * float(lengths[k]) / span

    def objective() -> float:
        total = 0.0
        for k in range(big_n):
            col = loads[:, k]
            if float(col.sum()) > _LOAD_EPS:
                total += interval_energy(col, instance.m, float(lengths[k]), power)
        return total

    prev_obj = objective()
    cycles = 0
    converged = False
    for cycles in range(1, max_cycles + 1):
        for j in acc:
            ks = windows[j]
            saved = loads[j, ks].copy()
            loads[j, ks] = 0.0
            kernel = WindowKernel(
                [IntervalLoads.from_column(loads[:, k]) for k in ks],
                [float(lengths[k]) for k in ks],
                instance.m,
            )
            outcome = waterfill_job(
                kernel,
                workload=instance[j].workload,
                value=np.inf,
                delta=1.0,
                power=power,
            )
            if not outcome.accepted:  # pragma: no cover - inf value never rejects
                loads[j, ks] = saved
                continue
            loads[j, ks] = outcome.loads
        obj = objective()
        res = kkt_residual(instance, g, loads, acc)
        if res <= tol and prev_obj - obj <= tol * max(1.0, abs(obj)):
            converged = True
            prev_obj = obj
            break
        prev_obj = obj

    schedule = Schedule(instance=instance, grid=g, loads=loads, finished=finished)
    solution = OfflineSolution(
        schedule=schedule,
        energy=prev_obj,
        cycles=cycles,
        kkt=kkt_residual(instance, g, loads, acc),
        converged=converged,
    )
    if raise_on_failure and not converged:
        raise ConvergenceError(
            f"BCD did not reach KKT tolerance {tol} in {max_cycles} cycles "
            f"(residual {solution.kkt:.3g})",
            best=solution,
        )
    return solution


def kkt_residual(
    instance: Instance,
    grid: Grid,
    loads: FloatArray,
    accepted: Sequence[int],
) -> float:
    """Relative KKT violation of a fixed-acceptance assignment.

    For each accepted job the stationarity conditions of the CP require a
    multiplier ``lambda_j`` with marginal energy ``== lambda_j`` wherever
    the job has load and ``>= lambda_j`` elsewhere in its window. The
    returned residual is the worst relative violation across jobs:

        ``max_j (max marginal on support - min marginal in window)
                / max(1, max marginal on support)``

    clipped below at 0. Zero means exact KKT; the solver targets ~1e-8.
    """
    lengths = grid.lengths
    power = instance.power
    # Marginals per interval, computed once per column.
    marginals = np.zeros_like(loads)
    for k in range(grid.size):
        marginals[:, k] = interval_energy_gradient(
            loads[:, k], instance.m, float(lengths[k]), power
        )
    worst = 0.0
    for j in accepted:
        job = instance[j]
        ks = list(grid.covering(job.release, job.deadline))
        row_loads = loads[j, ks]
        row_marg = marginals[j, ks]
        support = row_loads > _LOAD_EPS * max(1.0, float(row_loads.max(initial=0.0)))
        if not support.any():
            worst = max(worst, 1.0)  # job gets no work at all: maximally wrong
            continue
        hi = float(row_marg[support].max())
        lo = float(row_marg.min())
        worst = max(worst, max(0.0, hi - lo) / max(1.0, hi))
    return worst


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


@register_algorithm(
    "offline-cp",
    online=False,
    multiprocessor=True,
    summary="offline convex program: min energy finishing every job",
)
def _run_offline_cp_registered(instance):
    solution = solve_min_energy(instance)
    return solution.schedule, solution
