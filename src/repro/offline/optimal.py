"""Exact solver for the integral program (IMP) on small instances.

The full problem lets the scheduler choose *which* jobs to finish; the
integral variables ``y_j`` make it combinatorial. For the instance sizes
used in duality experiments (``n <= ~15``) we solve it exactly by
enumerating acceptance sets, solving the convex program for each, and
keeping the cheapest total (energy + rejected values).

Branch-and-bound pruning keeps this tractable: a job processed at all
costs at least its *solo energy* (constant speed over its whole window on
an otherwise empty machine — a valid lower bound because per-job energies
add across processors and convexity favors constant speed), so any
acceptance set whose solo-energy + rejected-value lower bound already
exceeds the incumbent is skipped without a convex solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..errors import InvalidParameterError
from ..model.job import Instance
from ..model.power import optimal_constant_speed_energy
from ..model.schedule import Schedule
from ..types import left_sum
from .convex import OfflineSolution, solve_min_energy

__all__ = ["ExactSolution", "solve_exact", "solo_energy"]

#: Hard cap: 2**18 subsets is the largest enumeration we allow.
_MAX_N = 18


@dataclass(frozen=True)
class ExactSolution:
    """The optimal offline solution of (IMP)."""

    schedule: Schedule
    accepted: tuple[int, ...]
    cost: float
    subsets_solved: int
    subsets_pruned: int


def solo_energy(instance: Instance, job_id: int) -> float:
    """Minimum conceivable energy for one job: constant speed, empty machine."""
    job = instance[job_id]
    return optimal_constant_speed_energy(instance.alpha, job.workload, job.span)


def solve_exact(
    instance: Instance,
    *,
    tol: float = 1e-8,
    max_cycles: int = 400,
) -> ExactSolution:
    """Enumerate acceptance sets and return the exact (IMP) optimum.

    Raises for ``n > 18``; use the dual bound from
    :mod:`repro.analysis.certificates` on larger instances instead.
    """
    n = instance.n
    if n == 0:
        raise InvalidParameterError("empty instance")
    if n > _MAX_N:
        raise InvalidParameterError(
            f"exact enumeration supports n <= {_MAX_N}, got {n}"
        )

    values = instance.values
    solo = [solo_energy(instance, j) for j in range(n)]
    total_value = float(values.sum())

    best_cost = total_value  # reject everything
    best: OfflineSolution | None = None
    best_set: tuple[int, ...] = ()
    solved = 0
    pruned = 0

    # Enumerate by acceptance-set size; larger sets explored later tend to
    # be pruned once a good incumbent exists.
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            rejected_value = total_value - float(values[list(subset)].sum())
            lower = rejected_value + left_sum(solo[j] for j in subset)
            if lower >= best_cost - 1e-12:
                pruned += 1
                continue
            solution = solve_exact_for_set(
                instance, subset, tol=tol, max_cycles=max_cycles
            )
            solved += 1
            cost = solution.energy + rejected_value
            if cost < best_cost - 1e-12:
                best_cost = cost
                best = solution
                best_set = subset

    if best is None:
        schedule = Schedule.empty(
            instance, grid=__grid(instance)
        )
    else:
        schedule = best.schedule
    return ExactSolution(
        schedule=schedule,
        accepted=best_set,
        cost=best_cost,
        subsets_solved=solved,
        subsets_pruned=pruned,
    )


def solve_exact_for_set(
    instance: Instance,
    accepted: tuple[int, ...],
    *,
    tol: float = 1e-8,
    max_cycles: int = 400,
) -> OfflineSolution:
    """Convex solve for one acceptance set (thin wrapper, kept for profiling)."""
    return solve_min_energy(
        instance, accepted, tol=tol, max_cycles=max_cycles
    )


def __grid(instance: Instance):
    from ..model.intervals import grid_for_instance

    return grid_for_instance(instance)


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


@register_algorithm(
    "exact",
    profit_aware=True,
    online=False,
    multiprocessor=True,
    summary="exact offline optimum over acceptance sets (enumeration + CP)",
)
def _run_exact_registered(instance):
    solution = solve_exact(instance)
    return solution.schedule, solution
