"""PD on a discrete speed menu: screen, schedule, round.

The paper's algorithm assumes a speed continuum. Real SpeedStep-style
processors offer a finite menu with a *top speed*, which changes the
problem in two ways:

1. **Feasibility.** A job whose required average speed exceeds the top
   level can never finish (jobs are nonparallel, so extra processors do
   not help). Such jobs must be rejected up front — their value is an
   unavoidable loss on this hardware.
2. **Energy.** Between menu levels the processor time-shares two adjacent
   levels, paying the envelope premium analysed in
   :mod:`repro.discrete.envelope`.

:func:`run_pd_discrete` composes the continuous PD with both adaptations:
it force-rejects menu-infeasible jobs, runs PD on the rest, and if the
realized schedule still tops out above the fastest level (several
accepted jobs stacking up in a tight window) it degrades gracefully by
dropping the cheapest violating job and re-running — a deterministic
heuristic, clearly separated from the paper's theorem, whose behaviour
the E11 ablation quantifies. The resulting cost is within a factor
``worst_overhead_factor(menu, alpha)`` of the continuous PD cost whenever
no screening triggers, which combined with Theorem 3 gives an end-to-end
``overhead * alpha**alpha`` guarantee against the *continuous* optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.pd import PDResult, run_pd
from ..errors import InvalidParameterError
from ..model.job import Instance
from ..types import left_sum
from .rounding import DiscreteSchedule, discretize_schedule
from .speedset import SpeedSet

__all__ = [
    "DiscretePDResult",
    "run_pd_discrete",
    "menu_infeasible_mask",
    "menu_covering_schedule",
]

#: Safety margin when comparing realized speeds against the top level.
_CAP_TOL = 1e-9


def menu_infeasible_mask(instance: Instance, speed_set: SpeedSet) -> np.ndarray:
    """Boolean mask of jobs that cannot finish on this menu.

    A job needs average speed ``workload / span`` while it runs; since a
    job occupies at most one processor at a time, the menu's top level is
    a hard per-job speed limit regardless of ``m``.
    """
    spans = instance.deadlines - instance.releases
    return instance.workloads / spans > speed_set.max_speed * (1.0 + _CAP_TOL)


def menu_covering_schedule(
    result: PDResult, count: int, *, floor_fraction: float = 0.05
) -> SpeedSet:
    """A geometric menu that covers every speed a PD run actually used.

    Convenience for experiments: the top level is the fastest realized
    processor speed, the bottom level a ``floor_fraction`` of it (clamped
    to the slowest positive realized speed if that is lower). With this
    menu :func:`run_pd_discrete` never needs to screen or degrade, so the
    measured overhead isolates the pure two-level emulation premium.
    """
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    speeds = result.schedule.processor_speed_matrix()
    positive = speeds[speeds > 0.0]
    if positive.size == 0:
        raise InvalidParameterError("the schedule runs nothing; no menu to build")
    top = float(positive.max())
    bottom = min(float(positive.min()), top * floor_fraction)
    if count == 1 or bottom >= top:
        return SpeedSet([top])
    return SpeedSet.geometric(bottom, top, count)


@dataclass(frozen=True)
class DiscretePDResult:
    """Outcome of PD adapted to a finite speed menu.

    Attributes
    ----------
    instance:
        The *original* instance (including screened jobs).
    speed_set:
        The menu.
    continuous:
        The PD run on the surviving sub-instance (continuous speeds).
    discrete:
        The rounded schedule of that run.
    kept_ids:
        Original job ids of the jobs PD actually saw, in the order they
        appear in ``continuous.schedule.instance``.
    screened_ids:
        Original job ids force-rejected before (density cap) or during
        (stack cap) the run; their values are paid in full.
    """

    instance: Instance
    speed_set: SpeedSet
    continuous: PDResult
    discrete: DiscreteSchedule
    kept_ids: tuple[int, ...]
    screened_ids: tuple[int, ...]

    @cached_property
    def screened_value(self) -> float:
        """Total value of jobs rejected by screening/degradation."""
        return float(left_sum(self.instance.values[list(self.screened_ids)]))

    @property
    def cost(self) -> float:
        """Discrete energy + all lost value (screened jobs included)."""
        return self.discrete.energy + self.discrete.lost_value + self.screened_value

    @property
    def continuous_cost(self) -> float:
        """Cost of the continuous PD run plus screened value (comparison baseline)."""
        return self.continuous.cost + self.screened_value

    @property
    def overhead(self) -> float:
        """Energy-only rounding premium ``discrete.energy / continuous energy``."""
        return self.discrete.overhead

    @property
    def accepted_original_ids(self) -> tuple[int, ...]:
        """Original ids of jobs the discrete run finishes."""
        mask = self.continuous.accepted_mask
        return tuple(
            oid for oid, acc in zip(self.kept_ids, mask) if bool(acc)
        )

    def summary(self) -> str:
        """Human-readable run summary."""
        return (
            f"Discrete PD on {self.speed_set.count} level(s) "
            f"[{self.speed_set.min_speed:.4g}, {self.speed_set.max_speed:.4g}]\n"
            f"  screened {len(self.screened_ids)}/{self.instance.n} jobs, "
            f"energy overhead x{self.overhead:.4f}\n"
            f"  cost {self.cost:.6g} (continuous: {self.continuous_cost:.6g})"
        )


def _max_realized_speed(result: PDResult) -> tuple[float, int]:
    """Fastest realized speed and the sub-instance id of a job running at it."""
    best_speed, best_job = 0.0, -1
    for interval in result.schedule.realize():
        for seg in interval.segments:
            if seg.speed > best_speed:
                best_speed, best_job = seg.speed, seg.job
    return best_speed, best_job


def run_pd_discrete(
    instance: Instance,
    speed_set: SpeedSet,
    *,
    delta: float | None = None,
    max_degrade_rounds: int | None = None,
) -> DiscretePDResult:
    """Run PD and emulate the result on a finite speed menu.

    Pipeline:

    1. force-reject jobs whose density exceeds the top level
       (:func:`menu_infeasible_mask`);
    2. run continuous PD on the rest;
    3. while some realized segment exceeds the top level, force-reject the
       smallest-value *accepted* job running in such a segment and re-run
       (bounded by ``max_degrade_rounds``, default ``n``);
    4. round the final continuous schedule onto the menu.

    The returned :class:`DiscretePDResult` accounts the screened jobs'
    values into :attr:`~DiscretePDResult.cost`, so costs remain comparable
    with continuous runs on the full instance.

    Raises
    ------
    InvalidParameterError
        If every job gets screened (nothing left to schedule) or the
        degradation loop fails to reach feasibility within its budget
        (cannot happen: dropping all violating jobs is always sufficient).
    """
    ordered = instance.sorted_by_release()
    infeasible = menu_infeasible_mask(ordered, speed_set)
    kept = [j for j in range(ordered.n) if not infeasible[j]]
    screened = [j for j in range(ordered.n) if infeasible[j]]
    if not kept:
        raise InvalidParameterError(
            "every job exceeds the menu's top speed; nothing schedulable"
        )

    rounds = ordered.n if max_degrade_rounds is None else int(max_degrade_rounds)
    result = run_pd(ordered.restrict(kept), delta=delta)
    for _ in range(rounds + 1):
        top_speed, sub_job = _max_realized_speed(result)
        if top_speed <= speed_set.max_speed * (1.0 + _CAP_TOL):
            break
        # Drop the cheapest accepted job among those in violating segments.
        violating: set[int] = set()
        for interval in result.schedule.realize():
            for seg in interval.segments:
                if seg.speed > speed_set.max_speed * (1.0 + _CAP_TOL):
                    violating.add(seg.job)
        accepted = {
            j for j in violating if bool(result.accepted_mask[j])
        }
        if not accepted:  # pragma: no cover - defensive; speeds come from loads
            raise InvalidParameterError(
                "realized over-speed segment with no accepted job to drop"
            )
        sub = result.schedule.instance
        drop_sub_id = min(accepted, key=lambda j: (sub.jobs[j].value, j))
        drop_original = kept[drop_sub_id]
        screened.append(drop_original)
        kept = [j for j in kept if j != drop_original]
        if not kept:
            raise InvalidParameterError(
                "degradation screened every job; menu top speed too low"
            )
        result = run_pd(ordered.restrict(kept), delta=delta)
    else:  # pragma: no cover - loop always breaks: each round removes a job
        raise InvalidParameterError("degradation loop exceeded its budget")

    discrete = discretize_schedule(result.schedule, speed_set)
    return DiscretePDResult(
        instance=ordered,
        speed_set=speed_set,
        continuous=result,
        discrete=discrete,
        kept_ids=tuple(kept),
        screened_ids=tuple(sorted(screened)),
    )
