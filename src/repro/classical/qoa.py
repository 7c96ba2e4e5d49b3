"""qOA — OA sped up by a factor ``q`` (Bansal, Chan, Pruhs, Katz 2009).

qOA runs, at every moment, ``q`` times as fast as Optimal Available would
in the *current state* (i.e., OA's plan is recomputed from qOA's own
remaining work), processing jobs EDF. With ``q = 2 - 1/alpha`` its
competitive ratio is ``4**alpha / (2 * e**(1/2) * alpha**(1/4))``-ish —
the point is that it beats both OA and BKP for the practically relevant
low exponents (``alpha = 2..3``).

Running faster than the plan finishes jobs *early*, so unlike OA the plan
must be refreshed at completion events too. The simulation is event-driven
over arrivals, plan-segment boundaries, and completions.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance
from ..model.schedule import Schedule
from .execution import schedule_from_segments
from .oa import oa_plan

__all__ = ["run_qoa", "default_q"]

_EPS = 1e-12
_WORK_TOL = 1e-9


def default_q(alpha: float) -> float:
    """The speed-up factor ``q = 2 - 1/alpha`` recommended by the authors."""
    return 2.0 - 1.0 / alpha


def run_qoa(instance: Instance, *, q: float | None = None) -> Schedule:
    """Simulate qOA on a single processor (values ignored, all jobs finish)."""
    if instance.m != 1:
        raise InvalidParameterError(
            f"qOA is a single-processor algorithm; instance has m={instance.m}"
        )
    if instance.n == 0:
        raise InvalidParameterError("qOA needs at least one job")
    ordered = instance.sorted_by_release()
    q = default_q(ordered.alpha) if q is None else float(q)
    if q < 1.0:
        raise InvalidParameterError(f"q must be >= 1 (got {q}); slower than OA is infeasible")

    n = ordered.n
    releases = ordered.releases
    deadlines = {j: ordered[j].deadline for j in range(n)}
    remaining = {j: ordered[j].workload for j in range(n)}
    arrivals = sorted(set(releases.tolist()))
    horizon_end = max(deadlines.values())
    executed: list[tuple[int, float, float, float]] = []

    t = arrivals[0]
    arrival_idx = 0
    while t < horizon_end - _EPS:
        # Admit arrivals at time t.
        while arrival_idx < len(arrivals) and arrivals[arrival_idx] <= t + _EPS:
            arrival_idx += 1
        next_arrival = (
            arrivals[arrival_idx] if arrival_idx < len(arrivals) else horizon_end
        )
        known = [j for j in range(n) if releases[j] <= t + _EPS]
        alive = [
            j for j in known if remaining[j] > _WORK_TOL and deadlines[j] > t + _EPS
        ]
        if not alive:
            if next_arrival <= t + _EPS:
                break
            t = next_arrival
            continue

        plan = oa_plan(
            now=t,
            job_ids=known,
            remaining=remaining,
            deadlines=deadlines,
            alpha=ordered.alpha,
        )
        # Execute at q x plan speed, EDF, until the next structural event.
        plan_boundaries = sorted(
            {seg_a for (_, seg_a, _, _) in plan.segments}
            | {seg_b for (_, _, seg_b, _) in plan.segments}
        )
        plan_speed_at = _plan_speed_lookup(plan.segments)

        speed = q * plan_speed_at(t)
        if speed <= _EPS:
            t = next_arrival
            continue
        j = min(alive, key=lambda i: (deadlines[i], i))
        completion = t + remaining[j] / speed
        next_boundary = next(
            (b for b in plan_boundaries if b > t + _EPS), horizon_end
        )
        t_next = min(next_arrival, completion, next_boundary, horizon_end)
        if t_next <= t + _EPS:
            t = t + _EPS  # numerical nudge; cannot stall forever
            continue
        executed.append((j, t, t_next, speed))
        remaining[j] -= (t_next - t) * speed
        if remaining[j] < _WORK_TOL:
            remaining[j] = 0.0
        t = t_next

    finished = np.array([remaining[j] <= _WORK_TOL * 10 + 1e-6 for j in range(n)])
    return schedule_from_segments(ordered, executed, finished)


def _plan_speed_lookup(segments):
    """Closure returning the plan's speed at a given time (0 when idle)."""

    def speed_at(t: float) -> float:
        for _, a, b, s in segments:
            if a - _EPS <= t < b - _EPS:
                return s
        return 0.0

    return speed_at


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


@register_algorithm(
    "qoa",
    online=True,
    multiprocessor=False,
    summary="OA sped up by q = 2 - 1/alpha (single processor)",
)
def _run_qoa_registered(instance):
    schedule = run_qoa(instance)
    return schedule, schedule
