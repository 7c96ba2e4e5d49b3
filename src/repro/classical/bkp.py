"""BKP — the online algorithm of Bansal, Kimbrel & Pruhs (FOCS 2004).

BKP bounds the future by mirroring: at time ``t`` it considers, for every
horizon ``t' > t``, the work ``w(t, t1, t')`` of jobs already *arrived*
whose windows fit inside ``[t1, t']`` with ``t1 = e*t - (e-1)*t'``, and
runs EDF at speed

    ``s(t) = e * max_{t' > t} w(t, e*t - (e-1)*t', t') / (e * (t' - t))``.

Its competitive ratio is ``2 * (alpha / (alpha - 1))**alpha * e**alpha``
— asymptotically better than OA's ``alpha**alpha`` for large ``alpha``.

BKP's speed varies *continuously* in ``t`` (not only at events), so an
exact event-driven simulation is impossible with piecewise-constant
machinery. We discretize: each atomic interval is split into
``samples_per_interval`` equal slices, the speed is evaluated at each
slice's start and held constant over the slice, and jobs are processed
EDF. A final safety pass bumps the speed of any slice where discretization
would make a deadline slip (the bump vanishes as the sampling is refined;
tests verify first-order convergence of the energy).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance
from ..model.schedule import Schedule
from ..types import left_sum
from .execution import schedule_from_segments

__all__ = ["run_bkp", "bkp_speed"]

_EPS = 1e-12
_WORK_TOL = 1e-9


def bkp_speed(instance: Instance, t: float) -> float:
    """The BKP speed formula at time ``t`` (arrived jobs only)."""
    e = math.e
    candidates = sorted(
        {job.deadline for job in instance.jobs if job.deadline > t + _EPS}
    )
    best = 0.0
    for t2 in candidates:
        t1 = e * t - (e - 1.0) * t2
        w = left_sum(
            job.workload
            for job in instance.jobs
            if job.release <= t + _EPS
            and job.release >= t1 - _EPS
            and job.deadline <= t2 + _EPS
        )
        if w > 0.0:
            best = max(best, w / (e * (t2 - t)))
    return e * best


def run_bkp(instance: Instance, *, samples_per_interval: int = 32) -> Schedule:
    """Simulate BKP on a single processor (values ignored, all jobs finish).

    ``samples_per_interval`` controls the discretization of the
    continuously varying speed; 32 keeps the energy within a fraction of a
    percent of the continuous algorithm on the test families.
    """
    if instance.m != 1:
        raise InvalidParameterError(
            f"BKP is a single-processor algorithm; instance has m={instance.m}"
        )
    if samples_per_interval < 1:
        raise InvalidParameterError("samples_per_interval must be >= 1")
    ordered = instance.sorted_by_release()
    # The simulation reads the float columns. Int fields past 2**53
    # would meet float times in exact int/float comparisons that their
    # arithmetic does not keep: a deadline past ``now`` whose distance
    # from it rounds to 0.
    sim = Instance.from_arrays(ordered.arrays, m=ordered.m, alpha=ordered.alpha)
    events = ordered.event_times()
    remaining = {j: sim[j].workload for j in range(sim.n)}
    executed: list[tuple[int, float, float, float]] = []

    for k in range(events.size - 1):
        a, b = float(events[k]), float(events[k + 1])
        step = (b - a) / samples_per_interval
        for i in range(samples_per_interval):
            t0 = a + i * step
            t1 = t0 + step
            speed = bkp_speed(sim, t0)
            # Safety bump: never let discretization miss a deadline. The
            # required speed is the max density of remaining work over the
            # urgent horizon.
            urgent = _min_feasible_speed(sim, remaining, t0)
            speed = max(speed, urgent)
            if speed <= _EPS:
                continue
            _edf_slice(sim, remaining, executed, t0, t1, speed)

    finished = np.array(
        [remaining[j] <= max(_WORK_TOL, 1e-6 * sim[j].workload) for j in range(sim.n)]
    )
    return schedule_from_segments(ordered, executed, finished)


def _min_feasible_speed(
    instance: Instance, remaining: dict[int, float], now: float
) -> float:
    """Smallest constant speed that keeps all remaining deadlines feasible."""
    alive = [
        j
        for j in range(instance.n)
        if remaining[j] > _WORK_TOL and instance[j].release <= now + _EPS
    ]
    best = 0.0
    for j in alive:
        horizon = instance[j].deadline
        work = left_sum(
            remaining[i] for i in alive if instance[i].deadline <= horizon + _EPS
        )
        if horizon > now + _EPS:
            best = max(best, work / (horizon - now))
    return best


def _edf_slice(
    instance: Instance,
    remaining: dict[int, float],
    executed: list[tuple[int, float, float, float]],
    t0: float,
    t1: float,
    speed: float,
) -> None:
    """Process released work EDF at ``speed`` over ``[t0, t1)`` in place."""
    t = t0
    while t < t1 - _EPS:
        ready = [
            j
            for j in range(instance.n)
            if remaining[j] > _WORK_TOL
            and instance[j].release <= t + _EPS
            and instance[j].deadline > t + _EPS
        ]
        if not ready:
            break
        j = min(ready, key=lambda i: (instance[i].deadline, i))
        run_until = min(t1, t + remaining[j] / speed, instance[j].deadline)
        if run_until <= t + _EPS:
            break
        executed.append((j, t, run_until, speed))
        remaining[j] -= (run_until - t) * speed
        if remaining[j] < _WORK_TOL:
            remaining[j] = 0.0
        t = run_until


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


@register_algorithm(
    "bkp",
    online=True,
    multiprocessor=False,
    summary="Bansal-Kimbrel-Pruhs mirror algorithm (single processor)",
)
def _run_bkp_registered(instance):
    schedule = run_bkp(instance)
    return schedule, schedule
