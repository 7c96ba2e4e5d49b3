"""Turning time-resolved executions into :class:`Schedule` objects.

Online executors (OA, AVR, BKP, qOA, CLL, multiprocessor OA) naturally
produce chronological ``(job, start, end, speed)`` segments, possibly with
speed changes at times that are not instance event points. To express the
result as a :class:`~repro.model.schedule.Schedule` *without distorting
its energy*, we refine the instance grid with every segment boundary: in
each refined interval every job then runs at one constant speed on one
processor, and the minimal-energy value ``P_k`` of the per-interval loads
coincides with the energy actually spent (at most ``m`` jobs occupy an
interval, in which case Chen's partition dedicates all of them).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import InfeasibleScheduleError
from ..model.intervals import Grid
from ..model.job import Instance
from ..model.schedule import Schedule
from ..types import FloatArray

__all__ = ["schedule_from_segments", "loads_from_segments"]

_EPS = 1e-12


def schedule_from_segments(
    instance: Instance,
    segments: Sequence[tuple[int, float, float, float]],
    finished: Sequence[bool] | np.ndarray,
) -> Schedule:
    """Build a schedule whose grid is refined by all segment boundaries.

    Parameters
    ----------
    instance:
        The instance the segments serve.
    segments:
        ``(job, start, end, speed)`` executions. Segments of the same job
        must not overlap in time (not checked here — the validator in
        :mod:`repro.model.validation` covers realizations).
    finished:
        The executor's claim of which jobs completed.
    """
    points = set(instance.event_times().tolist())
    for _, start, end, _ in segments:
        points.add(float(start))
        points.add(float(end))
    grid = Grid.from_points(points)
    return Schedule(
        instance=instance,
        grid=grid,
        loads=loads_from_segments(instance.n, grid, segments),
        finished=np.ascontiguousarray(finished, dtype=bool),
    )


def loads_from_segments(
    n: int, grid: Grid, segments: Sequence[tuple[int, float, float, float]]
) -> FloatArray:
    """The ``(n, grid.size)`` load matrix of ``(job, start, end, speed)``
    segments: each segment's work splits over the intervals it overlaps.

    A segment no longer than ``_EPS`` places no work (no overlap of it
    is longer), so it is skipped before its job id is checked.
    """
    loads = np.zeros((n, grid.size))
    bounds = grid.boundaries
    for job, start, end, speed in segments:
        if end <= start + _EPS:
            continue
        if not (0 <= job < n):
            raise InfeasibleScheduleError(f"segment for unknown job {job}")
        k0 = grid.locate(start)
        # The last interval that starts before ``end``. Not
        # ``locate(end - _EPS)``: at large times ``end - _EPS`` rounds
        # back to ``end``, and the grid's last point lies outside it.
        k1 = min(int(np.searchsorted(bounds, end, side="left")), grid.size) - 1
        for k in range(k0, k1 + 1):
            lo = max(start, float(bounds[k]))
            hi = min(end, float(bounds[k + 1]))
            if hi > lo + _EPS:
                loads[job, k] += (hi - lo) * speed
    return loads
