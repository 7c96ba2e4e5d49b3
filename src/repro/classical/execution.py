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

from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from ..errors import InfeasibleScheduleError
from ..model.intervals import _TIME_EPS, Grid
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
    grid = _segment_grid(instance, segments)
    return Schedule(
        instance=instance,
        grid=grid,
        loads=loads_from_segments(instance.n, grid, segments),
        finished=np.ascontiguousarray(finished, dtype=bool),
    )


def _segment_grid(
    instance: Instance, segments: Sequence[tuple[int, float, float, float]]
) -> Grid:
    """The instance's event times refined by every segment boundary."""
    points = set(instance.event_times().tolist())
    for _, start, end, _ in segments:
        points.add(float(start))
        points.add(float(end))
    return Grid.from_points(points)


def loads_from_segments(
    n: int, grid: Grid, segments: Sequence[tuple[int, float, float, float]]
) -> FloatArray:
    """The ``(n, grid.size)`` load matrix of ``(job, start, end, speed)``
    segments: each segment's work splits over the intervals it overlaps.

    A segment no longer than ``_EPS`` places no work (no overlap of it
    is longer), so it is skipped before its job id is checked; a start
    outside the grid raises :meth:`Grid.locate`'s ``IndexError``. The
    interval lookups ``bisect`` the grid's boundary floats, each
    ``(job, interval)`` cell sums its overlaps in segment order on
    Python floats (the additions a numpy ``+=`` per overlap makes), and
    the cells are written with one fancy assignment.
    """
    points = grid._points
    size = grid.size
    lo_span = points[0] - _TIME_EPS
    hi_span = points[-1]
    cells: dict[tuple[int, int], float] = {}
    for job, start, end, speed in segments:
        if end <= start + _EPS:
            continue
        if not (0 <= job < n):
            raise InfeasibleScheduleError(f"segment for unknown job {job}")
        if start < lo_span or start >= hi_span:
            grid.locate(start)  # raises the canonical IndexError
        k0 = min(max(bisect_right(points, start) - 1, 0), size - 1)
        # The last interval that starts before ``end``. Not
        # ``locate(end - _EPS)``: at large times ``end - _EPS`` rounds
        # back to ``end``, and the grid's last point lies outside it.
        k1 = min(bisect_left(points, end), size) - 1
        for k in range(k0, k1 + 1):
            lo = max(start, points[k])
            hi = min(end, points[k + 1])
            if hi > lo + _EPS:
                cell = (job, k)
                cells[cell] = cells.get(cell, 0.0) + (hi - lo) * speed
    loads = np.zeros((n, size))
    if cells:
        jobs, ks = zip(*cells)
        loads[jobs, ks] = list(cells.values())
    return loads
