"""Atomic time intervals: the grid and its point helpers.

Following Bingham & Greenstreet (and Section 2.1 of the paper), time is
partitioned into *atomic intervals* ``T_k = [tau_{k-1}, tau_k)`` whose
boundaries are exactly the release times and deadlines seen so far. Inside
an atomic interval the set of available jobs is constant, which is what
makes per-interval work assignments a complete description of a schedule.

An online algorithm does not know the final grid: when a new job arrives
its release/deadline may split existing intervals. The paper observes
(Section 3, "Concerning the Time Partitioning") that splitting an interval
and dividing assigned portions proportionally to the sub-lengths leaves
the schedule unchanged. PD applies that split to its own interval
lists (:mod:`repro.core.pd`); the reference oracle in
:mod:`repro.perf.reference` applies it to dense matrices.

This module holds the :class:`Grid` itself and the point rules PD and
the epoch driver share with it: :func:`_fresh_points` (which new points
split an interval), :func:`_boundary_index` and :func:`_window`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..errors import GridMismatchError, InvalidParameterError
from ..types import FloatArray, IntervalIndex, Time
from .job import Instance

__all__ = ["Grid", "grid_for_instance"]

#: Two time points closer than this are considered identical breakpoints.
_TIME_EPS = 1e-12


@dataclass(frozen=True)
class Grid:
    """An ordered partition of ``[boundaries[0], boundaries[-1])``.

    ``boundaries`` is a strictly increasing float array of length
    ``size + 1``; interval ``k`` is ``[boundaries[k], boundaries[k+1])``.
    """

    boundaries: FloatArray

    def __post_init__(self) -> None:
        b = np.ascontiguousarray(self.boundaries, dtype=np.float64)
        if b.ndim != 1 or b.size < 2:
            raise InvalidParameterError(
                "a grid needs at least two boundaries (one interval)"
            )
        diffs = np.diff(b)
        if not np.all(diffs > _TIME_EPS):
            raise InvalidParameterError(
                "grid boundaries must be strictly increasing"
            )
        object.__setattr__(self, "boundaries", b)
        # Cache the interval lengths (immutable alongside the frozen
        # boundaries): ``lengths`` is read in every hot loop and
        # recomputing the diff per access costs O(N) each time.
        diffs.flags.writeable = False
        object.__setattr__(self, "_lengths", diffs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[Time]) -> "Grid":
        """Grid whose boundaries are the de-duplicated sorted ``points``."""
        uniq = _dedupe(sorted(points))
        return cls(np.array(uniq, dtype=np.float64))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @cached_property
    def _points(self) -> list[float]:
        """The boundaries as plain floats, for the bisect helpers below
        (built on first use: a grid that is never probed never pays)."""
        return self.boundaries.tolist()

    @property
    def size(self) -> int:
        """Number of atomic intervals ``N``."""
        return int(self.boundaries.size - 1)

    @property
    def lengths(self) -> FloatArray:
        """Array of interval lengths ``l_k`` (cached, read-only)."""
        return self._lengths

    @property
    def span(self) -> tuple[Time, Time]:
        """Overall covered range ``[tau_0, tau_N)``."""
        return (float(self.boundaries[0]), float(self.boundaries[-1]))

    def interval(self, k: IntervalIndex) -> tuple[Time, Time]:
        """The half-open interval ``T_k``."""
        return (float(self.boundaries[k]), float(self.boundaries[k + 1]))

    def length(self, k: IntervalIndex) -> float:
        """Length ``l_k`` of interval ``k``."""
        return float(self.boundaries[k + 1] - self.boundaries[k])

    def locate(self, t: Time) -> IntervalIndex:
        """Index of the interval containing time ``t``.

        Raises :class:`IndexError` when ``t`` is outside the grid span.
        The right endpoint is exclusive, matching ``[tau_{k-1}, tau_k)``.
        """
        lo, hi = self.span
        if t < lo - _TIME_EPS or t >= hi:
            raise IndexError(f"time {t} outside grid span [{lo}, {hi})")
        k = int(np.searchsorted(self.boundaries, t, side="right")) - 1
        return max(0, min(k, self.size - 1))

    def covering(self, start: Time, end: Time) -> range:
        """Indices of intervals fully inside ``[start, end)``.

        Both endpoints must be grid boundaries (they are, for any job
        window once its release/deadline have been inserted); otherwise a
        :class:`GridMismatchError` is raised to surface stale grids early.
        """
        return _window(self._points, start, end)

    def windows(self, instance: Instance) -> tuple[np.ndarray, np.ndarray]:
        """Every job's window as interval indices ``[first[j], stop[j])``.

        Requires every job window endpoint to be a grid boundary, i.e. the
        grid built by :func:`grid_for_instance`; the first misaligned
        window raises :class:`GridMismatchError`. Vectorized: one
        searchsorted per endpoint column, under the same alignment test
        as :meth:`covering`.
        """
        def aligned(col: np.ndarray, t: FloatArray) -> np.ndarray:
            hit = col < self.boundaries.size
            b_at = self.boundaries[np.minimum(col, self.boundaries.size - 1)]
            tol = _TIME_EPS * np.maximum(1.0, np.abs(t)) + _TIME_EPS
            return hit & (np.abs(b_at - t) <= tol)

        starts = instance.releases
        ends = instance.deadlines
        first = np.searchsorted(self.boundaries, starts - _TIME_EPS, side="left")
        stop = np.searchsorted(self.boundaries, ends - _TIME_EPS, side="left")
        ok = aligned(first, starts) & aligned(stop, ends)
        if not ok.all():
            # covering() makes the same float test, so it raises the
            # canonical error for the first misaligned window.
            j = int(np.argmin(ok))
            self.covering(float(starts[j]), float(ends[j]))
        return first, stop

    def availability_matrix(self, instance: Instance) -> np.ndarray:
        """Full ``n x N`` boolean availability matrix for an instance:
        the :meth:`windows` as a broadcast range compare."""
        first, stop = self.windows(instance)
        span = np.arange(self.size)
        return (span >= first[:, None]) & (span < stop[:, None])

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def same_as(self, other: "Grid", *, tol: float = _TIME_EPS) -> bool:
        """Whether two grids have identical boundaries up to ``tol``."""
        return self.boundaries.size == other.boundaries.size and bool(
            np.allclose(self.boundaries, other.boundaries, atol=tol, rtol=0.0)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.span
        return f"Grid(N={self.size}, span=[{lo:g}, {hi:g}))"


def grid_for_instance(instance: Instance) -> Grid:
    """The paper's atomic-interval partition for a full (offline) instance.

    Boundaries are all distinct release times and deadlines; with ``n``
    jobs there are at most ``2n - 1`` intervals.
    """
    if instance.n == 0:
        raise InvalidParameterError("cannot build a grid for an empty instance")
    return Grid.from_points(instance.event_times())


def _dedupe(sorted_points: Sequence[float]) -> list[float]:
    """Drop points closer than ``_TIME_EPS`` to their predecessor."""
    out: list[float] = []
    for p in sorted_points:
        if not out or p - out[-1] > _TIME_EPS:
            out.append(float(p))
    return out


def _fresh_points(bounds: Sequence[float], new_points: Iterable[Time]) -> list[float]:
    """Sorted ``new_points`` that do not snap to ``bounds``, deduplicated.

    The one point classifier of every grid refinement: PD's online
    grid, the epoch path's block check and the reference oracle's
    refinement all call it, so the snapping rule cannot drift between
    them. A point within
    ``_TIME_EPS`` of its nearest boundary snaps (the sorted list's
    neighbours minimize the distance, so checking both neighbours
    equals checking all); fresh points are >eps from every boundary,
    hence no boundary can sit between two near-identical fresh points
    and fresh-only deduplication equals deduplicating the combined list.
    """
    size = len(bounds)
    fresh: list[float] = []
    for p in sorted(float(p) for p in new_points):
        i = bisect_left(bounds, p)
        near = (i < size and bounds[i] - p <= _TIME_EPS) or (
            i > 0 and p - bounds[i - 1] <= _TIME_EPS
        )
        if near or (fresh and p - fresh[-1] <= _TIME_EPS):
            continue
        fresh.append(p)
    return fresh


def _boundary_index(bounds: Sequence[float], t: Time) -> int | None:
    """Index of ``t`` within ``bounds`` (up to tolerance), else None."""
    i = bisect_left(bounds, t - _TIME_EPS)
    if i < len(bounds) and abs(bounds[i] - t) <= _TIME_EPS * max(1.0, abs(t)) + _TIME_EPS:
        return i
    return None


def _window(bounds: Sequence[float], start: Time, end: Time) -> range:
    """Indices of the intervals of ``bounds`` inside ``[start, end)``.

    Both endpoints must be boundaries up to the :func:`_boundary_index`
    tolerance; otherwise a :class:`GridMismatchError` surfaces the stale
    grid. :meth:`Grid.covering` and PD's online grid both call it.
    """
    i = _boundary_index(bounds, start)
    j = _boundary_index(bounds, end)
    if i is None or j is None:
        raise GridMismatchError(
            f"window [{start}, {end}) is not aligned with the grid; "
            "refine the grid with these endpoints first"
        )
    return range(i, j)
