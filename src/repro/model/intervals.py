"""Atomic time intervals and their online refinement.

Following Bingham & Greenstreet (and Section 2.1 of the paper), time is
partitioned into *atomic intervals* ``T_k = [tau_{k-1}, tau_k)`` whose
boundaries are exactly the release times and deadlines seen so far. Inside
an atomic interval the set of available jobs is constant, which is what
makes per-interval work assignments a complete description of a schedule.

An online algorithm does not know the final grid: when a new job arrives
its release/deadline may split existing intervals. The paper observes
(Section 3, "Concerning the Time Partitioning") that splitting an interval
and dividing assigned portions proportionally to the sub-lengths leaves
the schedule unchanged. :meth:`Grid.refine` implements exactly this and
returns the bookkeeping needed to remap per-interval arrays.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..errors import GridMismatchError, InvalidParameterError
from ..types import FloatArray, IntervalIndex, Time
from .job import Instance, Job

__all__ = ["Grid", "Refinement", "grid_for_instance"]

#: Two time points closer than this are considered identical breakpoints.
_TIME_EPS = 1e-12


@dataclass(frozen=True)
class Refinement:
    """Result of refining a grid with new breakpoints.

    Attributes
    ----------
    grid:
        The refined grid.
    parent:
        For each new interval index, the index of the old interval that
        contains it (``len == grid.size``). New intervals that lie outside
        the old grid's span have parent ``-1``.
    fraction:
        For each new interval, its length divided by its parent's length
        (1.0 for parent ``-1``). Splitting a per-interval quantity ``q_k``
        proportionally means assigning ``q_parent * fraction`` to each
        child — the paper's load-preserving split.
    """

    grid: "Grid"
    parent: np.ndarray
    fraction: FloatArray

    def split_row(self, row: FloatArray, *, fill: float = 0.0) -> FloatArray:
        """Remap a per-old-interval array onto the refined grid.

        ``row[k]`` is distributed over the children of old interval ``k``
        in proportion to their lengths; positions with no parent get
        ``fill``.
        """
        out = np.full(self.grid.size, fill, dtype=np.float64)
        mask = self.parent >= 0
        out[mask] = row[self.parent[mask]] * self.fraction[mask]
        return out

    def carry_row(self, row: FloatArray, *, fill: float = 0.0) -> FloatArray:
        """Remap a per-old-interval *intensive* array (e.g. a speed).

        Unlike :meth:`split_row`, the value is copied to every child
        unchanged — appropriate for quantities that do not scale with
        interval length.
        """
        out = np.full(self.grid.size, fill, dtype=np.float64)
        mask = self.parent >= 0
        out[mask] = row[self.parent[mask]]
        return out


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

    def availability(self, job: Job) -> np.ndarray:
        """Boolean mask ``c_{jk}``: interval ``k`` lies inside the job window."""
        mask = np.zeros(self.size, dtype=bool)
        mask[list(self.covering(job.release, job.deadline))] = True
        return mask

    def availability_matrix(self, instance: Instance) -> np.ndarray:
        """Full ``n x N`` boolean availability matrix for an instance.

        Requires every job window endpoint to be a grid boundary, i.e. the
        grid built by :func:`grid_for_instance`. Vectorized: one
        searchsorted per endpoint column and a broadcast range compare,
        instead of a Python covering() walk per job.
        """
        def aligned(col: np.ndarray, t: FloatArray) -> np.ndarray:
            hit = col < self.boundaries.size
            b_at = self.boundaries[np.minimum(col, self.boundaries.size - 1)]
            tol = _TIME_EPS * np.maximum(1.0, np.abs(t)) + _TIME_EPS
            return hit & (np.abs(b_at - t) <= tol)

        starts = instance.releases
        ends = instance.deadlines
        i = np.searchsorted(self.boundaries, starts - _TIME_EPS, side="left")
        j = np.searchsorted(self.boundaries, ends - _TIME_EPS, side="left")
        if not (aligned(i, starts).all() and aligned(j, ends).all()):
            # Fall back to the per-job path for the exact historical
            # error message on the first offending window.
            return np.stack(
                [self.availability(job) for job in instance.jobs], axis=0
            )
        span = np.arange(self.size)
        return (span >= i[:, None]) & (span < j[:, None])

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def fresh_points(self, new_points: Iterable[Time]) -> list[float]:
        """Sorted new breakpoints that do not snap to an existing
        boundary (nor to an earlier kept point), deduplicated with the
        grid tolerance — :func:`_fresh_points` on this grid."""
        return _fresh_points(self._points, new_points)

    def refine(self, new_points: Iterable[Time]) -> Refinement:
        """Insert breakpoints and report how old intervals split.

        Points outside the current span extend the grid (this happens when
        a newly released job's deadline exceeds the known horizon); the
        extension intervals have no parent. New points within tolerance of
        an existing boundary snap to it, so refinement never *moves* a
        boundary.

        Amortized-cheap by design: proximity checks are binary searches
        against the sorted boundary array (the nearest boundary minimizes
        the distance, so checking the two neighbours equals checking all),
        and the parent/fraction bookkeeping is one vectorized pass — the
        per-arrival refinement inside PD costs O(N) C-level work instead
        of the historical O(N log N) Python loop.
        """
        b = self.boundaries
        kept = self.fresh_points(new_points)
        if kept:
            merged = np.sort(
                np.concatenate((b, np.asarray(kept, dtype=np.float64)))
            )
        else:
            merged = b.copy()
        new = Grid(merged)
        starts = merged[:-1]
        ends = merged[1:]
        old_lo, old_hi = self.span
        # Exact comparisons: the merged grid holds the old span's end
        # points verbatim and every fresh point lies more than the
        # tolerance away from them, so only extension intervals reach
        # past the old span. (An ``old_hi + _TIME_EPS`` test rounds: a
        # fresh point a few ulps past the tolerance used to be read as
        # a split of the last interval, inventing load there.)
        outside = (starts < old_lo) | (ends > old_hi)
        parent = np.clip(
            np.searchsorted(b, starts, side="right") - 1, 0, self.size - 1
        ).astype(np.int64)
        fraction = (ends - starts) / self._lengths[parent]
        parent[outside] = -1
        fraction[outside] = 1.0
        return Refinement(grid=new, parent=parent, fraction=fraction)

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

    The one point classifier of every grid refinement: :meth:`Grid.refine`,
    PD's online grid and the epoch path's block check all call it, so
    the snapping rule cannot drift between them. A point within
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
