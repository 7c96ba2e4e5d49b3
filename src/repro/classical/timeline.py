"""Disjoint-interval time sets and EDF execution inside them.

Two pieces of machinery shared by the classical algorithms:

* :class:`IntervalSet` — an immutable union of disjoint half-open
  intervals with union, subtraction, and window-restricted measure.
  YDS freezes critical regions as interval sets; OA executes plans over
  them.
* :func:`edf_execute` — run a set of jobs earliest-deadline-first at a
  constant speed inside an interval set, producing time-resolved
  ``(job, start, end, speed)`` segments. Used to realize YDS critical
  groups and to drive online executors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import InfeasibleScheduleError, InvalidParameterError

__all__ = ["IntervalSet", "edf_execute"]

_EPS = 1e-12


@dataclass(frozen=True)
class IntervalSet:
    """An immutable union of disjoint, sorted, half-open intervals."""

    parts: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev_end = -float("inf")
        for a, b in self.parts:
            if b <= a + _EPS:
                raise InvalidParameterError(f"degenerate interval [{a}, {b})")
            if a < prev_end - _EPS:
                raise InvalidParameterError("interval parts must be disjoint and sorted")
            prev_end = b

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(parts=())

    @classmethod
    def span(cls, a: float, b: float) -> "IntervalSet":
        return cls(parts=((float(a), float(b)),))

    @classmethod
    def from_parts(cls, parts: Iterable[tuple[float, float]]) -> "IntervalSet":
        """Normalize arbitrary (possibly touching) parts into canonical form."""
        merged: list[list[float]] = []
        for a, b in sorted((float(a), float(b)) for a, b in parts):
            if b <= a + _EPS:
                continue
            if merged and a <= merged[-1][1] + _EPS:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(parts=tuple((a, b) for a, b in merged))

    # ------------------------------------------------------------------
    # Measure
    # ------------------------------------------------------------------
    def measure_within(self, lo: float, hi: float) -> float:
        """Length of the intersection with ``[lo, hi)``."""
        total = 0.0
        for a, b in self.parts:
            total += max(0.0, min(b, hi) - max(a, lo))
        return total

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_parts(list(self.parts) + list(other.parts))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """This set minus ``other``."""
        result: list[tuple[float, float]] = []
        for a, b in self.parts:
            pieces = [(a, b)]
            for c, d in other.parts:
                next_pieces: list[tuple[float, float]] = []
                for x, y in pieces:
                    if d <= x + _EPS or c >= y - _EPS:
                        next_pieces.append((x, y))
                        continue
                    if c > x + _EPS:
                        next_pieces.append((x, c))
                    if d < y - _EPS:
                        next_pieces.append((d, y))
                pieces = next_pieces
            result.extend(pieces)
        return IntervalSet.from_parts(result)


def edf_execute(
    *,
    job_ids: Sequence[int],
    releases: Sequence[float],
    deadlines: Sequence[float],
    workloads: Sequence[float],
    region: IntervalSet,
    speed: float,
    work_tol: float = 1e-9,
) -> list[tuple[int, float, float, float]]:
    """Run jobs EDF at constant ``speed`` inside ``region``.

    The sweep subdivides the region at release times, then repeatedly runs
    the released, unfinished job with the earliest deadline. Segments are
    emitted whenever the running job changes. Feasibility (every job done
    by its deadline) is *checked*, not assumed: an
    :class:`InfeasibleScheduleError` means the caller's speed was too low,
    which for YDS critical groups would indicate a bug upstream.
    """
    if speed <= 0.0:
        raise InvalidParameterError(f"speed must be > 0, got {speed}")
    n = len(job_ids)
    if not (n == len(releases) == len(deadlines) == len(workloads)):
        raise InvalidParameterError("job attribute sequences must align")

    remaining = {job_ids[i]: float(workloads[i]) for i in range(n)}
    rel = {job_ids[i]: float(releases[i]) for i in range(n)}
    dl = {job_ids[i]: float(deadlines[i]) for i in range(n)}

    # Subdivide region parts at release times so availability only changes
    # at piece boundaries.
    cut_points = sorted({r for r in rel.values()})
    pieces: list[tuple[float, float]] = []
    for a, b in region.parts:
        cuts = [a] + [t for t in cut_points if a < t < b] + [b]
        pieces.extend((cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1))

    # EDF selection through a lazy-deletion heap keyed (deadline, id) —
    # the same minimum the historical O(n) ready-rescan computed each
    # step. Every release inside a region part is a piece boundary, so
    # jobs become ready only at piece starts; the release pointer walks
    # the release-sorted job list once.
    by_release = sorted(range(n), key=lambda i: (rel[job_ids[i]], job_ids[i]))
    release_ptr = 0
    heap: list[tuple[float, int]] = []

    segments: list[tuple[int, float, float, float]] = []
    for a, b in pieces:
        t = a
        while release_ptr < n:
            j = job_ids[by_release[release_ptr]]
            if rel[j] > t + _EPS:
                break
            if remaining[j] > work_tol:
                heapq.heappush(heap, (dl[j], j))
            release_ptr += 1
        while t < b - _EPS:
            while heap and remaining[heap[0][1]] <= work_tol:
                heapq.heappop(heap)
            if not heap:
                break
            j = heap[0][1]
            finish_in = remaining[j] / speed
            run_until = min(b, t + finish_in)
            if run_until <= t + _EPS:
                remaining[j] = 0.0
                continue
            segments.append((j, t, run_until, speed))
            remaining[j] -= (run_until - t) * speed
            if remaining[j] <= work_tol:
                remaining[j] = 0.0
            t = run_until

    unfinished = {j: w for j, w in remaining.items() if w > max(work_tol, 1e-6 * speed)}
    if unfinished:
        raise InfeasibleScheduleError(
            f"EDF at speed {speed} left work unfinished: {unfinished}"
        )
    # Deadline check: every segment of a job must end by its deadline.
    for j, a, b, _ in segments:
        if b > dl[j] + 1e-7:
            raise InfeasibleScheduleError(
                f"EDF ran job {j} past its deadline {dl[j]} (until {b})"
            )
    return _merge_adjacent(segments)


def _merge_adjacent(
    segments: list[tuple[int, float, float, float]]
) -> list[tuple[int, float, float, float]]:
    """Merge back-to-back segments of the same job at the same speed."""
    segments = sorted(segments, key=lambda s: (s[1], s[0]))
    out: list[tuple[int, float, float, float]] = []
    for seg in segments:
        if (
            out
            and out[-1][0] == seg[0]
            and abs(out[-1][2] - seg[1]) <= _EPS
            and abs(out[-1][3] - seg[3]) <= _EPS
        ):
            out[-1] = (seg[0], out[-1][1], seg[2], seg[3])
        else:
            out.append(seg)
    return out
