"""Incremental interval-load stores and the window kernel.

The primal-dual water-filling step asks one question, thousands of
times per run: *how much new load can each atomic interval of a job's
window absorb at a candidate speed?* The closed form
(:func:`repro.chen.interval_power.max_load_at_speed`) needs each
interval's loads **descending-sorted with suffix sums** — and the
historical implementation rebuilt that cache from the full ``(n, N)``
load matrix on every arrival: an O(n) sort-and-scan per interval per
job, which is exactly why the seed topped out around 200 jobs.

This module maintains the sorted structure *incrementally* across
arrivals instead:

* :class:`IntervalLoads` keeps one interval's positive loads in
  descending order in plain lists. Accepting a job is a sorted
  **insertion** (one C-level ``memmove``) that re-sums only the suffix
  head in front of the new load; splitting an interval on grid
  refinement is a **split-copy** (scale by the child fraction — order
  is preserved, so no re-sort). Suffix sums keep the exact
  accumulation order the reference path used, which keeps every query
  bit-identical. Each store also keeps its water-fill **levels** for
  a processor count (:meth:`IntervalLoads.levels`): derived on the
  first read after a change, dropped by the next ``insert``, so a
  fill reads them instead of re-deriving them. A PD run holds each
  accepted load here only: its planned loads are read off these
  stores.
* :class:`WindowKernel` is a view of the stores of one job's window
  and answers every query on them: ``total_at_speed`` /
  ``loads_at_speed`` for the water-fill (a one-interval kernel is the
  scalar water-level query of a single store),
  plus ``clearing_speed``, the exact speed at which the window total
  reaches a workload (a sweep over the total's at most ``m + 2`` slope
  changes per interval, read off the stores' levels). Each is a tight
  ``bisect``-based loop over the stores' lists: a fill makes at most
  three such passes (cap test, solve, placement), too few to repay
  copying the window into numpy arrays, even at hundreds of intervals.

Bit-parity notes (load-bearing, tested in ``tests/test_perf_kernels``):

* Dropping exact-zero loads is safe: descending sorts put zeros last,
  and trailing zeros contribute exact ``+0.0`` terms to the suffix
  cumsum, which cannot change any bit of any partial sum.
* Scaling a descending array by one positive fraction preserves order
  (monotone rounding), so a split-copy equals re-sorting the scaled
  column. Two loads the scaling rounds to one value keep their order,
  which need not be ``from_column``'s ascending ids; equal loads make
  the same sums, so no query tells them apart.
* An insert at position ``q`` leaves ``suffix[q:]`` bitwise as it was,
  shifted one place: the sums behind it add the same loads in the same
  tail-first order. Only ``suffix[0..q]`` is re-summed.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from ..errors import InvalidParameterError
from ..types import FloatArray

__all__ = ["IntervalLoads", "WindowKernel"]

#: Relative margin of the zero-work settle rule: a price cap ``s``
#: places no work in a window when ``s * _SETTLE_MARGIN`` is below the
#: least :func:`_opening_speed` of its intervals. The margin covers the
#: few roundings between an opening speed and the kernel's own
#: per-interval test ``target * (m - d) - suffix[d] > 0``.
_SETTLE_MARGIN = 1.0 + 1e-9

#: Opening levels and speeds under this read as 0 (open at any speed):
#: near the subnormal range rounding errors stop being relative, and
#: :data:`_SETTLE_MARGIN` would no longer cover them.
_OPEN_FLOOR = 2.0**-1000


class IntervalLoads:
    """One atomic interval's positive loads, sorted descending, live.

    Maintains three aligned structures: ``loads`` (descending),
    ``neg`` (``-loads``, ascending — the ``bisect`` key the water-level
    count uses), and ``ids`` (the owning job of each load). ``suffix``
    holds the suffix sums, ``suffix[d] == sum(loads[d:])``, with the
    same tail-first accumulation as
    :class:`repro.chen.interval_power.SortedLoads`. :meth:`levels`
    keeps the water-fill levels of the current loads.
    """

    __slots__ = ("loads", "neg", "ids", "suffix", "_levels")

    def __init__(self) -> None:
        self.loads: list[float] = []
        self.neg: list[float] = []
        self.ids: list[int] = []
        self.suffix: list[float] = [0.0]
        #: ``(m, t_open, t_clip, above, clipped)`` of the current loads
        #: (see :meth:`levels`), or None until read after a change.
        self._levels: tuple[int, float, float, int, int] | None = None

    def __len__(self) -> int:
        return len(self.loads)

    @classmethod
    def from_column(cls, column: FloatArray) -> "IntervalLoads":
        """Store over one interval's load column, indexed by job id.

        Zeros are skipped. Equal loads keep ascending id order, and the
        suffix is numpy's tail-first ``cumsum`` — the accumulation order
        of :meth:`insert` and :meth:`split` — so the store is
        bit-identical to inserting the positive loads one by one in id
        order.
        """
        ids = np.flatnonzero(column > 0.0)
        order = ids[np.argsort(-column[ids], kind="stable")]
        loads = column[order]
        store = cls.__new__(cls)
        store.loads = loads.tolist()
        store.neg = (-loads).tolist()
        store.ids = order.tolist()
        store.suffix = np.append(np.cumsum(loads[::-1])[::-1], 0.0).tolist()
        store._levels = None
        return store

    def insert(self, job_id: int, load: float) -> None:
        """Sorted insertion of one accepted load (O(p) memmove).

        Only the suffix sums in front of the new load are re-summed:
        ``suffix'[i] == suffix[i - 1]`` for every ``i`` past it.
        """
        if not (load > 0.0):
            raise InvalidParameterError(
                f"interval loads must be > 0, got {load}"
            )
        # bisect_right on the ascending negated key == stable descending
        # order: a new job (highest id) lands *after* equal loads, the
        # same tie order as the reference's stable argsort.
        pos = bisect_right(self.neg, -load)
        loads = self.loads
        loads.insert(pos, load)
        self.neg.insert(pos, -load)
        self.ids.insert(pos, job_id)
        suffix = self.suffix
        acc = suffix[pos] + load
        suffix.insert(pos, acc)
        for i in range(pos - 1, -1, -1):
            acc += loads[i]
            suffix[i] = acc
        self._levels = None

    def split(self, fraction: float) -> "IntervalLoads":
        """Split-copy for grid refinement: every load scaled once.

        Matches the reference's load-preserving split bit for bit: the
        child value is ``parent_load * fraction`` (a single multiply),
        and multiplying a descending array by one positive fraction
        keeps it descending, so no re-sort happens — or is needed.
        """
        child = IntervalLoads.__new__(IntervalLoads)
        child.loads = loads = [v * fraction for v in self.loads]
        child.neg = [-v for v in loads]
        child.ids = list(self.ids)
        # Tail-first accumulation — the exact operation order of
        # ``np.cumsum(loads[::-1])[::-1]`` in the reference cache.
        suffix = [0.0] * (len(loads) + 1)
        acc = 0.0
        for i in range(len(loads) - 1, -1, -1):
            acc += loads[i]
            suffix[i] = acc
        child.suffix = suffix
        child._levels = None
        return child

    def levels(self, m: int) -> tuple[int, float, float, int, int]:
        """The water-fill levels of these loads on ``m`` processors:
        ``(m, t_open, t_clip, above, clipped)``.

        ``t_open`` is :func:`_opening_level`, the load level at which
        the interval starts to absorb new load, and ``t_clip`` the level
        from which it absorbs the whole target; ``above`` and
        ``clipped`` count the loads above ``t_open`` and at or above
        ``t_clip`` (both are prefixes of the top m loads, see
        :meth:`WindowKernel.clearing_speed`). With fewer than m loads a
        processor is free: both levels are 0. Derived on the first read
        after a change and kept until the next one (or a read for
        another ``m``).
        """
        levels = self._levels
        if levels is not None and levels[0] == m:
            return levels
        neg = self.neg
        if len(neg) < m:
            levels = (m, 0.0, 0.0, len(neg), len(neg))
        else:
            suffix = self.suffix
            t_open = _opening_level(suffix, m)
            t_clip = math.inf
            for d in range(m - 1):
                level = suffix[d] / (m - 1 - d)
                if level < t_clip:
                    t_clip = level
            if t_clip < t_open:
                t_clip = t_open
            # Loads are descending: the top-m loads above t_open, and
            # those at or above t_clip, are prefixes of the row.
            above = bisect_left(neg, -t_open, 0, m)
            clipped = bisect_right(neg, -t_clip, 0, m)
            levels = (m, t_open, t_clip, above, clipped)
        self._levels = levels
        return levels


def _opening_level(suffix: list[float], m: int) -> float:
    """The load level ``t_open = min_{d<m} suffix[d] / (m - d)`` at
    which an interval starts to absorb new load.

    ``suffix`` is an :class:`IntervalLoads` suffix list. An interval
    with fewer than m loads has a free processor and opens at 0.
    """
    if len(suffix) <= m:
        return 0.0
    t_open = suffix[0] / m
    for d in range(1, m):
        level = suffix[d] / (m - d)
        if level < t_open:
            t_open = level
    return t_open


def _opening_speed(store: IntervalLoads, length: float, m: int) -> float:
    """The speed ``t_open / length`` below which an interval of
    ``length`` absorbs nothing: its :func:`_opening_level` as a speed,
    read off the store's :meth:`~IntervalLoads.levels`.

    Reads 0 where the level or the speed is under ``_OPEN_FLOOR``. The
    speed never falls when a load is inserted: each suffix sum can only
    grow (rounding is monotone), and so can their minimum.
    """
    t_open = store.levels(m)[1]
    speed = t_open / length
    if t_open < _OPEN_FLOOR or speed < _OPEN_FLOOR:
        return 0.0
    return speed


class WindowKernel:
    """View of one job window for the water-fill.

    Exposes the queries :func:`repro.core.waterfill.waterfill_job`
    asks — the window total and the per-interval loads at a candidate
    speed, and the clearing speed of a workload — as tight scalar loops
    over each store's sorted lists. It holds the caller's stores and
    lengths, not copies: a store changed under it answers with its new
    loads.
    """

    __slots__ = ("m", "lengths", "_stores")

    def __init__(
        self, stores: "list[IntervalLoads]", lengths: "list[float]", m: int
    ) -> None:
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m}")
        if len(stores) != len(lengths):
            raise InvalidParameterError(
                f"got {len(stores)} interval stores for {len(lengths)} lengths"
            )
        # One comparison per length: it rejects NaN wherever it sits,
        # which ``min(lengths) > 0.0`` does not, and it is cheaper than
        # ``min`` and ``sum`` on windows of a few intervals.
        for length in lengths:
            if not (length > 0.0):
                raise InvalidParameterError(
                    f"interval length must be > 0, got {length}"
                )
        self.m = m
        self.lengths = lengths
        self._stores = stores

    def __len__(self) -> int:
        return len(self.lengths)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_at_speed(self, speed: float) -> float:
        """Sum of the per-interval loads at ``speed``, accumulated left
        to right."""
        if speed <= 0.0:
            return 0.0
        total = 0.0
        m = self.m
        for store, length in zip(self._stores, self.lengths):
            target = speed * length
            d = bisect_left(store.neg, -target)
            if d >= m:
                continue
            z = target * (m - d) - store.suffix[d]
            if z > 0.0:
                total += z if z <= target else target
        return total

    def loads_at_speed(self, speed: float) -> list[float]:
        """Per-interval loads at ``speed`` (the final placement), one
        float per interval of the window."""
        if speed <= 0.0:
            return [0.0] * len(self.lengths)
        out: list[float] = []
        m = self.m
        for store, length in zip(self._stores, self.lengths):
            target = speed * length
            d = bisect_left(store.neg, -target)
            if d < m:
                z = target * (m - d) - store.suffix[d]
                if z > 0.0:
                    out.append(z if z <= target else target)
                    continue
            out.append(0.0)
        return out

    def clearing_speed(self, workload: float, s_cap: float) -> float:
        """Smallest speed whose window total reaches ``workload``, at most
        ``s_cap``: the water-fill's clearing speed, solved in closed form.

        Per interval, with target ``t = speed * length``, the query is
        ``z(t) = clip(f(t), 0, t)`` where
        ``f(t) = m*t - sum_i min(l_i, t) = max_d((m - d)*t - suffix[d])``.
        So ``z`` is piecewise linear: 0 up to ``t_open``, then ``f``
        (slope ``m - #{l_i > t}``, up by one at each top-m load it
        passes), then ``t`` itself from ``t_clip`` on. An interval with
        fewer than m loads has a free processor (``z = t`` from 0); with
        m = 1 the clip never comes. The window total is the sum of these
        pieces: sort the window's slope changes by speed, sweep the
        running total until it reaches ``workload``, and solve that
        linear segment.

        Each interval reads only its top m loads and its kept
        :meth:`~IntervalLoads.levels`.
        """
        m = self.m
        events: list[tuple[float, float]] = []
        for store, length in zip(self._stores, self.lengths):
            neg = store.neg
            if len(neg) < m:
                events.append((0.0, length))
                continue
            _, t_open, t_clip, above, clipped = store.levels(m)
            events.append((t_open / length, (m - above) * length))
            for i in range(clipped, above):
                events.append((-neg[i] / length, length))
            if m > 1:
                events.append((t_clip / length, (1 - m + clipped) * length))
        events.sort()
        total = slope = prev = 0.0
        for sigma, change in events:
            reached = total + slope * (sigma - prev)
            if reached >= workload:
                break
            total = reached
            slope += change
            prev = sigma
        if not (slope > 0.0):
            return s_cap
        return min(prev + (workload - total) / slope, s_cap)
