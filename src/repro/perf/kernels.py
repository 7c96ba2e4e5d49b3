"""Incremental interval-load stores and the batched window kernel.

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
  descending order inside a preallocated, grown-by-doubling array.
  Accepting a job is a sorted **insertion** (one C-level ``memmove``);
  splitting an interval on grid refinement is a **split-copy** (scale
  by the child fraction — order is preserved, so no re-sort); suffix
  sums are rebuilt with the exact accumulation order the reference
  path used, which keeps every query bit-identical.
* :class:`WindowKernel` freezes the stores of one job's window and
  answers ``total_at_speed`` / ``loads_at_speed`` for the bisection.
  Wide windows are evaluated in one batched numpy call (padded load
  matrix, vectorized water-level counts, sequential-``cumsum`` total so
  the sum order matches the reference's left-to-right Python sum);
  narrow windows — the common case, where numpy dispatch overhead
  would dominate — use a tight ``bisect``-based scalar loop over the
  same data. Both paths produce bit-identical floats.

Bit-parity notes (load-bearing, tested in ``tests/test_perf_kernels``):

* Dropping exact-zero loads is safe: descending sorts put zeros last,
  and trailing zeros contribute exact ``+0.0`` terms to the suffix
  cumsum, which cannot change any bit of any partial sum.
* Scaling a descending array by one positive fraction preserves order
  (monotone rounding), so a split-copy equals re-sorting the scaled
  column.
* ``numpy.cumsum`` accumulates strictly left to right — unlike
  ``numpy.sum``'s pairwise reduction — so ``cumsum(z)[-1]`` equals the
  reference's sequential Python ``sum`` bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from ..errors import InvalidParameterError
from ..types import FloatArray

__all__ = ["IntervalLoads", "WindowKernel"]

#: Window width at which the batched numpy evaluation beats the scalar
#: loop (below it, per-call dispatch overhead dominates the ~K floats
#: of actual work). Both paths are bit-identical; this is pure tuning.
_VECTOR_MIN_INTERVALS = 32


class IntervalLoads:
    """One atomic interval's positive loads, sorted descending, live.

    Maintains three aligned structures: ``loads`` (descending),
    ``neg`` (``-loads``, ascending — the ``bisect`` key the water-level
    count uses), and ``ids`` (the owning job of each load). ``suffix``
    holds the suffix sums, ``suffix[d] == sum(loads[d:])``, rebuilt
    after every mutation with the same tail-first accumulation as
    :class:`repro.chen.interval_power.SortedLoads`.
    """

    __slots__ = ("loads", "neg", "ids", "suffix")

    def __init__(self) -> None:
        self.loads: list[float] = []
        self.neg: list[float] = []
        self.ids: list[int] = []
        self.suffix: list[float] = [0.0]

    def __len__(self) -> int:
        return len(self.loads)

    def insert(self, job_id: int, load: float) -> None:
        """Sorted insertion of one accepted load (O(p) memmove)."""
        if not (load > 0.0):
            raise InvalidParameterError(
                f"interval loads must be > 0, got {load}"
            )
        # bisect_right on the ascending negated key == stable descending
        # order: a new job (highest id) lands *after* equal loads, the
        # same tie order as the reference's stable argsort.
        pos = bisect_right(self.neg, -load)
        self.loads.insert(pos, load)
        self.neg.insert(pos, -load)
        self.ids.insert(pos, job_id)
        self._rebuild_suffix()

    def insert_deferred(self, job_id: int, load: float) -> None:
        """Sorted insertion with the suffix rebuild deferred.

        The epoch-batched execution layer accepts many jobs between two
        suffix reads, so rebuilding after every insert repeats O(p) work
        that the next insert throws away. This variant updates only the
        sorted ``loads``/``neg``/``ids`` triplet — identical to
        :meth:`insert`, insertion order and all — and leaves ``suffix``
        stale; the caller must invoke :meth:`flush_suffix` before the
        next suffix read. The flushed suffix is a pure function of the
        final ``loads`` list, so coalescing rebuilds cannot change a
        bit of any subsequent query.
        """
        if not (load > 0.0):
            raise InvalidParameterError(
                f"interval loads must be > 0, got {load}"
            )
        pos = bisect_right(self.neg, -load)
        self.loads.insert(pos, load)
        self.neg.insert(pos, -load)
        self.ids.insert(pos, job_id)

    def flush_suffix(self) -> None:
        """Rebuild the suffix sums after deferred insertions."""
        self._rebuild_suffix()

    def split(self, fraction: float) -> "IntervalLoads":
        """Split-copy for grid refinement: every load scaled once.

        Matches the reference's load-preserving split bit for bit: the
        child value is ``parent_load * fraction`` (a single multiply),
        and multiplying a descending array by one positive fraction
        keeps it descending, so no re-sort happens — or is needed.
        """
        child = IntervalLoads.__new__(IntervalLoads)
        child.loads = [v * fraction for v in self.loads]
        child.neg = [-v for v in child.loads]
        child.ids = list(self.ids)
        child._rebuild_suffix()
        return child

    def _rebuild_suffix(self) -> None:
        # Tail-first accumulation — the exact operation order of
        # ``np.cumsum(loads[::-1])[::-1]`` in the reference cache.
        suffix = [0.0] * (len(self.loads) + 1)
        acc = 0.0
        for i in range(len(self.loads) - 1, -1, -1):
            acc += self.loads[i]
            suffix[i] = acc
        self.suffix = suffix

    def max_load_at_speed(self, target_speed: float, m: int, length: float) -> float:
        """Scalar water-level query; bit-identical to ``SortedLoads``."""
        if target_speed <= 0.0:
            return 0.0
        target_load = target_speed * length
        d = bisect_left(self.neg, -target_load)
        if d >= m:
            return 0.0
        z = target_load * (m - d) - self.suffix[d]
        if z <= 0.0:
            return 0.0
        return z if z <= target_load else target_load


class WindowKernel:
    """Frozen view of one job window for the water-filling bisection.

    Exposes the two queries :func:`repro.core.waterfill.waterfill_job`
    hammers on — the window total and the per-interval load vector at a
    candidate speed — evaluated either by a batched numpy pass (wide
    windows) or a tight scalar loop (narrow ones), bit-identically.
    """

    __slots__ = (
        "m",
        "lengths",
        "_neg",
        "_suffix",
        "_scalar",
        "_loads_mat",
        "_suffix_mat",
        "_lengths_arr",
        "_rows",
    )

    def __init__(
        self, stores: "list[IntervalLoads]", lengths: "list[float]", m: int
    ) -> None:
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m}")
        if len(stores) != len(lengths):
            raise InvalidParameterError(
                f"got {len(stores)} interval stores for {len(lengths)} lengths"
            )
        for length in lengths:
            if not (length > 0.0):
                raise InvalidParameterError(
                    f"interval length must be > 0, got {length}"
                )
        self.m = m
        self.lengths = [float(length) for length in lengths]
        self._neg = [store.neg for store in stores]
        self._suffix = [store.suffix for store in stores]
        # The scalar loop's working set, zipped once: the bisection
        # calls total_at_speed dozens of times per arrival.
        self._scalar = list(zip(self._neg, self._suffix, self.lengths))
        self._loads_mat = None
        self._suffix_mat = None
        self._lengths_arr = None
        self._rows = None
        if len(stores) >= _VECTOR_MIN_INTERVALS:
            width = max((len(store) for store in stores), default=0)
            loads_mat = np.zeros((len(stores), width), dtype=np.float64)
            suffix_mat = np.zeros((len(stores), width + 1), dtype=np.float64)
            for i, store in enumerate(stores):
                p = len(store)
                loads_mat[i, :p] = store.loads
                suffix_mat[i, : p + 1] = store.suffix
            self._loads_mat = loads_mat
            self._suffix_mat = suffix_mat
            self._lengths_arr = np.asarray(self.lengths, dtype=np.float64)
            self._rows = np.arange(len(stores))

    def __len__(self) -> int:
        return len(self.lengths)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _vector_loads(self, speed: float) -> FloatArray:
        """Per-interval loads via one batched numpy pass (wide windows)."""
        target = speed * self._lengths_arr
        d = (self._loads_mat > target[:, None]).sum(axis=1)
        z = target * (self.m - d) - self._suffix_mat[self._rows, d]
        z = np.minimum(np.maximum(z, 0.0), target)
        z[d >= self.m] = 0.0
        return z

    def total_at_speed(self, speed: float) -> float:
        """Sum of ``max_load_at_speed`` over the window's intervals.

        The batched path totals with ``cumsum`` (strictly sequential)
        rather than ``np.sum`` (pairwise), so the accumulation order —
        and therefore every bit — matches the reference's left-to-right
        Python ``sum`` over per-interval queries.
        """
        if speed <= 0.0:
            return 0.0
        if self._loads_mat is not None:
            z = self._vector_loads(speed)
            return float(z.cumsum()[-1]) if z.size else 0.0
        total = 0.0
        m = self.m
        for neg, suffix, length in self._scalar:
            target = speed * length
            d = bisect_left(neg, -target)
            if d >= m:
                continue
            z = target * (m - d) - suffix[d]
            if z > 0.0:
                total += z if z <= target else target
        return total

    def loads_at_speed(self, speed: float) -> FloatArray:
        """Per-interval load vector at ``speed`` (the final placement)."""
        if self._loads_mat is not None:
            if speed <= 0.0:
                return np.zeros(len(self.lengths), dtype=np.float64)
            return np.asarray(self._vector_loads(speed), dtype=np.float64)
        out = np.zeros(len(self.lengths), dtype=np.float64)
        if speed <= 0.0:
            return out
        m = self.m
        for i, (neg, suffix, length) in enumerate(
            zip(self._neg, self._suffix, self.lengths)
        ):
            target = speed * length
            d = bisect_left(neg, -target)
            if d >= m:
                continue
            z = target * (m - d) - suffix[d]
            if z > 0.0:
                out[i] = z if z <= target else target
        return out
