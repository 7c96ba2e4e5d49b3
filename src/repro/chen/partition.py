"""Dedicated/pool partition of jobs within one atomic interval.

Chen et al.'s multiprocessor algorithm (ECRTS 2004), as used by the paper,
schedules a fixed work assignment inside an atomic interval ``T_k`` of
length ``l_k`` on ``m`` processors as follows. Let ``u_1 >= u_2 >= ... >=
u_p`` be the per-job workloads assigned to the interval (``u_j = x_{jk}
w_j``). Scanning from the largest, job ``j`` is *dedicated* iff

    ``j <= m``,  ``u_j > 0``,  and  ``u_j * (m - j) >= sum_{j' > j} u_{j'}``

(the paper's Equation (5); for ``j = m`` the condition degenerates to "no
other work remains"). Dedicated jobs run alone on their own processor at
the minimal feasible speed ``u_j / l_k``; all remaining *pool* jobs share
the remaining ``m - d`` processors at the common pool speed, which is
feasible by McNaughton's wrap-around rule because the stopping condition
guarantees every pool job fits into the interval.

The dedication scan is the structural primitive everything else in
:mod:`repro.chen` builds on, so it lives in its own module with a
vectorized implementation and a transparently-slow reference version used
for differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from ..types import FloatArray, IntArray

__all__ = ["IntervalPartition", "partition_loads", "partition_loads_reference"]

#: Loads below this are treated as zero (jobs with no work in the interval).
_LOAD_EPS = 1e-15


@dataclass(frozen=True)
class IntervalPartition:
    """The dedicated/pool structure of one atomic interval.

    Attributes
    ----------
    m:
        Number of processors.
    order:
        Indices into the *input* load vector, sorted by load descending
        (ties broken by input position for determinism).
    sorted_loads:
        Loads in descending order, ``sorted_loads[i] == loads[order[i]]``.
    num_dedicated:
        ``d = |psi(k)|`` — how many of the largest loads run on dedicated
        processors.
    pool_load:
        Total workload shared by the pool, ``sum of sorted_loads[d:]``.
    """

    m: int
    order: IntArray
    sorted_loads: FloatArray
    num_dedicated: int
    pool_load: float

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_pool_processors(self) -> int:
        """``m - d`` processors shared by pool jobs (may be 0 when d == m)."""
        return self.m - self.num_dedicated

    @property
    def pool_load_per_processor(self) -> float:
        """Workload each pool processor carries (0 when the pool is empty).

        With every processor dedicated, any residual pool load is
        tolerance dust from the dedication scan and reads as zero.
        """
        if self.num_pool_processors == 0 or self.pool_load <= _LOAD_EPS:
            return 0.0
        return self.pool_load / self.num_pool_processors

    def dedicated_ids(self) -> IntArray:
        """Input indices of the dedicated jobs (largest-first)."""
        return self.order[: self.num_dedicated]

    def pool_ids(self) -> IntArray:
        """Input indices of pool jobs that carry positive load."""
        tail = self.order[self.num_dedicated :]
        mask = self.sorted_loads[self.num_dedicated :] > _LOAD_EPS
        return tail[mask]

    def processor_loads(self) -> FloatArray:
        """Per-processor workloads, descending (length ``m``).

        The first ``d`` entries are the dedicated loads; the remaining
        ``m - d`` all equal the pool per-processor load. This is the
        quantity Proposition 2 of the paper reasons about.
        """
        out = np.empty(self.m, dtype=np.float64)
        d = self.num_dedicated
        out[:d] = self.sorted_loads[:d]
        out[d:] = self.pool_load_per_processor
        return out

    def speed_of(self, job_index: int, length: float) -> float:
        """Speed at which input job ``job_index`` runs in this interval."""
        rank = int(np.nonzero(self.order == job_index)[0][0])
        if rank < self.num_dedicated:
            return float(self.sorted_loads[rank]) / length
        if self.sorted_loads[rank] <= _LOAD_EPS:
            return 0.0
        return self.pool_load_per_processor / length


def partition_loads(loads: FloatArray, m: int) -> IntervalPartition:
    """Run the dedication scan of Equation (5) on a load vector.

    Parameters
    ----------
    loads:
        Per-job workloads assigned to the interval (any order, zeros
        allowed). Negative loads are rejected.
    m:
        Processor count, ``>= 1``.

    Notes
    -----
    The scan is the standard prefix walk: starting from the largest load,
    keep dedicating while ``u_j * (m - j) >= suffix_sum(j)``. Correctness
    of the prefix property (once a load fails the test, all smaller loads
    fail too) follows because both sides of the inequality move the wrong
    way as ``j`` increases. Runs in O(p log p) for the sort and O(min(p,
    m)) for the scan.
    """
    arr = np.ascontiguousarray(loads, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidParameterError(f"loads must be 1-D, got shape {arr.shape}")
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    if arr.size and float(arr.min()) < -_LOAD_EPS:
        raise InvalidParameterError("loads must be non-negative")

    # Stable sort on negated loads => descending by load, ties by position.
    order = np.argsort(-arr, kind="stable").astype(np.int64)
    sorted_loads = arr[order]

    # suffix[j] = sum of sorted_loads[j:], computed tail-first so each
    # entry is a fresh accumulation (ties then resolve consistently with
    # the literal reference implementation up to the relative tolerance).
    if arr.size:
        suffix = np.concatenate((np.cumsum(sorted_loads[::-1])[::-1], [0.0]))
    else:
        suffix = np.zeros(1)
    total = float(suffix[0])
    tol = _LOAD_EPS * max(1.0, total)

    d = 0
    limit = min(int(arr.size), m)
    for j in range(1, limit + 1):
        u = float(sorted_loads[j - 1])
        if u <= _LOAD_EPS:
            break
        if u * (m - j) >= float(suffix[j]) - tol:
            d = j
        else:
            break
    return IntervalPartition(
        m=m,
        order=order,
        sorted_loads=sorted_loads,
        num_dedicated=d,
        pool_load=max(float(suffix[d]), 0.0),
    )


def partition_loads_reference(loads: FloatArray, m: int) -> IntervalPartition:
    """Literal transcription of Equation (5), for differential testing.

    Evaluates the dedication predicate independently for every rank
    instead of using the prefix-scan shortcut, then checks the dedicated
    set is a prefix. Quadratic and slow — test use only.
    """
    arr = np.ascontiguousarray(loads, dtype=np.float64)
    order = np.argsort(-arr, kind="stable").astype(np.int64)
    sorted_loads = arr[order]
    tol = _LOAD_EPS * max(1.0, float(arr.sum()))
    flags = []
    for j in range(1, arr.size + 1):
        u = float(sorted_loads[j - 1])
        suffix = float(sorted_loads[j:].sum())
        ok = j <= m and u > _LOAD_EPS and (
            suffix <= tol if m == j else u >= suffix / (m - j) - tol
        )
        flags.append(ok)
    # Equation (5) defines a prefix: verify and count.
    d = 0
    for f in flags:
        if f:
            d += 1
        else:
            break
    pool = float(sorted_loads[d:].sum())
    return IntervalPartition(
        m=m, order=order, sorted_loads=sorted_loads, num_dedicated=d, pool_load=pool
    )
