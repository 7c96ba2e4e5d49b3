"""Arrival-epoch layer of the primal-dual scheduler.

:class:`~repro.core.pd.PDScheduler` runs every arrival through one
scalar core: a fresh-point probe, a window lookup, a
:class:`~repro.perf.kernels.WindowKernel` build and a water-fill per
job. At the million-job tier the interpreter overhead of that
choreography dwarfs the actual water-filling arithmetic.

This module is what :meth:`~repro.core.pd.PDScheduler.arrive_many`
runs: it replays the identical per-arrival semantics in **epochs**,
blocks of consecutive arrivals consumed straight off the
:class:`~repro.model.job_arrays.JobArrays` columns, with the per-job
bookkeeping hoisted into batched numpy passes:

* **release-order check** — one ``np.maximum.accumulate`` running-max
  pass per block (same tolerance, same error message, raised at the
  same prefix position as the sequential loop);
* **refinement scan** — the :func:`~repro.model.intervals._fresh_points`
  nearness test, vectorized over every window endpoint in the block.
  Blocks are *split at the first refining arrival*: that job runs the
  scheduler's scalar core (grid refinement included), everything
  before it is batched against a grid that provably does not change
  under it. A
  block whose first arrival refines is told so by the scalar classifier
  on the scheduler's boundary list, so the numpy ``Grid`` this scan
  reads is built at most once per refinement. In steady state (the grid
  has converged to the workload's breakpoints) blocks run at full width;
* **window lookup** — one vectorized ``np.searchsorted`` for every
  window endpoint in the block, replicating the exact
  ``_boundary_index`` tolerance semantics of ``Grid.covering``;
* **batched price caps** — every arrival's cap
  ``derivative_inverse(v / (delta * w))`` in one pass per block,
  float for float what the scalar
  :func:`~repro.core.waterfill.price_cap` returns; the rows it solves
  in log space are left to it (:func:`_price_caps`);
* **zero-work settle** — most arrivals at scale are rejected at their
  value because no interval of their window opens at their price cap.
  The scheduler keeps each interval's opening speed
  (:func:`~repro.perf.kernels._opening_speed`), and an arrival with
  ``cap * _SETTLE_MARGIN < min(opens[i0:j0])`` is settled: reject at
  value, speed = cap, nothing placed, no state mutation — the reference
  outcome, without a ``WindowKernel`` or a water-fill. One
  ``minimum.reduceat`` over the block-start speeds settles most
  arrivals at once (an insert never lowers an opening speed); the rest
  take one list ``min`` against the live speeds, which accepts earlier
  in the block have raised. What neither settles asks the reference
  kernel's own per-interval question at the cap,
  ``target*(m-d) - suffix[d] > 0``, and an all-zero answer is the same
  reject;
* **store upkeep** — an accept inserts into the live stores (each
  insert rebuilds that store's suffix) and refreshes their opening
  speeds; grid refinement keeps the speeds current too;
* **columnar decisions** — accepted/lam/speed/planned-work land in
  the scheduler's decision columns, and the fed block is stored by
  reference; ``JobDecision``/``Instance`` objects materialize once, in
  ``finish()``.

A job that opens some interval runs the *reference* scalar water-fill
(:func:`repro.core.waterfill.waterfill_job` over a ``WindowKernel`` of
the live stores) — the same floats in the same order — so decisions,
load stores, planned loads, certificates, record payloads, and cache
keys are byte-identical to feeding the rows one ``arrive()`` at a
time. The differential suite (``tests/test_epochs.py``) asserts exactly
that, and ``repro lint`` pins every public name here to its reference
twin
(:data:`repro.perf.reference.PARITY_PAIRS`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from ..core.waterfill import price_cap, waterfill_job
from ..errors import InvalidParameterError
from ..model.intervals import _TIME_EPS, _fresh_points
from ..model.power import PolynomialPower
from .kernels import _SETTLE_MARGIN, WindowKernel

if TYPE_CHECKING:
    from ..core.pd import PDScheduler
    from ..model.job_arrays import JobArrays
    from ..model.power import PowerFunction

__all__ = ["DEFAULT_EPOCH_SIZE", "arrive_epochs"]

#: Default arrival-epoch block length: large enough to amortize the
#: per-block numpy passes over thousands of arrivals. Pure tuning — the
#: block length never changes a decision.
DEFAULT_EPOCH_SIZE = 2048


def arrive_epochs(
    scheduler: PDScheduler,
    arrays: JobArrays,
    *,
    epoch_size: int = DEFAULT_EPOCH_SIZE,
) -> None:
    """Feed every job of ``arrays`` to ``scheduler`` in vectorized epochs.

    Mutates ``scheduler`` (a :class:`~repro.core.pd.PDScheduler`) into
    exactly the state the sequential ``for i: scheduler.arrive(arrays.job(i))``
    loop would produce — same grid, same stores, same planned loads,
    same decisions — while storing the block by reference and the
    decisions columnar.
    """
    if isinstance(epoch_size, bool) or not isinstance(epoch_size, int) or epoch_size < 1:
        raise InvalidParameterError(
            f"epoch_size must be an int >= 1, got {epoch_size!r}"
        )
    n = arrays.n
    start = scheduler._count
    i = 0
    try:
        while i < n:
            i = _process_block(scheduler, arrays, i, min(i + epoch_size, n))
    finally:
        # The rows consumed so far, the valid prefix of a failed block
        # included, as the sequential loop would have stored them.
        if scheduler._count > start:
            scheduler._chunks.append((arrays, scheduler._count - start))


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _near_boundary(b: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Vectorized ``_fresh_points`` nearness test, one point at a time.

    ``True`` where the point snaps to an existing boundary — the exact
    per-point condition of the scalar classifier (searchsorted-left
    neighbours, absolute ``_TIME_EPS`` tolerance).
    """
    idx = np.searchsorted(b, points, side="left")
    size = b.size
    near = np.zeros(points.shape, dtype=bool)
    has_right = idx < size
    near[has_right] = (
        b[idx[has_right]] - points[has_right] <= _TIME_EPS
    )
    has_left = idx > 0
    near[has_left] |= (
        points[has_left] - b[idx[has_left] - 1] <= _TIME_EPS
    )
    return near


def _price_caps(
    power: PowerFunction, values: np.ndarray, workloads: np.ndarray, delta: float
) -> np.ndarray:
    """Each arrival's price cap :func:`~repro.core.waterfill.price_cap`,
    float for float, in one pass over a block.

    The divisions run in numpy, IEEE-identical to the scalar ones; the
    logarithm and the exponential go through ``math`` as in
    :meth:`~repro.model.power.PolynomialPower.derivative_inverse`
    (numpy's may differ in the last ulp, and caps are recorded as
    speeds). NaN marks a cap left to the scalar call: every cap of
    another power function, and the rows ``price_cap`` solves in log
    space (a positive finite value whose ``delta * workload`` or
    positive quotient by alpha underflows to 0, or whose quotient
    overflows).
    """
    if type(power) is not PolynomialPower:
        return np.full(values.shape, math.nan)
    alpha = power.alpha
    with np.errstate(all="ignore"):  # inf and NaN marginals: see below
        marginal = values / (delta * workloads)
    scaled = marginal / alpha
    ok = scaled > 0.0
    logs = np.array(list(map(math.log, np.where(ok, scaled, 1.0).tolist())))
    logs /= alpha - 1.0
    over = logs > 690.0  # the scalar's overflow edge: no cap
    caps = np.array(list(map(math.exp, np.where(over, 0.0, logs).tolist())))
    # The rare rows are patched only in blocks that hold one: most
    # blocks are short, and every numpy call costs per block.
    if over.any():
        caps[over] = math.inf
        caps[over & (marginal == math.inf) & (values < math.inf)] = math.nan
    if not ok.all():
        caps[~ok] = np.where(marginal[~ok] <= 0.0, 0.0, math.nan)
    return caps


def _settled_at_block_start(
    opens: list[float],
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    usable: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Mask of the ``usable`` arrivals whose cap the block-start opening
    speeds already settle: ``cap * _SETTLE_MARGIN < min(opens[i0:j0])``.

    Opening speeds only rise under inserts and nothing refines the grid
    inside a block, so an arrival settled here is still settled when
    the loop reaches it. One ``minimum.reduceat`` over the interleaved
    window bounds (a padded ``inf`` closes the last window) gives every
    window's minimum.
    """
    if not usable.any():
        return usable
    base = int(i_idx[usable].min())
    top = int(j_idx[usable].max())
    speeds = np.array(opens[base:top] + [math.inf])
    bounds = np.where(usable, np.stack((i_idx, j_idx)) - base, top - base)
    window_min = np.minimum.reduceat(speeds, bounds.T.ravel())[::2]
    return usable & (caps * _SETTLE_MARGIN < window_min)


def _process_block(sched: PDScheduler, arrays: JobArrays, lo: int, hi: int) -> int:
    """Process arrivals ``[lo, hi)``; return the next unprocessed index.

    May stop early: at a release-order violation (after processing the
    valid prefix, like the sequential loop would) or at the first
    arrival that refines the grid (which runs the scalar path so every
    later job in the block sees the refined grid).
    """
    releases = arrays.releases
    r = releases[lo:hi]
    prev = sched._last_release
    runmax = np.maximum.accumulate(np.concatenate(((prev,), r)))
    bad = r < runmax[:-1] - 1e-12
    if bad.any():
        stop = int(np.argmax(bad))
        j = lo
        while j < lo + stop:
            j = _process_block(sched, arrays, j, lo + stop)
        raise InvalidParameterError(
            f"jobs must arrive in release order: got release "
            f"{float(r[stop])} after {float(runmax[stop])}"
        )

    # A first arrival that refines (or bootstraps) the grid runs scalar
    # before any numpy ``Grid`` is built for the block: the same
    # classification as the vectorized nearness test below.
    if not sched._bounds or _fresh_points(
        sched._bounds, (float(r[0]), float(arrays.deadlines[lo]))
    ):
        sched._arrive_row(
            float(r[0]),
            float(arrays.deadlines[lo]),
            float(arrays.workloads[lo]),
            float(arrays.values[lo]),
        )
        return lo + 1

    grid = sched._grid
    assert grid is not None  # built from the non-empty boundary list
    b = grid.boundaries
    d = arrays.deadlines[lo:hi]
    ok = _near_boundary(b, r) & _near_boundary(b, d)
    if not bool(ok.all()):
        hi = lo + int(np.argmin(ok))
        r = r[: hi - lo]
        d = d[: hi - lo]
    cnt = hi - lo
    w = arrays.workloads[lo:hi]
    v = arrays.values[lo:hi]
    sched._last_release = float(runmax[cnt])

    # Batched covering: the exact ``_boundary_index`` computation for
    # every window endpoint at once. The nearness test above implies
    # alignment under the (looser) covering tolerance, but any
    # stragglers are simply routed through ``grid.covering`` below for
    # the historical behavior.
    i_idx = np.searchsorted(b, r - _TIME_EPS, side="left")
    j_idx = np.searchsorted(b, d - _TIME_EPS, side="left")
    size = b.size
    safe_i = np.minimum(i_idx, size - 1)
    safe_j = np.minimum(j_idx, size - 1)
    aligned = (
        (i_idx < size)
        & (np.abs(b[safe_i] - r) <= _TIME_EPS * np.maximum(1.0, np.abs(r)) + _TIME_EPS)
        & (j_idx < size)
        & (np.abs(b[safe_j] - d) <= _TIME_EPS * np.maximum(1.0, np.abs(d)) + _TIME_EPS)
    )

    states = sched._states
    len_list = sched._lengths
    opens = sched._opening_speeds()
    m = sched.m
    delta = sched.delta
    power = sched.power
    inf = math.inf
    base_id = sched._count

    il = i_idx.tolist()
    jl = j_idx.tolist()
    algn = aligned.tolist()
    wl = w.tolist()
    vl = v.tolist()
    # Every arrival starts out as a zero-work reject (lambda = value,
    # speed = cap, nothing planned); the water-fill overwrites its row.
    # The decision columns stay numpy until they join the scheduler's
    # store; ``spd`` mirrors the speeds for the loop's reads.
    acc = np.zeros(cnt, dtype=bool)
    lam = np.array(v)
    caps = _price_caps(power, v, w, delta)
    spd = caps.tolist()
    pw = np.zeros(cnt)
    settled = _settled_at_block_start(
        opens, i_idx, j_idx, aligned & (j_idx > i_idx), caps
    )

    for t in np.flatnonzero(~settled).tolist():
        i0 = il[t]
        j0 = jl[t]
        if algn[t] and j0 > i0:
            s_cap = spd[t]
            if s_cap != s_cap:  # NaN: left to the scalar by _price_caps
                s_cap = caps[t] = price_cap(power, vl[t], wl[t], delta)
            # Settle against the live opening speeds (accepts earlier in
            # the block included); failing that, the exact screen asks
            # the reference kernel's own per-interval question at the
            # cap. Either way an all-zero answer at a finite cap is the
            # reference outcome the row already holds (reject at value,
            # nothing placed, no state mutation); a non-finite cap is
            # bracketed by doubling inside ``waterfill_job`` instead.
            zero = s_cap < inf
            if (
                zero
                and s_cap > 0.0
                and not s_cap * _SETTLE_MARGIN < min(opens[i0:j0])
            ):
                for k in range(i0, j0):
                    state = states[k]
                    target = s_cap * len_list[k]
                    dd = bisect_left(state.neg, -target)
                    if dd < m and target * (m - dd) - state.suffix[dd] > 0.0:
                        zero = False
                        break
            if zero:
                continue
        # Full scalar water-fill against the live stores (reference
        # floats in reference order).
        if not algn[t]:  # pragma: no cover - near implies aligned; insurance only
            ks = grid.covering(float(r[t]), float(d[t]))
            i0, j0 = ks.start, ks.stop
        kernel = WindowKernel(states[i0:j0], len_list[i0:j0], m)
        outcome = waterfill_job(
            kernel,
            workload=wl[t],
            value=vl[t],
            delta=delta,
            power=power,
        )
        sched._commit(i0, outcome, base_id + t)
        acc[t] = outcome.accepted
        lam[t] = outcome.lam
        caps[t] = outcome.speed
        pw[t] = outcome.planned_work

    sched._record_block(acc, lam, caps, pw)
    return hi
