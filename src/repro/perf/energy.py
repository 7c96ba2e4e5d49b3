"""Batched multi-interval energy evaluation (Equation (6), all columns).

``Schedule.energy`` historically walked the grid one column at a time:
per interval, drop the zeros, sort descending, run the dedication scan,
sum the dedicated powers, add the pool term. PR 5 fast-pathed the
single-job columns but left the per-column Python loop in place for
multi-job columns — at 100k+ jobs the loop dominates.

This module evaluates *all* columns in a handful of vectorized passes
while reproducing the reference loop bit for bit
(:func:`repro.perf.reference.schedule_energy_reference`, asserted by the
parity suite). The bit-parity obligations, and how each is met:

* ``numpy.sum``'s pairwise reduction tree depends only on the element
  count, so the emptiness gate (``col.sum() <= 1e-12``) is computed as
  one ``sum(axis=1)`` over the transposed copy — same tree per row as
  the reference's per-column ``col.sum()``.
* The dedication scan consumes the *nonzero* loads of a column in
  descending stable order, and its float sequence (sort, tail-first
  suffix ``cumsum``, ``u * (m - j) >= suffix[j] - tol`` tests) depends
  on the nonzero count ``p``. Columns are therefore **grouped by p**:
  within a group every per-column operation maps to one row of a dense
  ``(g, p)`` matrix op with identical per-element arithmetic
  (``cumsum`` along an axis is the same sequential accumulation as the
  1-D call).
* The dedicated energy term sums ``d`` power values pairwise, and the
  tree depends on ``d`` — so rows are **sub-grouped by d** and each
  sub-group is summed over a contiguous ``(g', d)`` slice.
* The pool term calls ``power(pool_speed)`` — Python scalar ``**``,
  which numpy's array ``**`` is not guaranteed to match in the last
  ulp — so pool contributions stay scalar, one Python call per
  multi-job column with a nonzero pool (rare: most pools are empty).
* The reference accumulates column energies into a Python float in
  ascending ``k``; skipped columns contribute nothing. Accumulating a
  per-column energy vector with ``cumsum`` (strictly sequential) is
  bitwise the same walk: skipped entries hold exact ``+0.0``, and
  ``t + 0.0`` is a bitwise no-op for every ``t >= 0.0``.

:func:`stores_energy` evaluates the same quantity straight off live
:class:`~repro.perf.kernels.IntervalLoads` stores — no dense ``(n, N)``
matrix — which is what lets the million-job PD bench report energy
without materializing a 30 GB schedule. The stores are already
descending-sorted with reference-bit suffix sums (the PR 5 insertion
lemma), so the per-interval arithmetic is literally the reference's,
single-load intervals included (their dedication scan dedicates the
one load, and the dedicated sum is the reference's one-element sum);
the one caveat is the emptiness gate, which sums only the nonzero loads
(sequentially) where the dense reference sums the whole zero-padded
column (pairwise). The two gate values agree unless a column total sits
within one rounding step of the ``1e-12`` gate — generic position,
asserted exactly on every differential workload.

Outside the reference oracle, these two functions are the only
whole-schedule evaluators of Equation (6): ``Schedule.energy`` and
:func:`repro.general.pd_general.energy_with_power` (any power
function) both call :func:`schedule_energy`.
"""

from __future__ import annotations

import numpy as np

from typing import Sequence

from ..chen.partition import _LOAD_EPS as _PART_EPS
from ..errors import InvalidParameterError
from ..model.power import PowerFunction
from ..types import FloatArray
from .kernels import IntervalLoads

__all__ = ["schedule_energy", "stores_energy"]

#: Column emptiness gate — ``repro.model.schedule._LOAD_EPS``.
_GATE_EPS = 1e-12


def schedule_energy(
    loads: FloatArray,
    lengths: FloatArray,
    m: int,
    power: PowerFunction,
) -> float:
    """Energy of a dense ``(n, N)`` load matrix, all columns batched.

    Bit-identical to the per-column reference loop (see module
    docstring for the argument). ``lengths`` are the grid interval
    lengths; ``power`` is any power function exposing ``power_array``
    and scalar ``__call__``.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 2:
        raise InvalidParameterError(
            f"loads must be 2-D, got shape {loads.shape}"
        )
    n, big_n = loads.shape
    if big_n == 0 or n == 0:
        return 0.0
    lengths = np.asarray(lengths, dtype=np.float64)

    cols = np.ascontiguousarray(loads.T)
    col_sums = cols.sum(axis=1)
    busy = col_sums > _GATE_EPS
    if not busy.any():
        return 0.0
    nonzero = cols != 0.0
    counts = nonzero.sum(axis=1)
    energies = np.zeros(big_n, dtype=np.float64)

    # --- single-active columns: elementwise, no partition machinery ---
    single = busy & (counts == 1)
    if single.any():
        ks = np.nonzero(single)[0]
        vals = cols[ks, np.argmax(nonzero[ks], axis=1)]
        keep = vals > _PART_EPS
        if keep.any():
            ks, vals = ks[keep], vals[keep]
            lens = lengths[ks]
            energies[ks] = power.power_array(vals / lens) * lens

    # --- multi-active columns: grouped by nonzero count p ---
    multi = busy & (counts >= 2)
    if multi.any():
        if bool((cols[multi] < -_PART_EPS).any()):
            # partition_loads would reject the first such column.
            raise InvalidParameterError("loads must be non-negative")
        for p in np.unique(counts[multi]).tolist():
            ks = np.nonzero(multi & (counts == p))[0]
            block = cols[ks]
            rows, cells = np.nonzero(block)
            # np.nonzero is row-major, so each row's actives keep their
            # original column order — the stable-sort tie key.
            active = block[rows, cells].reshape(ks.size, p)
            order = np.argsort(-active, axis=1, kind="stable")
            srt = np.take_along_axis(active, order, axis=1)
            suffix = np.concatenate(
                (
                    np.cumsum(srt[:, ::-1], axis=1)[:, ::-1],
                    np.zeros((ks.size, 1)),
                ),
                axis=1,
            )
            tol = _PART_EPS * np.maximum(1.0, suffix[:, 0])
            d = np.zeros(ks.size, dtype=np.int64)
            alive = np.ones(ks.size, dtype=bool)
            for j in range(1, min(p, m) + 1):
                u = srt[:, j - 1]
                alive = alive & (u > _PART_EPS)
                alive = alive & (u * (m - j) >= suffix[:, j] - tol)
                d[alive] = j
            pool = np.maximum(suffix[np.arange(ks.size), d], 0.0)
            lens = lengths[ks]
            ded = np.zeros(ks.size, dtype=np.float64)
            for dv in np.unique(d).tolist():
                if dv == 0:
                    continue  # empty dedicated sum is exactly 0.0 * length
                sel = d == dv
                block_d = np.ascontiguousarray(srt[sel, :dv])
                ded[sel] = (
                    np.sum(
                        power.power_array(block_d / lens[sel, None]), axis=1
                    )
                    * lens[sel]
                )
            energies[ks] = ded
            # Pool terms: scalar, to match power()'s Python ** bits.
            for i in np.nonzero(pool > _PART_EPS)[0].tolist():
                num_pool = m - int(d[i])
                pool_load = float(pool[i])
                if num_pool == 0 or pool_load <= _PART_EPS:
                    per_proc = 0.0
                else:
                    per_proc = pool_load / num_pool
                length = float(lens[i])
                energies[ks[i]] += num_pool * length * power(per_proc / length)

    return float(np.cumsum(energies)[-1])


def stores_energy(
    states: Sequence[IntervalLoads],
    lengths: Sequence[float],
    m: int,
    power: PowerFunction,
) -> float:
    """Energy straight off live ``IntervalLoads`` stores (no dense matrix).

    ``states`` are per-interval stores as maintained by
    :class:`~repro.core.pd.PDScheduler` — loads descending with
    reference-bit suffix sums — so the partition arithmetic below is
    literally the reference's, skipping the sort it already has. See
    the module docstring for the emptiness-gate caveat.
    """
    total = 0.0
    for k, state in enumerate(states):
        p = len(state.loads)
        if p == 0 or state.suffix[0] <= _GATE_EPS:
            continue
        length = float(lengths[k])
        srt = np.asarray(state.loads, dtype=np.float64)
        suffix = state.suffix
        tol = _PART_EPS * max(1.0, float(suffix[0]))
        d = 0
        for j in range(1, min(p, m) + 1):
            u = float(srt[j - 1])
            if u <= _PART_EPS:
                break
            if u * (m - j) >= float(suffix[j]) - tol:
                d = j
            else:
                break
        pool_load = max(float(suffix[d]), 0.0)
        energy = float(np.sum(power.power_array(srt[:d] / length))) * length
        if pool_load > _PART_EPS:
            num_pool = m - d
            if num_pool == 0 or pool_load <= _PART_EPS:
                per_proc = 0.0
            else:
                per_proc = pool_load / num_pool
            energy += num_pool * length * power(per_proc / length)
        total += energy
    return total
