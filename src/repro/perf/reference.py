"""Historical straight-line implementations, kept for parity testing.

The incremental kernels (:mod:`repro.perf.kernels`) promise *bit
parity*: same schedules, same costs, same certificates, same cache
keys as the code they replaced. That promise is only checkable if the
replaced code still exists — so the pre-kernel implementations live
here (dense load matrices, per-arrival rebuilds of every window
store from its full column, full-matrix refinement remaps), exercised
exclusively by the differential tests in ``tests/test_perf_kernels.py``
and available for ad-hoc A/B measurements via the bench harness.

One twin is a tolerance oracle rather than a bit-parity one:
:func:`waterfill_job_reference`, the bisecting water-fill that the
exact clearing-speed solve replaced (a versioned change). Its
rejections match the live solver bit for bit; its accepted speeds only
within the bisection tolerance.

Deliberately slow. Never import this module from a hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..classical.execution import schedule_from_segments
from ..classical.oa import oa_plan
from ..classical.timeline import IntervalSet
from ..classical.yds import YdsResult, _yds
from ..core.cll import CLLResult, cll_admits
from ..core.pd import JobDecision, PDResult, PDScheduler
from ..core.waterfill import WaterfillOutcome, price_cap, waterfill_job
from ..errors import InvalidParameterError, SolverError
from ..model.intervals import Grid, _fresh_points
from ..model.job import Instance, Job
from ..model.job_arrays import JobArrays
from ..model.power import PolynomialPower, PowerFunction
from ..model.schedule import Schedule
from ..types import FloatArray, Time
from .kernels import IntervalLoads, WindowKernel

__all__ = [
    "PARITY_PAIRS",
    "PDSchedulerReference",
    "arrive_epochs_reference",
    "oa_segments_reference",
    "run_cll_reference",
    "run_pd_reference",
    "schedule_energy_reference",
    "waterfill_job_reference",
    "yds_reference",
]

#: Kernel -> reference counterpart, for pairs the ``<name>_reference``
#: naming convention cannot express (a data-structure kernel whose
#: reference twin is the whole scheduler it accelerates). ``repro lint``
#: (RPR3xx) reads this table: every public ``repro.perf`` kernel must
#: resolve to a name defined in this module, and some test must
#: exercise both names together.
PARITY_PAIRS = {
    "IntervalLoads": "run_pd_reference",
    "WindowKernel": "run_pd_reference",
    "schedule_energy": "schedule_energy_reference",
    "stores_energy": "schedule_energy_reference",
    # The arrival-epoch layer (repro.perf.epochs): the reference
    # twin is the scalar core itself — one arrive() per job.
    "DEFAULT_EPOCH_SIZE": "arrive_epochs_reference",
    "arrive_epochs": "arrive_epochs_reference",
    # OA and CLL on the lazy OA planner (repro.classical.oa,
    # repro.core.cll): the twins replan in full with oa_plan, once (OA)
    # or twice (CLL) per release epoch.
    "oa_segments": "oa_segments_reference",
    "run_cll": "run_cll_reference",
}


def schedule_energy_reference(schedule: Schedule) -> float:
    """The historical per-column ``Schedule.energy`` loop, verbatim.

    Replaced by the batched all-columns kernel
    (:func:`repro.perf.energy.schedule_energy`); kept for differential
    testing of that kernel.
    """
    from ..chen.interval_power import interval_energy
    from ..chen.partition import _LOAD_EPS as _part_eps
    from ..model.schedule import _LOAD_EPS as _load_eps

    lengths = schedule.grid.lengths
    power = schedule.instance.power
    m = schedule.instance.m
    cols = np.ascontiguousarray(schedule.loads.T)
    total = 0.0
    for k in range(schedule.grid.size):
        col = cols[k]
        if float(col.sum()) <= _load_eps:
            continue
        active = col[col != 0.0]
        length = float(lengths[k])
        if active.size == 1:
            if float(active[0]) > _part_eps:
                total += (
                    float(np.sum(power.power_array(active / length))) * length
                )
            continue
        total += interval_energy(active, m, length, power)
    return total


class PDSchedulerReference:
    """The pre-kernel ``PDScheduler``: dense matrices, per-arrival sorts.

    A copy of the historical online scheduler. Every arrival rebuilds
    one sorted store per window interval from its full column of the
    ``(n, N)`` load matrix, grows both matrices by one row, and
    remaps every row through each grid refinement — O(n·N) per arrival,
    which is exactly the cost profile the incremental kernels remove.
    """

    def __init__(
        self,
        *,
        m: int,
        alpha: float,
        delta: float | None = None,
        power: PowerFunction | None = None,
    ) -> None:
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m}")
        self.m = m
        if power is None:
            self.power = PolynomialPower(alpha)
            self.delta = (
                float(delta) if delta is not None else self.power.optimal_delta
            )
        else:
            self.power = power
            if delta is None:
                raise InvalidParameterError(
                    "delta must be given explicitly with a custom power "
                    "function (no Theorem 3 default applies)"
                )
            self.delta = float(delta)
        self._alpha = float(alpha)
        if self.delta <= 0.0:
            raise InvalidParameterError(f"delta must be > 0, got {self.delta}")

        self._jobs: list[Job] = []
        self._grid: Grid | None = None
        self._loads: FloatArray = np.zeros((0, 0))
        self._planned: FloatArray = np.zeros((0, 0))
        self._decisions: list[JobDecision] = []
        self._last_release = -np.inf

    def arrive(self, job: Job) -> JobDecision:
        if job.release < self._last_release - 1e-12:
            raise InvalidParameterError(
                f"jobs must arrive in release order: got release {job.release} "
                f"after {self._last_release}"
            )
        self._last_release = max(self._last_release, job.release)
        job_id = len(self._jobs)
        self._jobs.append(job)

        self._refine_grid(job)
        assert self._grid is not None
        ks = list(self._grid.covering(job.release, job.deadline))
        lengths = self._grid.lengths

        kernel = WindowKernel(
            [IntervalLoads.from_column(self._loads[:, k]) for k in ks],
            [float(lengths[k]) for k in ks],
            self.m,
        )
        outcome = waterfill_job(
            kernel,
            workload=job.workload,
            value=job.value,
            delta=self.delta,
            power=self.power,
        )

        n_new = job_id + 1
        grown = np.zeros((n_new, self._grid.size))
        grown[:job_id] = self._loads
        self._loads = grown
        grown_p = np.zeros((n_new, self._grid.size))
        grown_p[:job_id] = self._planned
        self._planned = grown_p

        if outcome.accepted:
            self._loads[job_id, ks] = outcome.loads
            self._planned[job_id, ks] = outcome.loads
        else:
            self._planned[job_id, ks] = outcome.loads

        decision = JobDecision(
            job_id=job_id,
            accepted=outcome.accepted,
            lam=outcome.lam,
            planned_speed=outcome.speed,
            planned_work=outcome.planned_work,
        )
        self._decisions.append(decision)
        return decision

    def finish(self) -> PDResult:
        if not self._jobs:
            raise InvalidParameterError("no jobs were processed")
        assert self._grid is not None
        instance = Instance(tuple(self._jobs), m=self.m, alpha=self._alpha)
        finished = np.array([d.accepted for d in self._decisions], dtype=bool)
        schedule = Schedule(
            instance=instance,
            grid=self._grid,
            loads=self._loads.copy(),
            finished=finished,
        )
        return PDResult(
            schedule=schedule,
            decisions=tuple(self._decisions),
            lambdas=np.array([d.lam for d in self._decisions]),
            planned_loads=self._planned.copy(),
            delta=self.delta,
        )

    def _refine_grid(self, job: Job) -> None:
        if self._grid is None:
            self._grid = Grid.from_points([job.release, job.deadline])
            self._loads = np.zeros((0, self._grid.size))
            self._planned = np.zeros((0, self._grid.size))
            return
        refinement = _refine(self._grid, [job.release, job.deadline])
        if refinement.grid.same_as(self._grid):
            return
        self._loads = _remap_rows(self._loads, refinement)
        self._planned = _remap_rows(self._planned, refinement)
        self._grid = refinement.grid


@dataclass(frozen=True)
class _Refinement:
    """A grid refined with new breakpoints, and how old intervals split.

    ``parent[k]`` is the old interval holding new interval ``k`` (``-1``
    for intervals that extend the old span); ``fraction[k]`` is its
    length over its parent's (``1.0`` for parent ``-1``). Splitting a
    per-interval load ``q`` proportionally gives child ``k`` the share
    ``q[parent[k]] * fraction[k]`` — the paper's Section 3 split, which
    leaves every speed, and so the schedule, unchanged.
    """

    grid: Grid
    parent: np.ndarray
    fraction: FloatArray

    def split_row(self, row: FloatArray, *, fill: float = 0.0) -> FloatArray:
        """Remap a per-old-interval array onto the refined grid: ``row[k]``
        is shared among the children of old interval ``k`` in proportion
        to their lengths; positions with no parent get ``fill``."""
        out = np.full(self.grid.size, fill, dtype=np.float64)
        mask = self.parent >= 0
        out[mask] = row[self.parent[mask]] * self.fraction[mask]
        return out


def _refine(grid: Grid, new_points: Iterable[Time]) -> _Refinement:
    """Insert breakpoints into ``grid`` and report how old intervals split.

    Points outside the span extend the grid (a new job's deadline past
    the known horizon); the extension intervals have no parent. A point
    within tolerance of an existing boundary snaps to it
    (:func:`~repro.model.intervals._fresh_points`), so refinement never
    moves a boundary.
    """
    b = grid.boundaries
    kept = _fresh_points(b.tolist(), new_points)
    if kept:
        merged = np.sort(np.concatenate((b, np.asarray(kept, dtype=np.float64))))
    else:
        merged = b.copy()
    starts = merged[:-1]
    ends = merged[1:]
    old_lo, old_hi = grid.span
    # Exact comparisons: the merged grid holds the old span's end points
    # verbatim and every fresh point lies more than the tolerance away
    # from them, so only extension intervals reach past the old span.
    outside = (starts < old_lo) | (ends > old_hi)
    parent = np.clip(
        np.searchsorted(b, starts, side="right") - 1, 0, grid.size - 1
    ).astype(np.int64)
    fraction = (ends - starts) / grid.lengths[parent]
    parent[outside] = -1
    fraction[outside] = 1.0
    return _Refinement(grid=Grid(merged), parent=parent, fraction=fraction)


def _remap_rows(matrix: FloatArray, refinement: _Refinement) -> FloatArray:
    """Apply a grid refinement to every row of a per-interval matrix."""
    if matrix.shape[0] == 0:
        return np.zeros((0, refinement.grid.size))
    return np.stack([refinement.split_row(row) for row in matrix])


def run_pd_reference(
    instance: Instance, *, delta: float | None = None
) -> PDResult:
    """Run the historical dense-matrix PD on a full instance."""
    ordered = instance.sorted_by_release()
    scheduler = PDSchedulerReference(
        m=ordered.m, alpha=ordered.alpha, delta=delta
    )
    for job in ordered.jobs:
        scheduler.arrive(job)
    return scheduler.finish()


def arrive_epochs_reference(scheduler: PDScheduler, arrays: JobArrays) -> None:
    """The per-arrival twin of :func:`repro.perf.epochs.arrive_epochs`.

    Feeds the columnar block one scalar ``arrive()`` at a time — the
    loop the epoch layer batches. The differential suite runs
    both feeds against identical schedulers and asserts byte-identical
    decisions, stores, planned loads, payloads, and cache keys.
    """
    for i in range(arrays.n):
        scheduler.arrive(arrays.job(i))


#: The event and work tolerances of ``repro.classical.oa`` and
#: ``repro.core.cll`` (the event one is also ``repro.classical.yds``'s).
_EPS = 1e-12
_WORK_TOL = 1e-9


def oa_segments_reference(
    instance: Instance,
) -> tuple[Instance, list[tuple[int, float, float, float]]]:
    """The historical OA simulation, verbatim: a full :func:`oa_plan`
    per release epoch over every known job, executed up to the next
    epoch.

    Replaced by :func:`repro.classical.oa.oa_segments`, which generates
    each plan lazily and stops at the first round past the next
    arrival; kept as its oracle. Returns ``(ordered_instance,
    executed_segments)`` like the live path.
    """
    if instance.m != 1:
        raise InvalidParameterError(
            f"run_oa is single-processor; instance has m={instance.m}. "
            "Use run_oa_multiprocessor for m > 1."
        )
    if instance.n == 0:
        raise InvalidParameterError("OA needs at least one job")
    ordered = instance.sorted_by_release()
    n = ordered.n
    releases = ordered.releases
    epochs = sorted(set(releases.tolist()))
    horizon_end = float(ordered.deadlines.max())

    remaining = dict(enumerate(ordered.workloads.tolist()))
    deadlines = dict(enumerate(ordered.deadlines.tolist()))
    executed: list[tuple[int, float, float, float]] = []
    known_count = 0
    unfinished: set[int] = set()

    for idx, t in enumerate(epochs):
        t_next = epochs[idx + 1] if idx + 1 < len(epochs) else horizon_end
        while known_count < n and releases[known_count] <= t + _EPS:
            if remaining[known_count] > _WORK_TOL:
                unfinished.add(known_count)
            known_count += 1
        if not unfinished:
            continue
        plan = oa_plan(
            now=t,
            job_ids=list(range(known_count)),
            remaining=remaining,
            deadlines=deadlines,
            alpha=ordered.alpha,
        )
        for job, a, b, speed in plan.segments:
            if a >= t_next - _EPS:
                break
            hi = min(b, t_next)
            if hi <= a + _EPS:
                continue
            executed.append((job, a, hi, speed))
            remaining[job] -= (hi - a) * speed
            if remaining[job] < 0.0:
                remaining[job] = 0.0
            if remaining[job] <= _WORK_TOL:
                unfinished.discard(job)

    return ordered, executed


def run_cll_reference(instance: Instance) -> CLLResult:
    """The historical ``run_cll``, verbatim: two full ``oa_plan`` calls
    per release epoch and an all-jobs arrival scan.

    Replaced by the lazy-planner :func:`repro.core.cll.run_cll`; kept for
    differential testing. It diverges on purpose in one place: an
    arrival with no plannable work (workload at most the work tolerance)
    while nothing else is alive raises here, where ``run_cll`` plans it
    at speed 0.
    """
    if instance.m != 1:
        raise InvalidParameterError(
            f"CLL is a single-processor algorithm; instance has m={instance.m}"
        )
    ordered = instance.sorted_by_release()
    n = ordered.n
    alpha = ordered.alpha
    releases = ordered.releases
    deadlines = {j: ordered[j].deadline for j in range(n)}

    admitted: list[bool] = [False] * n
    remaining: dict[int, float] = {}
    planned_speed = np.zeros(n)
    thresholds = np.zeros(n)
    executed: list[tuple[int, float, float, float]] = []

    # Group arrivals by epoch; within an epoch, admit one job at a time so
    # each admission sees the previous one's load.
    epochs = sorted(set(releases.tolist()))
    horizon_end = max(deadlines.values())

    for idx, t in enumerate(epochs):
        t_next = epochs[idx + 1] if idx + 1 < len(epochs) else horizon_end
        for j in range(n):
            if abs(releases[j] - t) > _EPS:
                continue
            job = ordered[j]
            # Tentative plan including the candidate job.
            tentative_remaining = dict(remaining)
            tentative_remaining[j] = job.workload
            plan = oa_plan(
                now=t,
                job_ids=sorted(tentative_remaining),
                remaining=tentative_remaining,
                deadlines=deadlines,
                alpha=alpha,
            )
            s = float(plan.job_speeds[j])
            planned_speed[j] = s
            thresholds[j] = alpha ** ((alpha - 2.0) / (alpha - 1.0)) * (
                job.value / job.workload
            ) ** (1.0 / (alpha - 1.0))
            if cll_admits(
                workload=job.workload, value=job.value, planned_speed=s, alpha=alpha
            ):
                admitted[j] = True
                remaining[j] = job.workload

        # Execute the OA plan for admitted work until the next epoch.
        alive = [
            j
            for j, wrem in remaining.items()
            if wrem > _WORK_TOL and deadlines[j] > t + _EPS
        ]
        if not alive:
            continue
        plan = oa_plan(
            now=t,
            job_ids=alive,
            remaining=remaining,
            deadlines=deadlines,
            alpha=alpha,
        )
        for job_id, a, b, speed in plan.segments:
            if a >= t_next - _EPS:
                break
            hi = min(b, t_next)
            if hi <= a + _EPS:
                continue
            executed.append((job_id, a, hi, speed))
            remaining[job_id] -= (hi - a) * speed
            if remaining[job_id] < 0.0:
                remaining[job_id] = 0.0

    schedule = schedule_from_segments(
        ordered, executed, np.array(admitted, dtype=bool)
    )
    return CLLResult(
        schedule=schedule,
        planned_speeds=planned_speed,
        admission_thresholds=thresholds,
    )


#: The historical water-fill's relative work tolerance and bisection cap.
_WATERFILL_WORK_TOL = 1e-11
_MAX_BISECT = 200


def waterfill_job_reference(
    caches: Any,
    *,
    workload: float,
    value: float,
    delta: float,
    power: PolynomialPower,
) -> WaterfillOutcome:
    """The historical water-fill, verbatim: bracket, bisect, Newton-polish
    and rescale.

    Replaced by the closed-form breakpoint solve in
    :func:`repro.core.waterfill.waterfill_job`
    (:meth:`~repro.perf.kernels.WindowKernel.clearing_speed`); kept as
    that solver's tolerance oracle. Its rejections are the new solver's
    bit for bit; its accepted speeds lie within the bisection tolerance
    of the exact root.

    Parameters
    ----------
    caches:
        The frozen pre-arrival assignment of the job's window: either
        one :class:`SortedLoads` per atomic interval (the historical
        shape, still used by the offline solver), or any object
        exposing batched ``total_at_speed(s)`` / ``loads_at_speed(s)``
        queries — in practice a
        :class:`~repro.perf.kernels.WindowKernel`, which evaluates the
        whole window per bisection step instead of looping interval by
        interval. Both shapes produce bit-identical outcomes.
    workload, value:
        The job's ``w_j`` and ``v_j``.
    delta:
        The PD aggressiveness parameter (Theorem 3 uses
        ``alpha**(1-alpha)``).
    power:
        The power function ``P_alpha``.
    """
    if workload <= 0.0:
        raise InvalidParameterError(f"workload must be > 0, got {workload}")
    if delta <= 0.0:
        raise InvalidParameterError(f"delta must be > 0, got {delta}")
    if len(caches) == 0:
        # No interval can host the job (can happen only with a stale
        # grid); the job is rejected at its value.
        return WaterfillOutcome(
            accepted=False,
            lam=value,
            speed=0.0,
            loads=np.zeros(0),
            planned_work=0.0,
        )

    if hasattr(caches, "total_at_speed"):
        total_at_speed = caches.total_at_speed
        loads_at_speed = caches.loads_at_speed
    else:

        def total_at_speed(s: float) -> float:  # type: ignore[no-redef]
            return float(sum(c.max_load_at_speed(s) for c in caches))

        def loads_at_speed(s: float) -> FloatArray:  # type: ignore[no-redef]
            return np.array(
                [c.max_load_at_speed(s) for c in caches], dtype=np.float64
            )

    # Price cap: lambda <= value <=> planned speed <= s_cap. An infinite
    # value (classical must-finish jobs, the offline solver's block
    # steps, or a near-1 exponent mapping a huge value to inf) means no
    # effective cap: bracket by doubling instead.
    s_cap = price_cap(power, value, workload, delta)
    if not np.isfinite(s_cap):
        s_cap = max(1.0, workload)
        for _ in range(200):
            if total_at_speed(s_cap) >= workload:
                break
            s_cap *= 2.0

    placed_at_cap = total_at_speed(s_cap)
    if placed_at_cap < workload * (1.0 - _WATERFILL_WORK_TOL):
        # Even at the job's full value the intervals cannot absorb the
        # workload cheaply enough: reject. Record the planned loads for
        # the analysis of unfinished jobs.
        return WaterfillOutcome(
            accepted=False,
            lam=value,
            speed=s_cap,
            loads=loads_at_speed(s_cap),
            planned_work=placed_at_cap,
        )

    # Bracket the clearing speed: total(0) == 0 <= workload <= total(s_cap).
    lo, hi = 0.0, s_cap
    # Shrink the bracket by bisection on the monotone piecewise-linear map.
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if total_at_speed(mid) >= workload:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break

    # Newton polish on the piecewise-linear structure: the local slope is
    # sum over intervals in the interior regime of (m - d) * l_k, which a
    # symmetric finite difference recovers exactly within a linear piece.
    s = hi
    for _ in range(4):
        t = total_at_speed(s)
        gap = workload - t
        if abs(gap) <= _WATERFILL_WORK_TOL * workload:
            break
        h = max(1e-9 * max(s, 1.0), 1e-12)
        slope = (total_at_speed(s + h) - total_at_speed(max(s - h, 0.0))) / (
            s + h - max(s - h, 0.0)
        )
        if slope <= 0.0:
            break
        s = min(max(s + gap / slope, lo), s_cap)

    loads = loads_at_speed(s)
    placed = float(loads.sum())
    if placed <= 0.0:
        # Degenerate: numerical cap hit; treat as rejection.
        return WaterfillOutcome(
            accepted=False, lam=value, speed=s_cap, loads=loads, planned_work=placed
        )
    if abs(placed - workload) > _WATERFILL_WORK_TOL * workload:
        # Final exactness fix: scale within the (tiny) residual. The
        # relative correction is bounded by the bisection tolerance, so
        # marginal prices move negligibly.
        loads *= workload / placed
        placed = workload

    lam = delta * workload * power.derivative(s)
    lam = min(lam, value)
    return WaterfillOutcome(
        accepted=True, lam=lam, speed=s, loads=loads, planned_work=placed
    )


def yds_reference(instance: Instance, *, grid: Grid | None = None) -> YdsResult:
    """YDS with the historical literal critical-window scan each round.

    The frozen oracle of :func:`repro.classical.yds.yds`, whose
    vectorized prefix-workload scan replaced the literal O(E^2 · n)
    rescan below; the parity suite asserts identical groups, speeds,
    segments and schedules.
    """
    return _yds(instance, grid, _critical_window_reference)


def _critical_window_reference(
    instance: Instance, remaining: set, events: list, frozen: IntervalSet
) -> tuple[float, float, float, list[int]]:
    """The historical literal critical-window scan (O(E^2 · n)), verbatim."""
    best: tuple[float, float, float, list[int]] | None = None
    for ai in range(len(events)):
        for bi in range(ai + 1, len(events)):
            a, b = events[ai], events[bi]
            inside = [
                j
                for j in remaining
                if instance[j].release >= a - _EPS
                and instance[j].deadline <= b + _EPS
            ]
            if not inside:
                continue
            avail = (b - a) - frozen.measure_within(a, b)
            if avail <= _EPS:
                raise SolverError(
                    f"no available time left in candidate window [{a}, {b}] "
                    "yet jobs remain — inconsistent frozen state"
                )
            g = sum(instance[j].workload for j in inside) / avail
            if best is None or g > best[0] + _EPS:
                best = (g, a, b, inside)
    if best is None:  # pragma: no cover - remaining non-empty implies a window
        raise SolverError("no critical window found")
    return best
