"""Optimal Available (OA) — the classical online speed-scaling algorithm.

OA (Yao, Demers, Shenker 1995) maintains, at every moment, the schedule
that would be optimal if no further jobs arrived: whenever a job arrives,
it recomputes the YDS-optimal plan for all *remaining* work (released
jobs' unfinished portions, usable from "now" on) and follows that plan
until the next arrival. Bansal, Kimbrel & Pruhs proved OA is exactly
``alpha**alpha``-competitive — the same constant the paper's PD achieves
*including* job values and multiple processors.

Besides the classic single-processor :func:`run_oa`, the module provides
:func:`oa_plan`, the one-shot full planning step (qOA's replan and the
from-scratch oracle :func:`repro.perf.reference.oa_segments_reference`),
and a multiprocessor variant
:func:`run_oa_multiprocessor` that substitutes our convex solver for the
Albers–Antoniadis–Greiner exact offline algorithm (see DESIGN.md,
"Substitutions"). The incremental planner — :class:`_LazyPlan`, which
generates YDS rounds on demand, and its EDF consumer
:func:`_execute_plan_prefix` — also runs the Chan–Lam–Li profitable
scheduler (:mod:`repro.core.cll`): its admission test stops at the round
that freezes the candidate. A plan's frozen time is always the one block
``[now, front]``, so its rounds carry the float ``front`` where full YDS
carries an :class:`~repro.classical.timeline.IntervalSet`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import InvalidParameterError, SolverError
from ..model.job import Instance, Job
from ..model.schedule import Schedule
from ..types import left_sum
from .execution import schedule_from_segments
from .timeline import IntervalSet, edf_execute
from .yds import YdsResult, yds

__all__ = ["OAResult", "oa_plan", "oa_segments", "run_oa", "run_oa_multiprocessor"]

_EPS = 1e-12
_WORK_TOL = 1e-9


@dataclass(frozen=True)
class OAResult:
    """An OA run: the realized schedule plus the executed segments."""

    schedule: Schedule
    segments: tuple[tuple[int, float, float, float], ...]

    @property
    def energy(self) -> float:
        return self.schedule.energy

    @property
    def cost(self) -> float:
        return self.schedule.cost


def oa_plan(
    *,
    now: float,
    job_ids: list[int],
    remaining: dict[int, float],
    deadlines: dict[int, float],
    alpha: float,
) -> YdsResult:
    """The plan OA commits to at time ``now``: YDS on the remaining work.

    Jobs are re-released at ``now`` (their original releases are in the
    past) and keep their deadlines; values are irrelevant at this layer.
    """
    alive = [
        j
        for j in job_ids
        if remaining.get(j, 0.0) > _WORK_TOL and deadlines[j] > now + _EPS
    ]
    if not alive:
        raise InvalidParameterError("oa_plan called with no remaining work")
    sub = Instance(
        tuple(
            Job(
                release=now,
                deadline=deadlines[j],
                workload=remaining[j],
                value=1.0,
                name=f"plan-{j}",
            )
            for j in alive
        ),
        m=1,
        alpha=alpha,
    )
    result = yds(sub)
    # Re-key the plan's internal ids (positions in `sub`) to caller ids.
    remap = {i: alive[i] for i in range(len(alive))}
    segments = tuple(
        (remap[j], a, b, s) for (j, a, b, s) in result.segments
    )
    speeds = np.zeros(max(job_ids) + 1)
    for i, j in remap.items():
        speeds[j] = result.job_speeds[i]
    return YdsResult(
        schedule=result.schedule,
        job_speeds=speeds,
        groups=result.groups,
        segments=segments,
    )


class _PlanJob:
    """A plan-instance job for the critical-window scan: 3 plain floats.

    The scan (:func:`_plan_window`, and YDS's own ``_critical_window``
    the differential suite runs it against) only reads
    ``instance[j].release/.deadline/.workload``, so a plain list of these
    stands in for a sub-``Instance``: it serves the exact floats a
    materialized sub-instance's ``Job`` objects would hold, without
    constructing any of them.
    """

    __slots__ = ("release", "deadline", "workload")

    def __init__(self, release: float, deadline: float, workload: float) -> None:
        self.release = release
        self.deadline = deadline
        self.workload = workload


#: One YDS round of a plan: ``(g, b, job_ids, region)`` — the group's
#: speed, its window's right end, its sub-job ids, and its frozen region.
_Round = tuple[float, float, tuple[int, ...], IntervalSet]


class _LazyPlan:
    """OA's plan at ``now`` for ``alive``: YDS rounds on demand, memoized.

    Every plan job shares release ``now``, so the YDS rounds have a
    special structure: each round's critical window is ``[now, b_i]``
    with ``b_1 < b_2 < ...`` (only windows anchored at the common release
    contain jobs), the frozen set stays one contiguous block
    ``[now, b_i]``, and round ``i``'s EDF segments all live inside
    ``[b_{i-1}, b_i]``. Each round depends only on the rounds before it,
    so a consumer can stop after the rounds it needs: OA's execution at
    the first round past the next arrival, CLL's admission test at the
    round that freezes its candidate. The rounds that *are* generated
    find their window with :func:`_plan_window`, which replays the one
    row of YDS's critical-window scan that this structure leaves live,
    float for float, and freeze it by advancing the block's right end
    ``front`` (:func:`_yds_rounds`). Iterating a plan twice replays the
    memoized rounds before generating more.

    Sub-job ids are positions in ``alive`` — the relabeling ``oa_plan``
    applies to its (filtered) ``job_ids``, so every id-based tie-break
    inside the scan and the EDF heap orders identically. ``workloads``
    are the plan's inputs, snapshotted: executing the plan mutates the
    caller's ``remaining`` dict, never the plan.
    """

    __slots__ = ("alive", "workloads", "view", "_rounds", "_source")

    def __init__(
        self,
        now: float,
        alive: list[int],
        workloads: list[float],
        deadlines: Mapping[int, float] | Sequence[float],
    ) -> None:
        self.alive = alive
        self.workloads = workloads
        self.view = [
            _PlanJob(now, deadlines[j], w) for j, w in zip(alive, workloads)
        ]
        self._rounds: list[_Round] = []
        self._source = _yds_rounds(self.view, len(alive), now)

    def __iter__(self) -> Iterator[_Round]:
        """The plan's rounds in discovery order, memoized ones first."""
        rounds = self._rounds
        i = 0
        while True:
            if i == len(rounds):
                nxt = next(self._source, None)
                if nxt is None:
                    return
                rounds.append(nxt)
            yield rounds[i]
            i += 1

    def speed_of(self, pos: int) -> float:
        """Planned speed of sub-job ``pos``: its critical group's intensity."""
        for g, _, job_ids, _ in self:
            if pos in job_ids:
                return g
        raise SolverError(f"sub-job {pos} was never frozen")  # pragma: no cover


def _plan_window(
    view: Sequence[_PlanJob],
    remaining: set[int],
    events: list[float],
    front: float,
) -> tuple[float, float, float, list[int]]:
    """YDS's critical window for a common-release plan, in one pass.

    ``yds._critical_window`` streams one row per candidate start
    ``events[ai]``, but in a plan every job has release ``now ==
    events[0]`` and a deadline past ``now + _EPS``: each job's last
    eligible start row is 0, so only windows ``[now, events[bi]]`` hold
    jobs and that scan never gets past its first row. This replays that
    row's floats in plain Python:

    * per-event workload buckets (a job's bucket is the first event at
      or after ``deadline - _EPS``), summed in ascending sub-job id order
      like ``np.add.at``;
    * the running prefix over the buckets, as ``np.cumsum`` accumulates;
    * the frozen measure below each event. The frozen set of a plan is
      the one block ``[now, front]`` (see :func:`_yds_rounds`), so YDS's
      sum of one ``min(t, hi) - lo`` term per part, where a
      non-positive term adds an exact zero, is the single term
      ``max(min(t, front) - now, 0.0)``, and the winner's
      ``measure_within`` is ``max(0.0, min(front, b) - now)``;
    * the same ``SolverError`` at the first occupied window with no
      available time, and the sequential ``g > best + _EPS`` rule in
      ascending deadline order.

    The winner's members and intensity are then re-derived with the
    literal reference operations, as ``_critical_window`` does, so the
    result is bitwise its ``(g, a, b, inside)``. A view that breaks the
    common-release structure raises ``SolverError``.
    """
    now = events[0]
    big_e = len(events)
    bucket = [0.0] * big_e
    members = [0] * big_e
    for j in sorted(remaining):
        job = view[j]
        if job.release != now or not job.deadline > now + _EPS:
            raise SolverError(
                f"plan job {j} breaks the common-release structure: "
                f"window [{job.release}, {job.deadline}] at now={now}"
            )
        k = bisect_left(events, job.deadline - _EPS)
        bucket[k] += job.workload
        members[k] += 1

    inside_work = bucket[0]
    count = members[0]
    best = 0
    best_val = -math.inf
    for bi in range(1, big_e):
        inside_work += bucket[bi]
        count += members[bi]
        if not count:
            continue
        t = events[bi]
        avail = (t - now) - max(min(t, front) - now, 0.0)
        if avail <= _EPS:
            raise SolverError(
                f"no available time left in candidate window [{now}, {t}] "
                "yet jobs remain — inconsistent frozen state"
            )
        g = inside_work / avail
        if g > best_val + _EPS:
            best_val = g
            best = bi
    if not best:  # pragma: no cover - remaining non-empty implies a window
        raise SolverError("no critical window found")
    a, b = now, events[best]
    inside = [
        j
        for j in remaining
        if view[j].release >= a - _EPS and view[j].deadline <= b + _EPS
    ]
    avail = (b - a) - max(0.0, min(front, b) - now)
    if avail <= _EPS:  # pragma: no cover - caught by the scan
        raise SolverError(
            f"no available time left in candidate window [{a}, {b}] "
            "yet jobs remain — inconsistent frozen state"
        )
    g = left_sum(view[j].workload for j in inside) / avail
    return g, a, b, inside


def _yds_rounds(view: list[_PlanJob], count: int, now: float) -> Iterator[_Round]:
    """YDS's round loop over a plan view, one round per ``next``.

    Every round's window is ``[now, b]``, and ``b`` passes every earlier
    round's, so the frozen set is the one block ``[now, front]`` and a
    round's region is ``[front, b]``: the floats YDS's ``subtract`` and
    ``union`` produce from them, without the set algebra.
    """
    rem_sub = set(range(count))
    front = now
    while rem_sub:
        events = sorted(
            {view[j].release for j in rem_sub}
            | {view[j].deadline for j in rem_sub}
        )
        g, _, b, inside = _plan_window(view, rem_sub, events, front)
        region = IntervalSet.empty()
        if b > front + _EPS:
            region, front = IntervalSet.span(front, b), b
        rem_sub -= set(inside)
        yield g, b, tuple(sorted(inside)), region


def _execute_plan_prefix(
    plan: _LazyPlan,
    *,
    t_next: float,
    remaining: dict[int, float],
    executed: list[tuple[int, float, float, float]],
    on_finish: Callable[[int], None],
) -> None:
    """Execute one OA epoch: the plan's EDF segments before ``t_next``.

    The from-scratch replan (``oa_plan`` + segment walk, kept as
    :func:`repro.perf.reference.oa_segments_reference`) computes the
    *entire* YDS plan for the remaining work and then discards
    everything after the next arrival. This consumer realizes the
    plan's rounds one at a time and stops at the first round whose
    window ends at or past ``t_next``: every segment the reference
    would still produce starts at or after that boundary and is
    dropped by its own
    ``a >= t_next - _EPS`` break. Each realized round runs through the
    same ``edf_execute`` on the same floats, so the executed prefix is
    bitwise the reference's (asserted by the parity suite on every
    differential case). ``on_finish(job)`` fires when a job's remaining
    work drops to the work tolerance.
    """
    alive = plan.alive
    view = plan.view
    for g, b, job_ids, region in plan:
        segs = edf_execute(
            job_ids=list(job_ids),
            releases=[view[j].release for j in job_ids],
            deadlines=[view[j].deadline for j in job_ids],
            workloads=[view[j].workload for j in job_ids],
            region=region,
            speed=g,
        )
        for j_sub, sa, sb, speed in segs:
            if sa >= t_next - _EPS:
                return
            hi = min(sb, t_next)
            if hi <= sa + _EPS:
                continue
            job = alive[j_sub]
            executed.append((job, sa, hi, speed))
            remaining[job] -= (hi - sa) * speed
            if remaining[job] < 0.0:
                remaining[job] = 0.0
            if remaining[job] <= _WORK_TOL:
                on_finish(job)
        if b >= t_next - _EPS:
            # Every later round's segments start at or after this
            # window's end — the reference drops them all.
            return


def oa_segments(
    instance: Instance,
) -> tuple[Instance, list[tuple[int, float, float, float]]]:
    """Simulate OA and return ``(ordered_instance, executed_segments)``.

    The segment-level core of :func:`run_oa`, exposed separately so
    large-scale callers (the bench harness) can consume the executed
    trajectory without materializing the dense schedule matrix.

    Each epoch's YDS plan is generated lazily (:class:`_LazyPlan`) and
    executed only up to the first critical interval past the next
    arrival (:func:`_execute_plan_prefix`). The per-epoch bookkeeping
    runs in batched passes, so every plan round sees the same ``alive``
    lists as the from-scratch replan, whose executed segments
    (:func:`repro.perf.reference.oa_segments_reference`) these equal
    bit for bit:

    * the epoch list comes from one ``np.unique`` (the same floats as
      ``sorted(set(...))`` over the release column);
    * the known-prefix advance collapses to one vectorized
      ``searchsorted`` of every ``t + _EPS`` against the release column;
    * the alive jobs are an append-only ascending id list with
      tombstone deletions (ids enter in release order, so the list
      never needs sorting), compacted when more than half its entries
      are dead;
    * the unfinished jobs are a counter, making the "any work left"
      test O(1) without set churn. A job reports its finish once: every
      plan job is released at ``now`` and each round's region is the
      single block ``[b_prev, b]``, so EDF gives a job one segment per
      epoch, and a finished job is tombstoned before the next epoch.
    """
    if instance.m != 1:
        raise InvalidParameterError(
            f"run_oa is single-processor; instance has m={instance.m}. "
            "Use run_oa_multiprocessor for m > 1."
        )
    if instance.n == 0:
        raise InvalidParameterError("OA needs at least one job")
    ordered = instance.sorted_by_release()
    releases = ordered.releases
    deadlines_arr = ordered.deadlines
    workloads = ordered.workloads
    epochs_arr = np.unique(releases)
    horizon_end = float(deadlines_arr.max())
    # Batched known-prefix counts: the known jobs are those with
    # `releases[j] <= t + _EPS`; side="right" at t + _EPS is that exact
    # boundary, for every epoch in one pass.
    counts = np.searchsorted(releases, epochs_arr + _EPS, side="right").tolist()
    epochs = epochs_arr.tolist()

    remaining = dict(enumerate(workloads.tolist()))
    deadlines = dict(enumerate(deadlines_arr.tolist()))
    addable = (workloads > _WORK_TOL).tolist()
    executed: list[tuple[int, float, float, float]] = []

    alive_list: list[int] = []
    dead: set[int] = set()
    unfinished_count = 0
    known = 0

    def on_finish(j: int) -> None:
        nonlocal unfinished_count
        unfinished_count -= 1
        dead.add(j)

    for idx, t in enumerate(epochs):
        t_next = epochs[idx + 1] if idx + 1 < len(epochs) else horizon_end
        kc = counts[idx]
        while known < kc:
            if addable[known]:
                alive_list.append(known)
                unfinished_count += 1
            known += 1
        if not unfinished_count:
            continue
        if len(dead) > len(alive_list) // 2:
            alive_list = [j for j in alive_list if j not in dead]
            dead.clear()
        alive = []
        for j in alive_list:
            if j in dead:
                continue
            if deadlines[j] > t + _EPS:
                alive.append(j)
            else:
                # A passed deadline never un-passes: tombstone for good.
                dead.add(j)
        if not alive:
            # Work remains but nothing is plannable — the exact state in
            # which the from-scratch replan's oa_plan raises.
            raise InvalidParameterError("oa_plan called with no remaining work")
        _execute_plan_prefix(
            _LazyPlan(t, alive, [remaining[j] for j in alive], deadlines),
            t_next=t_next,
            remaining=remaining,
            executed=executed,
            on_finish=on_finish,
        )

    return ordered, executed


def run_oa(instance: Instance) -> OAResult:
    """Simulate OA on a single-processor instance (all jobs are finished).

    Job values are ignored — OA predates the profitable model. The
    simulation advances from arrival epoch to arrival epoch, executing the
    current plan's EDF segments in between; see :func:`oa_segments`.
    """
    ordered, executed = oa_segments(instance)
    schedule = schedule_from_segments(
        ordered, executed, np.ones(ordered.n, dtype=bool)
    )
    return OAResult(schedule=schedule, segments=tuple(executed))


def run_oa_multiprocessor(instance: Instance) -> OAResult:
    """OA on ``m`` processors via the numeric convex optimum.

    At each arrival epoch the remaining work is re-optimized with the
    block-coordinate convex solver (our stand-in for the exact
    Albers–Antoniadis–Greiner offline algorithm) and the plan's Chen/
    McNaughton realization is executed until the next arrival. Exact on
    ``m == 1`` up to solver tolerance; used by the multiprocessor
    experiments as the natural OA generalization the paper compares
    against conceptually.
    """
    from ..offline.convex import solve_min_energy  # lazy: higher layer

    if instance.n == 0:
        raise InvalidParameterError("OA needs at least one job")
    ordered = instance.sorted_by_release()
    n = ordered.n
    releases = ordered.releases
    epochs = sorted(set(releases.tolist()))
    horizon_end = max(j.deadline for j in ordered.jobs)

    remaining = {j: ordered[j].workload for j in range(n)}
    executed: list[tuple[int, float, float, float]] = []

    for idx, t in enumerate(epochs):
        t_next = epochs[idx + 1] if idx + 1 < len(epochs) else horizon_end
        alive = [
            j
            for j in range(n)
            if releases[j] <= t + _EPS
            and remaining[j] > _WORK_TOL
            and ordered[j].deadline > t + _EPS
        ]
        if not alive:
            continue
        sub = Instance(
            tuple(
                Job(t, ordered[j].deadline, remaining[j], 1.0) for j in alive
            ),
            m=ordered.m,
            alpha=ordered.alpha,
        )
        plan = solve_min_energy(sub)
        for interval_schedule in plan.schedule.realize():
            for seg in interval_schedule.segments:
                if seg.start >= t_next - _EPS:
                    continue
                hi = min(seg.end, t_next)
                if hi <= seg.start + _EPS:
                    continue
                job = alive[seg.job]
                executed.append((job, seg.start, hi, seg.speed))
                remaining[job] -= (hi - seg.start) * seg.speed
                if remaining[job] < 0.0:
                    remaining[job] = 0.0

    schedule = schedule_from_segments(ordered, executed, np.ones(n, dtype=bool))
    return OAResult(schedule=schedule, segments=tuple(executed))


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


@register_algorithm(
    "oa",
    online=True,
    multiprocessor=True,
    summary="Optimal Available (alpha^alpha-competitive; m > 1 via dispatch)",
)
def _run_oa_registered(instance):
    result = run_oa(instance) if instance.m == 1 else run_oa_multiprocessor(instance)
    return result.schedule, result
