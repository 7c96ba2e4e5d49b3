"""The Chan–Lam–Li profitable scheduler (WAOA 2010) — PD's predecessor.

CLL handles job values on a *single* processor by bolting an admission
test onto Optimal Available: when a job arrives, compute the OA plan as if
the job were admitted; in that plan the new job runs at some constant
speed ``s`` (the intensity of its YDS critical group). Admit the job iff
its planned energy is worth it:

    ``w_j * s**(alpha-1) <= alpha**(alpha-2) * v_j``,

then keep following OA plans for the admitted jobs. Chan, Lam & Li proved
this is ``alpha**alpha + 2 e alpha``-competitive; the paper's PD
algorithm improves the bound to ``alpha**alpha`` (and generalizes to
multiple processors) while — as Section 3 of the paper observes — making
*exactly the same* accept/reject decisions as CLL in the single-processor
case when run with the optimal ``delta``. Experiment E6 verifies that
equivalence empirically; experiment E3 compares the costs.

Both halves of an epoch run on OA's lazy planner
(:class:`repro.classical.oa._LazyPlan`) instead of full replans: the
admission test generates YDS rounds only until the one that freezes the
candidate, and the execution half realizes only the prefix before the
next arrival — reusing the last admission's rounds when it planned the
same jobs with the same remaining work. The historical full-replan loop
is kept as :func:`repro.perf.reference.run_cll_reference`; the two agree
bit for bit wherever the reference returns. (It raises on an arrival
with no plannable work while nothing else is alive; here that arrival
plans at speed 0.)
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..classical.execution import schedule_from_segments
from ..classical.oa import _execute_plan_prefix, _LazyPlan
from ..errors import InvalidParameterError
from ..model.job import Instance
from ..model.schedule import Schedule
from ..types import FloatArray

__all__ = ["CLLResult", "run_cll", "cll_admits"]

_EPS = 1e-12
_WORK_TOL = 1e-9


@dataclass(frozen=True)
class CLLResult:
    """A CLL run: schedule, admissions, and the per-job planned speeds."""

    schedule: Schedule
    planned_speeds: FloatArray
    admission_thresholds: FloatArray

    @property
    def cost(self) -> float:
        return self.schedule.cost

    @property
    def accepted_mask(self) -> np.ndarray:
        return self.schedule.finished


def cll_admits(
    *, workload: float, value: float, planned_speed: float, alpha: float
) -> bool:
    """CLL's admission predicate: planned energy vs ``alpha**(alpha-2) * v``."""
    planned_energy = workload * planned_speed ** (alpha - 1.0)
    return planned_energy <= alpha ** (alpha - 2.0) * value * (1.0 + 1e-12)


def run_cll(instance: Instance) -> CLLResult:
    """Simulate CLL on a single-processor profitable instance."""
    if instance.m != 1:
        raise InvalidParameterError(
            f"CLL is a single-processor algorithm; instance has m={instance.m}"
        )
    if instance.n == 0:
        raise InvalidParameterError("CLL needs at least one job")
    ordered = instance.sorted_by_release()
    n = ordered.n
    alpha = ordered.alpha
    jobs = ordered.jobs
    # Deadlines as the float column, like the releases: an int deadline
    # past 2**53 would sit in the plan's event list beside the float
    # times its arithmetic rounds to, out of their order.
    deadlines = ordered.deadlines.tolist()
    releases = ordered.releases
    release_list = releases.tolist()

    admitted: list[bool] = [False] * n
    remaining: dict[int, float] = {}
    # Each admitted job's position in first-admission order (the order
    # `remaining` iterates in): the execution half lists its jobs in this
    # order, as the historical loop did, and it fixes the plan's sub-job
    # labels.
    rank: dict[int, int] = {}
    # Admitted jobs with work above the tolerance whose deadline had not
    # passed at the last epoch start: every job a plan can include.
    pool: set[int] = set()
    planned_speed = np.zeros(n)
    thresholds = np.zeros(n)
    executed: list[tuple[int, float, float, float]] = []

    epochs = sorted(set(release_list))
    horizon_end = max(deadlines)
    # Each epoch's arrivals are the jobs with |r - t| <= _EPS. A margin
    # of 2 * _EPS around t brackets every release that passes the
    # literal test; the test itself still runs on the slice, so a
    # release within _EPS of two epochs arrives at both.
    bounds = np.asarray(epochs)
    lows = np.searchsorted(releases, bounds - 2.0 * _EPS, side="left").tolist()
    highs = np.searchsorted(releases, bounds + 2.0 * _EPS, side="right").tolist()

    # Within an epoch, admit one job at a time so each admission sees the
    # previous one's load.
    for idx, t in enumerate(epochs):
        t_next = epochs[idx + 1] if idx + 1 < len(epochs) else horizon_end
        # A passed deadline never un-passes: prune for good.
        pool = {j for j in pool if deadlines[j] > t + _EPS}
        base = sorted(pool)
        plan: _LazyPlan | None = None
        for j in range(lows[idx], highs[idx]):
            if abs(release_list[j] - t) > _EPS:
                continue
            job = jobs[j]
            # The tentative plan: the live pool plus the candidate at its
            # full workload, ids ascending. A candidate with no plannable
            # work plans at speed 0.
            plan = None
            s = 0.0
            if job.workload > _WORK_TOL and deadlines[j] > t + _EPS:
                pos = bisect_left(base, j)
                ids = base
                work = [remaining[i] for i in base]
                if pos < len(base) and base[pos] == j:
                    work[pos] = job.workload
                else:
                    ids = base[:pos] + [j] + base[pos:]
                    work.insert(pos, job.workload)
                plan = _LazyPlan(t, ids, work, deadlines)
                s = plan.speed_of(pos)
            planned_speed[j] = s
            thresholds[j] = alpha ** ((alpha - 2.0) / (alpha - 1.0)) * (
                job.value / job.workload
            ) ** (1.0 / (alpha - 1.0))
            if cll_admits(
                workload=job.workload, value=job.value, planned_speed=s, alpha=alpha
            ):
                admitted[j] = True
                remaining[j] = job.workload
                rank.setdefault(j, len(rank))
                if plan is not None:
                    pool.add(j)
                    base = plan.alive

        # Execute the OA plan for admitted work until the next epoch.
        if not pool:
            continue
        alive = sorted(pool, key=rank.__getitem__)
        work = [remaining[j] for j in alive]
        if plan is None or plan.alive != alive or plan.workloads != work:
            plan = _LazyPlan(t, alive, work, deadlines)
        _execute_plan_prefix(
            plan,
            t_next=t_next,
            remaining=remaining,
            executed=executed,
            on_finish=pool.discard,
        )

    schedule = schedule_from_segments(
        ordered, executed, np.array(admitted, dtype=bool)
    )
    return CLLResult(
        schedule=schedule,
        planned_speeds=planned_speed,
        admission_thresholds=thresholds,
    )


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


def _cll_certificate(result: CLLResult):
    """Dual certificate from CLL's planned admission speeds.

    Accepted jobs get the PD-style price ``alpha * w_j * s_j**(alpha-1)``
    of the speed they were admitted at (clamped at the value, as PD's
    duals always are); rejected jobs pay their value — the dual vector
    PD would hold under the Section 3 equivalence. Weak duality makes
    ``g`` of *any* nonnegative duals a lower bound on OPT, so each
    candidate yields a certified ratio and the best (largest ``g``)
    wins; only PD's own duals additionally carry the ``alpha**alpha``
    guarantee. Damped variants are tried because CLL's planned speeds
    are admission-time snapshots, not equilibrium prices — the raw
    vector can overshoot into the concave region where ``g`` collapses.
    The three share one contributor pass wherever their ``(-s_hat,
    id)`` orders agree (:func:`~repro.analysis.certificates.certify`).
    """
    from ..analysis.certificates import certify

    schedule = result.schedule
    inst = schedule.instance
    alpha = inst.alpha
    prices = alpha * inst.workloads * result.planned_speeds ** (alpha - 1.0)
    lam = np.where(
        result.accepted_mask, np.minimum(prices, inst.values), inst.values
    )
    return certify(schedule.grid, inst, schedule.cost, lam, 0.5 * lam, 0.25 * lam)


@register_algorithm(
    "cll",
    profit_aware=True,
    online=True,
    multiprocessor=False,
    certificate=_cll_certificate,
    summary="Chan-Lam-Li admission-filtered OA (single processor)",
)
def _run_cll_registered(instance: Instance) -> tuple[Schedule, object]:
    result = run_cll(instance)
    return result.schedule, result
