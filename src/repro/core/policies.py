"""Admission-policy comparators: what does PD's *rejection rule* buy?

PD makes two interleaved choices: *which* jobs to finish (admission) and
*where* to place their work (scheduling). To attribute cost to each
choice, this module runs the same online placement engine (PD's
water-filling, never revisiting committed work) under different admission
policies:

* ``accept-all`` — finish everything; the classical regime. Its cost
  explodes when low-value tight jobs show up.
* ``reject-all`` — finish nothing; cost = total value. The trivial upper
  bound every sane policy must beat.
* ``solo-threshold`` — a *static* version of PD's rule: admit job ``j``
  iff its solo energy (constant speed over its own window on an empty
  machine) is at most ``alpha**(alpha-2) * v_j``. This is what PD's
  Section 3 policy degenerates to when the machine is idle; comparing it
  to real PD isolates the value of pricing against the *current load*.
* ``oracle-admission`` — admit exactly the offline optimum's acceptance
  set (computed by the exact solver), then place online. The gap between
  this and the offline optimum is pure *placement* regret; the gap
  between PD and this is pure *admission* regret. (Complementary to
  :mod:`repro.analysis.hindsight`, which decomposes the same two regrets
  analytically.)

All policies return a standard :class:`PolicyResult` and are registered
with :data:`repro.engine.REGISTRY` under the names above.
E15 sweeps value scales and shows the ranking the design predicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance
from ..model.power import optimal_constant_speed_energy
from ..model.schedule import Schedule
from .pd import PDResult, run_pd

__all__ = [
    "PolicyResult",
    "run_accept_all",
    "run_reject_all",
    "run_solo_threshold",
    "run_oracle_admission",
    "run_with_admission",
]

#: Value high enough that PD treats a job as must-finish.
_FORCE_VALUE = 1e30


@dataclass(frozen=True)
class PolicyResult:
    """Outcome of an admission policy + online placement.

    Attributes
    ----------
    policy:
        Human-readable policy name.
    schedule:
        Full-instance schedule; non-admitted jobs are unfinished and pay
        their value.
    admitted_ids:
        Job ids (arrival order of the sorted instance) the policy chose.
    inner:
        The placement run on the admitted sub-instance, when one was
        needed (``None`` for ``reject-all``).
    """

    policy: str
    schedule: Schedule
    admitted_ids: tuple[int, ...]
    inner: PDResult | None

    @property
    def cost(self) -> float:
        return self.schedule.cost


def run_with_admission(
    instance: Instance, admitted_ids: tuple[int, ...], *, policy: str
) -> PolicyResult:
    """Place an externally chosen acceptance set with PD's engine.

    Admitted jobs get their values raised to a must-finish sentinel so the
    water-filling engine never rejects them; everything else never enters
    the machine. The returned schedule is expressed on the *full*
    instance (original values), so costs are comparable across policies.
    """
    ordered = instance.sorted_by_release()
    ids = tuple(sorted(set(admitted_ids)))
    for j in ids:
        if not (0 <= j < ordered.n):
            raise InvalidParameterError(f"admitted id {j} out of range")
    from ..model.intervals import grid_for_instance

    if not ids:
        return PolicyResult(
            policy=policy,
            schedule=Schedule.empty(ordered, grid_for_instance(ordered)),
            admitted_ids=(),
            inner=None,
        )

    sub = ordered.restrict(ids).with_values([_FORCE_VALUE] * len(ids))
    inner = run_pd(sub)
    if not inner.accepted_mask.all():  # pragma: no cover - sentinel forces
        raise InvalidParameterError("placement engine rejected a forced job")

    # Re-express the sub-run's loads on the full instance's grid. The
    # sub-grid's boundaries are a subset of the full grid's (admitted
    # jobs' events are a subset of all events), so each sub-interval maps
    # onto a contiguous run of full intervals; splitting proportionally
    # to length leaves speeds — hence energy — unchanged (Section 3).
    full_grid = grid_for_instance(ordered)
    sub_grid = inner.schedule.grid
    loads = np.zeros((ordered.n, full_grid.size))
    finished = np.zeros(ordered.n, dtype=bool)
    full_lengths = full_grid.lengths
    for row, j in enumerate(ids):
        finished[j] = True
        for k in range(sub_grid.size):
            amount = float(inner.schedule.loads[row, k])
            if amount <= 0.0:
                continue
            a, b = sub_grid.interval(k)
            cover = list(full_grid.covering(a, b))
            total_len = float(full_lengths[cover].sum())
            for fk in cover:
                loads[j, fk] += amount * float(full_lengths[fk]) / total_len
    schedule = Schedule(
        instance=ordered, grid=full_grid, loads=loads, finished=finished
    )
    return PolicyResult(
        policy=policy, schedule=schedule, admitted_ids=ids, inner=inner
    )


def run_accept_all(instance: Instance) -> PolicyResult:
    """Admit every job, place online."""
    ordered = instance.sorted_by_release()
    return run_with_admission(
        ordered, tuple(range(ordered.n)), policy="accept-all"
    )


def run_reject_all(instance: Instance) -> PolicyResult:
    """Admit nothing; cost is the total value."""
    return run_with_admission(instance, (), policy="reject-all")


def run_solo_threshold(
    instance: Instance, *, factor: float | None = None
) -> PolicyResult:
    """Static admission: solo energy vs ``factor * value``.

    ``factor`` defaults to the paper's ``alpha**(alpha-2)`` — the
    idle-machine specialization of PD's dynamic rule.
    """
    ordered = instance.sorted_by_release()
    c = ordered.alpha ** (ordered.alpha - 2.0) if factor is None else factor
    if c <= 0.0:
        raise InvalidParameterError(f"factor must be > 0, got {c}")
    admitted = tuple(
        j
        for j in range(ordered.n)
        if optimal_constant_speed_energy(
            ordered.alpha, ordered[j].workload, ordered[j].span
        )
        <= c * ordered[j].value
    )
    return run_with_admission(ordered, admitted, policy="solo-threshold")


def run_oracle_admission(instance: Instance) -> PolicyResult:
    """Admit the offline optimum's acceptance set, place online.

    Needs the exact solver, so instance sizes are limited to its
    enumeration budget (n <= 18).
    """
    from ..offline.optimal import solve_exact

    ordered = instance.sorted_by_release()
    solution = solve_exact(ordered)
    return run_with_admission(
        ordered, tuple(solution.accepted), policy="oracle-admission"
    )


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


def _policy_adapter(fn):
    def runner(instance: Instance):
        result = fn(instance)
        return result.schedule, result

    return runner


for _name, _fn, _online, _summary in (
    ("accept-all", run_accept_all, True, "admit every job (classical regime)"),
    ("reject-all", run_reject_all, True, "admit nothing; pay the total value"),
    (
        "solo-threshold",
        run_solo_threshold,
        True,
        "static admission by solo energy vs alpha^(alpha-2) * value",
    ),
    (
        "oracle-admission",
        run_oracle_admission,
        False,
        "admit the offline optimum's acceptance set, place online",
    ),
):
    register_algorithm(
        _name,
        profit_aware=True,
        online=_online,
        multiprocessor=True,
        summary=_summary,
    )(_policy_adapter(_fn))
