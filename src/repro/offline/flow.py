"""Max-flow feasibility for preemptive multiprocessor deadline scheduling.

Horn's classical criterion (1974): a set of jobs with release times,
deadlines, and processing times ``p_j`` is feasible on ``m`` identical
processors with preemption and migration **iff** the following network
admits a flow of value ``sum(p_j)``:

* source → job ``j`` with capacity ``p_j``,
* job ``j`` → atomic interval ``T_k`` (for ``T_k ⊆ [r_j, d_j)``) with
  capacity ``l_k`` — a job occupies at most one processor at a time,
* interval ``T_k`` → sink with capacity ``m * l_k`` — the interval offers
  ``m`` processors.

With speed-scalable processors pinned to one common speed ``s``, the
processing times are ``w_j / s``; scanning ``s`` with this oracle gives
the *minimal uniform speed* — the schedule a machine without dynamic
speed scaling would have to run at. Its energy is the natural
"no speed scaling" baseline the paper's introduction argues against, and
:func:`run_uniform_speed` packages it as a standard :class:`Schedule` so
every experiment can compare against it (see E13).

The oracle is also an *independent verifier*: it rests on networkx's
max-flow, not on any scheduling code of this library, so agreeing with
Chen et al.'s constructive layout is a meaningful cross-check (the
test-suite runs both on random instances).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from ..errors import InvalidParameterError, SolverError
from ..model.intervals import Grid, grid_for_instance
from ..model.job import Instance
from ..model.schedule import Schedule
from ..types import FloatArray, left_sum

__all__ = [
    "FlowFeasibility",
    "UniformSpeedResult",
    "check_feasible_at_speed",
    "minimal_uniform_speed",
    "run_uniform_speed",
]

#: Relative slack when comparing the max-flow value against the demand.
_FLOW_TOL = 1e-9


@dataclass(frozen=True)
class FlowFeasibility:
    """Outcome of one Horn feasibility check.

    Attributes
    ----------
    feasible:
        Whether the demand is met.
    flow_value:
        Total time units of processing the network routes.
    demand:
        ``sum(w_j / s)`` over the checked jobs.
    busy_time:
        ``(n, N)`` matrix of time units job ``j`` runs during interval
        ``k`` in the witness flow (rows of unchecked jobs are zero).
    speed:
        The common speed checked.
    """

    feasible: bool
    flow_value: float
    demand: float
    busy_time: FloatArray
    speed: float

    def loads(self) -> FloatArray:
        """Witness work assignment: ``busy_time * speed`` per cell."""
        return self.busy_time * self.speed


def check_feasible_at_speed(
    instance: Instance,
    speed: float,
    *,
    accepted: tuple[int, ...] | None = None,
    grid: Grid | None = None,
) -> FlowFeasibility:
    """Horn's max-flow feasibility check at one common speed.

    Parameters
    ----------
    instance:
        Machine environment and job set.
    speed:
        The single speed every busy processor runs at; must be positive.
    accepted:
        Job ids to schedule; defaults to all jobs.
    grid:
        Atomic grid to route flow over; defaults to the instance's.

    Notes
    -----
    Capacities stay as floats; networkx's preflow-push is exact up to
    float arithmetic and the ``_FLOW_TOL`` relative slack absorbs the
    rounding. Witness flows are therefore accurate to ~1e-12 of the
    horizon, far below the scheduling tolerances used elsewhere.
    """
    if speed <= 0.0:
        raise InvalidParameterError(f"speed must be > 0, got {speed}")
    ids = tuple(range(instance.n)) if accepted is None else tuple(accepted)
    g = grid if grid is not None else grid_for_instance(instance)

    graph = nx.DiGraph()
    source, sink = "s", "t"
    demand = 0.0
    lengths = g.lengths
    for j in ids:
        job = instance[j]
        p_j = job.workload / speed
        demand += p_j
        graph.add_edge(source, ("job", j), capacity=p_j)
        for k in g.covering(job.release, job.deadline):
            graph.add_edge(("job", j), ("iv", k), capacity=float(lengths[k]))
    for k in range(g.size):
        if graph.has_node(("iv", k)):
            graph.add_edge(
                ("iv", k), sink, capacity=instance.m * float(lengths[k])
            )

    if demand == 0.0:
        return FlowFeasibility(
            feasible=True,
            flow_value=0.0,
            demand=0.0,
            busy_time=np.zeros((instance.n, g.size)),
            speed=speed,
        )

    flow_value, flow_dict = nx.maximum_flow(graph, source, sink)
    busy = np.zeros((instance.n, g.size))
    for j in ids:
        for node, amount in flow_dict.get(("job", j), {}).items():
            if amount > 0.0:
                _, k = node
                busy[j, k] = amount
    feasible = flow_value >= demand * (1.0 - _FLOW_TOL)
    return FlowFeasibility(
        feasible=feasible,
        flow_value=float(flow_value),
        demand=float(demand),
        busy_time=busy,
        speed=speed,
    )


def _speed_lower_bound(instance: Instance, ids: tuple[int, ...]) -> float:
    """Analytic lower bounds on the minimal uniform speed.

    Two necessary conditions: every job alone needs its density, and
    every window ``[t1, t2]`` needs the work fully inside it to fit on
    ``m`` processors. Both are classical; together they are not always
    sufficient (that is what the flow check is for) but they bracket the
    bisection tightly from below.
    """
    best = 0.0
    events = sorted(
        {instance[j].release for j in ids} | {instance[j].deadline for j in ids}
    )
    for j in ids:
        job = instance[j]
        best = max(best, job.workload / job.span)
    for a_idx, t1 in enumerate(events):
        for t2 in events[a_idx + 1 :]:
            inside = left_sum(
                instance[j].workload
                for j in ids
                if instance[j].release >= t1 and instance[j].deadline <= t2
            )
            if inside > 0.0:
                best = max(best, inside / (instance.m * (t2 - t1)))
    return best


def minimal_uniform_speed(
    instance: Instance,
    *,
    accepted: tuple[int, ...] | None = None,
    rel_tol: float = 1e-9,
    max_iters: int = 200,
) -> float:
    """Smallest common speed at which the accepted jobs are feasible.

    Bisects between the analytic lower bound (often already tight) and a
    doubling upper bound, with Horn's oracle deciding each probe.
    """
    ids = tuple(range(instance.n)) if accepted is None else tuple(accepted)
    if not ids:
        raise InvalidParameterError("no jobs to schedule")
    grid = grid_for_instance(instance)
    lo = _speed_lower_bound(instance, ids)
    if lo <= 0.0:  # pragma: no cover - jobs have positive workloads
        raise SolverError("degenerate lower bound")
    if check_feasible_at_speed(instance, lo, accepted=ids, grid=grid).feasible:
        return lo
    hi = lo
    for _ in range(60):
        hi *= 2.0
        if check_feasible_at_speed(instance, hi, accepted=ids, grid=grid).feasible:
            break
    else:  # pragma: no cover - doubling covers any finite instance
        raise SolverError("no feasible uniform speed found")
    for _ in range(max_iters):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if check_feasible_at_speed(instance, mid, accepted=ids, grid=grid).feasible:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class UniformSpeedResult:
    """The fixed-frequency baseline: busy at one speed, idle otherwise.

    ``schedule`` holds the witness work assignment (it validates against
    the model and renders like any other schedule), but its *own* energy
    figure would let speeds sag inside underfull intervals — that would
    be dynamic speed scaling again. A fixed-frequency machine has no such
    freedom, so the baseline's energy is computed at the pinned speed:
    ``sum(w_j) * speed**(alpha - 1)`` over the accepted jobs.
    """

    schedule: Schedule
    speed: float

    @property
    def energy(self) -> float:
        """Energy at the pinned speed (>= the schedule's internal figure)."""
        instance = self.schedule.instance
        work = float(instance.workloads[self.schedule.finished].sum())
        return work * self.speed ** (instance.alpha - 1.0)

    @property
    def lost_value(self) -> float:
        return self.schedule.lost_value

    @property
    def cost(self) -> float:
        """Fixed-frequency analogue of Equation (1)."""
        return self.energy + self.lost_value


def run_uniform_speed(
    instance: Instance,
    *,
    accepted: tuple[int, ...] | None = None,
    speed: float | None = None,
    rel_tol: float = 1e-9,
) -> UniformSpeedResult:
    """The "no dynamic speed scaling" baseline.

    Runs the accepted jobs (default: all) at one common speed — the
    minimal feasible one unless ``speed`` is given — using the witness
    flow as the work assignment. This is exactly what fixed-frequency
    hardware would do, so its energy quantifies what dynamic speed
    scaling buys (the paper's opening argument; E13).

    Raises
    ------
    InvalidParameterError
        If an explicit ``speed`` is infeasible for the accepted set.
    """
    ids = tuple(range(instance.n)) if accepted is None else tuple(accepted)
    grid = grid_for_instance(instance)
    s = minimal_uniform_speed(
        instance, accepted=ids, rel_tol=rel_tol
    ) if speed is None else float(speed)
    witness = check_feasible_at_speed(instance, s, accepted=ids, grid=grid)
    if not witness.feasible:
        raise InvalidParameterError(
            f"speed {s} is infeasible for the accepted set"
        )
    loads = witness.loads()
    # Flow may route epsilon less than the workload; patch rounding dust
    # onto the largest cell so finish accounting is exact.
    for j in ids:
        deficit = instance[j].workload - float(loads[j].sum())
        if deficit > 1e-6 * instance[j].workload:  # pragma: no cover
            raise SolverError(
                f"witness flow shorts job {j} by {deficit}; tolerance bug"
            )
        if deficit > 0.0:
            loads[j, int(np.argmax(loads[j]))] += deficit
    finished = np.zeros(instance.n, dtype=bool)
    finished[list(ids)] = True
    schedule = Schedule(
        instance=instance, grid=grid, loads=loads, finished=finished
    )
    schedule.validate()
    return UniformSpeedResult(schedule=schedule, speed=s)
