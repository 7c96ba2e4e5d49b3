"""The paper's online primal-dual algorithm **PD** (Listing 1).

PD processes jobs in arrival order. For each new job it prices the job's
workload against the atomic intervals of its window using the marginal
energy of Chen et al.'s schedules (water-filling; see
:mod:`repro.core.waterfill`), then either

* **accepts**: fixes the per-interval assignment at the clearing price
  ``lambda_j < v_j`` (the assignment of *earlier* jobs is never moved —
  the structural difference from Optimal Available highlighted by the
  paper's Figure 3), or
* **rejects**: resets the tentative assignment and pays the value
  (``lambda_j = v_j``).

With the parameter ``delta = alpha**(1 - alpha)`` the resulting schedule
is ``alpha**alpha``-competitive on any number of processors (Theorem 3),
and every run carries a machine-checkable certificate: the dual value
``g(lambda~)`` computed by :mod:`repro.analysis.certificates` satisfies
``cost(PD) <= alpha**alpha * g(lambda~) <= alpha**alpha * cost(OPT)``.

Implementation note: the scheduler runs on the incremental kernels of
:mod:`repro.perf.kernels`. Each atomic interval owns a live
:class:`~repro.perf.kernels.IntervalLoads` store (descending-sorted
loads + suffix sums, maintained by sorted insertion on accept and
split-copy on refinement) instead of columns of a dense ``(n, N)``
matrix rebuilt per arrival; the dense matrices are materialized once,
in :meth:`PDScheduler.finish`. Every arrival runs through one scalar
core (:meth:`PDScheduler._arrive_row`): :meth:`PDScheduler.arrive` and
:func:`run_pd` feed it one row at a time, and
:meth:`PDScheduler.arrive_many` runs the epoch layer of
:mod:`repro.perf.epochs` on top of it. Jobs and decisions live in one
columnar store; ``Job`` and ``JobDecision`` objects materialize in
``finish()``. The outputs are bit-identical to the historical
implementation (kept as
:class:`repro.perf.reference.PDSchedulerReference` and differentially
tested), while the per-arrival cost drops from O(n·N) to
O(window + split intervals).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import InvalidParameterError
from ..model.intervals import _TIME_EPS, Grid, _fresh_points, _window
from ..model.job import Instance, Job, check_processor_count
from ..model.schedule import Schedule
from ..perf.kernels import IntervalLoads, WindowKernel, _opening_speed
from ..types import FloatArray
from .waterfill import waterfill_job

if TYPE_CHECKING:
    from ..model.job_arrays import JobArrays
    from .waterfill import WaterfillOutcome

__all__ = ["PDResult", "JobDecision", "PDScheduler", "run_pd"]


@dataclass(frozen=True)
class JobDecision:
    """Per-job record of what PD decided at arrival time.

    Attributes
    ----------
    job_id:
        Index of the job in the (arrival-ordered) instance.
    accepted:
        Whether PD finished the job (``y~_j``).
    lam:
        The dual variable ``lambda~_j``.
    planned_speed:
        The speed ``s~_j`` the job was priced at just before ``lambda_j``
        got fixed (Equation (10)).
    planned_loads:
        For rejected jobs: the loads PD *planned* just before rejecting
        (the paper's ``x̌``), keyed by the grid the job saw at arrival —
        re-expressed on the final grid, see :class:`PDResult`. Empty for
        accepted jobs (their final loads live in the schedule).
    """

    job_id: int
    accepted: bool
    lam: float
    planned_speed: float
    planned_work: float


@dataclass(frozen=True)
class PDResult:
    """Everything a PD run produces.

    ``schedule`` is the realized schedule; ``lambdas`` the dual vector
    ``lambda~`` (in job-id order of ``schedule.instance``);
    ``planned_loads`` holds, for every job, either its final loads
    (accepted) or the loads planned just before rejection (``x̌``), both
    on the final grid — the analysis package consumes these.
    """

    schedule: Schedule
    decisions: tuple[JobDecision, ...]
    lambdas: FloatArray
    planned_loads: FloatArray
    delta: float

    @property
    def cost(self) -> float:
        return self.schedule.cost

    @property
    def accepted_mask(self) -> np.ndarray:
        return self.schedule.finished

    def summary(self) -> str:
        """Human-readable run summary."""
        alpha = self.schedule.instance.alpha
        lines = [
            self.schedule.summary(),
            f"  delta = {self.delta:.6g} (optimal: {alpha ** (1 - alpha):.6g})",
        ]
        return "\n".join(lines)


class PDScheduler:
    """Stateful online scheduler implementing Listing 1.

    Feed jobs in non-decreasing release order via :meth:`arrive`; read the
    result off :meth:`finish`. The scheduler maintains the grid of atomic
    intervals induced by the jobs seen so far and refines it on each
    arrival, splitting frozen loads proportionally (the paper's
    load-preserving refinement, Section 3).

    Parameters
    ----------
    m, alpha:
        Machine environment.
    delta:
        Aggressiveness parameter; defaults to the Theorem 3 optimum
        ``alpha**(1 - alpha)`` (required explicitly when ``power``
        overrides the polynomial — no optimal default is known there).
    power:
        Power function override for the water-filling marginals. The
        paper's theory is for ``P(s) = s**alpha``; passing another convex
        :class:`~repro.model.power.PowerFunction` runs the same greedy
        primal-dual machinery in the generalized setting of
        :mod:`repro.general` (Gupta–Krishnaswamy–Pruhs framework). The
        ``alpha`` argument is then only used for result bookkeeping.
    """

    def __init__(
        self,
        *,
        m: int,
        alpha: float,
        delta: float | None = None,
        power=None,
    ) -> None:
        check_processor_count(m)
        from ..model.power import PolynomialPower

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
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise InvalidParameterError(
                f"delta must be finite and > 0, got {self.delta}"
            )

        #: The grid's boundaries and interval lengths as plain floats,
        #: updated in place of a numpy ``Grid`` on every refinement (the
        #: lengths are the same subtractions ``np.diff`` makes).
        self._bounds: list[float] = []
        self._lengths: list[float] = []
        #: The numpy ``Grid`` of ``_bounds``, built on demand (see
        #: :attr:`_grid`); None when stale.
        self._grid_cache: Grid | None = None
        #: One live sorted-load store per atomic interval (accepted work).
        self._states: list[IntervalLoads] = []
        #: Per interval, the planned ``(job_id, load)`` entries — final
        #: loads for accepted jobs, the pre-rejection ``x̌`` otherwise.
        self._planned: list[list[tuple[int, float]]] = []
        self._last_release = -np.inf
        #: The fed jobs in arrival order, held by reference: the ``Job``
        #: of each :meth:`arrive` call, or ``(arrays, count)`` for the
        #: first ``count`` rows of a fed :class:`JobArrays` block.
        #: Materialized into one ``Job`` tuple in :meth:`finish`.
        self._chunks: list[Job | tuple[JobArrays, int]] = []
        #: The decision columns, one entry per arrival: accepted, lambda,
        #: planned speed and planned work. Packed, not lists of Python
        #: objects: a million-job stream keeps them at 25 MB.
        self._accepted = bytearray()
        self._lams = array("d")
        self._speeds = array("d")
        self._planned_work = array("d")
        #: Per interval, the opening speed of its store
        #: (:func:`~repro.perf.kernels._opening_speed`), the epoch
        #: layer's zero-work settle key. None until that layer first
        #: asks (:meth:`_opening_speeds`), so a scheduler fed row by row
        #: never pays for it; kept current from then on wherever a store
        #: changes.
        self._open: list[float] | None = None

    # ------------------------------------------------------------------
    # Online interface
    # ------------------------------------------------------------------
    def arrive(self, job: Job) -> JobDecision:
        """Process the arrival of ``job`` and commit PD's decision."""
        job_id = self._count
        outcome = self._arrive_row(job.release, job.deadline, job.workload, job.value)
        self._chunks.append(job)
        return JobDecision(
            job_id=job_id,
            accepted=outcome.accepted,
            lam=outcome.lam,
            planned_speed=outcome.speed,
            planned_work=outcome.planned_work,
        )

    def arrive_many(self, arrays: JobArrays) -> None:
        """Process a columnar block of arrivals (release-ordered).

        Runs the epoch layer,
        :func:`repro.perf.epochs.arrive_epochs`: batched numpy passes over
        the columns around the scalar core, the same decisions as one
        :meth:`arrive` per row. Calls to the two may be interleaved.
        """
        from ..perf.epochs import arrive_epochs

        arrive_epochs(self, arrays)

    def finish(self) -> PDResult:
        """Assemble the final :class:`PDResult` after all arrivals."""
        jobs: list[Job] = []
        for chunk in self._chunks:
            if isinstance(chunk, Job):
                jobs.append(chunk)
                continue
            arrays, count = chunk
            jobs.extend(
                Job(release=r, deadline=d, workload=w, value=v)
                for r, d, w, v in zip(
                    arrays.releases[:count].tolist(),
                    arrays.deadlines[:count].tolist(),
                    arrays.workloads[:count].tolist(),
                    arrays.values[:count].tolist(),
                )
            )
        return self._finish(Instance(tuple(jobs), m=self.m, alpha=self._alpha))

    def snapshot_loads(self) -> FloatArray:
        """Dense ``(jobs so far, N)`` view of the committed assignment.

        A materialization of the live per-interval stores on the current
        grid — the matrix the historical implementation carried around
        explicitly. Diagnostics/tests only; O(n·N) per call.
        """
        if not self._bounds:
            return np.zeros((0, 0))
        loads = np.zeros((self._count, len(self._lengths)))
        for k, state in enumerate(self._states):
            if state.ids:
                loads[state.ids, k] = state.loads
        return loads

    # ------------------------------------------------------------------
    # Streaming cost accessors
    # ------------------------------------------------------------------
    def streaming_energy(self) -> float:
        """Energy of the committed assignment, straight off the live stores.

        Evaluates Equation (6) per interval from the descending-sorted
        :class:`~repro.perf.kernels.IntervalLoads` stores without
        materializing the dense ``(n, N)`` load matrix — the matrix a
        million-job run cannot afford (``finish()`` would allocate tens
        of gigabytes). Bit-identical to ``finish().schedule.energy``
        on every instance where the dense matrix *is* affordable
        (asserted by the parity suite).
        """
        if not self._bounds:
            return 0.0
        from ..perf.energy import stores_energy  # lazy: layering

        return stores_energy(self._states, self._lengths, self.m, self.power)

    def streaming_lost_value(self) -> float:
        """Sum of values of rejected jobs so far (no dense schedule)."""
        if self._count == 0:
            return 0.0
        values = np.concatenate(
            [
                [chunk.value] if isinstance(chunk, Job) else chunk[0].values[: chunk[1]]
                for chunk in self._chunks
            ],
            dtype=np.float64,
        )
        return float(values[~np.array(self._accepted, dtype=bool)].sum())

    def streaming_cost(self) -> float:
        """Energy plus lost value of the run so far (Equation (1))."""
        return self.streaming_energy() + self.streaming_lost_value()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @property
    def _count(self) -> int:
        """Total arrivals so far."""
        return len(self._accepted)

    def _arrive_row(
        self, release: float, deadline: float, workload: float, value: float
    ) -> WaterfillOutcome:
        """The scalar core: one arrival, grid refinement included.

        Checks the release order, refines the grid, water-fills the
        job's window and commits the outcome: its loads and its
        decision. The caller stores the job itself.
        """
        if release < self._last_release - 1e-12:
            raise InvalidParameterError(
                f"jobs must arrive in release order: got release {release} "
                f"after {self._last_release}"
            )
        if release > self._last_release:
            self._last_release = release
        self._refine_grid(release, deadline)
        ks = _window(self._bounds, release, deadline)
        kernel = WindowKernel(
            self._states[ks.start : ks.stop],
            self._lengths[ks.start : ks.stop],
            self.m,
        )
        outcome = waterfill_job(
            kernel,
            workload=workload,
            value=value,
            delta=self.delta,
            power=self.power,
        )
        self._commit(ks.start, outcome, self._count)
        self._accepted.append(outcome.accepted)
        self._lams.append(outcome.lam)
        self._speeds.append(outcome.speed)
        self._planned_work.append(outcome.planned_work)
        return outcome

    def _record_block(
        self,
        accepted: np.ndarray,
        lams: FloatArray,
        speeds: FloatArray,
        planned_work: FloatArray,
    ) -> None:
        """Append a block's decisions, one numpy column per field."""
        self._accepted += accepted.tobytes()
        self._lams.frombytes(lams.tobytes())
        self._speeds.frombytes(speeds.tobytes())
        self._planned_work.frombytes(planned_work.tobytes())

    def _commit(self, i0: int, outcome: WaterfillOutcome, job_id: int) -> None:
        """Record one filled arrival's loads in the window starting at
        interval ``i0``: planned loads always (the ``x̌`` of a reject),
        live stores (and their opening speeds, once tracked) on an
        accept. Exact zeros carry no information (the dense
        materialization is zero-initialized) and are skipped."""
        states = self._states
        planned = self._planned
        opens = self._open
        accepted = outcome.accepted
        for offset, z in enumerate(outcome.loads.tolist()):
            if z == 0.0:
                continue
            k = i0 + offset
            if accepted:
                state = states[k]
                state.insert(job_id, z)
                if opens is not None:
                    opens[k] = _opening_speed(state.suffix, self._lengths[k], self.m)
            planned[k].append((job_id, z))

    def _run(self, ordered: Instance) -> PDResult:
        """Feed the rows of a release-ordered instance through the
        scalar core, then finish on that instance itself: its jobs keep
        their names and int fields, and a columnar one builds no Job."""
        arrays = ordered.arrays
        for row in zip(
            arrays.releases.tolist(),
            arrays.deadlines.tolist(),
            arrays.workloads.tolist(),
            arrays.values.tolist(),
        ):
            self._arrive_row(*row)
        self._chunks.append((arrays, arrays.n))
        return self._finish(ordered)

    def _finish(self, instance: Instance) -> PDResult:
        """The :class:`PDResult` of the arrivals so far, on ``instance``
        (the fed jobs in arrival order)."""
        n = self._count
        if n == 0:
            raise InvalidParameterError("no jobs were processed")
        decisions = tuple(
            JobDecision(
                job_id=job_id,
                accepted=bool(accepted),
                lam=lam,
                planned_speed=speed,
                planned_work=work,
            )
            for job_id, (accepted, lam, speed, work) in enumerate(
                zip(self._accepted, self._lams, self._speeds, self._planned_work)
            )
        )
        planned = np.zeros((n, len(self._lengths)))
        for k, entries in enumerate(self._planned):
            for job_id, z in entries:
                planned[job_id, k] = z
        schedule = Schedule(
            instance=instance,
            grid=self._grid,
            loads=self.snapshot_loads(),
            finished=np.array(self._accepted, dtype=bool),
        )
        return PDResult(
            schedule=schedule,
            decisions=decisions,
            lambdas=np.array(self._lams),
            planned_loads=planned,
            delta=self.delta,
        )

    def _opening_speeds(self) -> list[float]:
        """The per-interval opening speeds, built from the live stores
        on first use and kept current by every store change after it."""
        if self._open is None:
            m = self.m
            self._open = [
                _opening_speed(state.suffix, length, m)
                for state, length in zip(self._states, self._lengths)
            ]
        return self._open

    @property
    def _grid(self) -> Grid | None:
        """The current grid as a numpy :class:`Grid` (None before the
        first arrival), built from ``_bounds`` on demand and kept until
        the next refinement."""
        if self._grid_cache is None and self._bounds:
            self._grid_cache = Grid(self._bounds)
        return self._grid_cache

    def _refine_grid(self, release: float, deadline: float) -> bool:
        """Insert the new job's window endpoints, splitting frozen loads.

        An arrival only ever splits the (at most two) intervals its
        endpoints land in and possibly extends the span, so the surgery
        here is two ``bisect`` insertions into the boundary and length
        lists plus a split of exactly those stores; every other store
        object stays in place. Each new interval's length is the
        subtraction of its two boundaries (what ``np.diff`` computes),
        and it must exceed ``_TIME_EPS`` as ``Grid`` requires. Unsplit
        intervals keep their exact loads: the reference path multiplied
        them by a fraction that is exactly ``1.0`` (child and parent read
        their endpoints from the same boundary floats), a bitwise no-op.
        Split children scale by ``(child_end - child_start) /
        parent_length`` — the same single multiply, in the same float
        order, as the reference oracle's dense split
        (:mod:`repro.perf.reference`).
        """
        old = self._bounds
        if not old:
            grid = Grid.from_points([release, deadline])
            self._bounds = grid.boundaries.tolist()
            self._lengths = grid.lengths.tolist()
            self._grid_cache = grid
            self._states = [IntervalLoads() for _ in range(grid.size)]
            self._planned = [[] for _ in range(grid.size)]
            return True
        fresh = _fresh_points(old, (release, deadline))
        if not fresh:
            return False

        lo = old[0]
        hi = old[-1]
        bounds = old[:]
        lengths = self._lengths[:]
        front = tail = 0
        # Interior points grouped by the old interval they split.
        splits: dict[int, list[float]] = {}
        for p in fresh:
            if p < lo:
                front += 1
            elif p > hi:
                tail += 1
            else:
                splits.setdefault(bisect_right(old, p) - 1, []).append(p)
            i = bisect_left(bounds, p)
            bounds.insert(i, p)
            # The one or two intervals next to p replace the old length
            # that spanned p, if any.
            first, stop = max(i - 1, 0), min(i + 1, len(bounds) - 1)
            created = [bounds[k + 1] - bounds[k] for k in range(first, stop)]
            lengths[first : stop - 1] = created
            if not all(length > _TIME_EPS for length in created):
                raise InvalidParameterError(
                    "grid boundaries must be strictly increasing"
                )

        opens = self._open
        for k in sorted(splits, reverse=True):
            cuts = [old[k], *splits[k], old[k + 1]]
            length = old[k + 1] - old[k]
            widths = [cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1)]
            fractions = [width / length for width in widths]
            state = self._states[k]
            children = [state.split(f) for f in fractions]
            self._states[k : k + 1] = children
            if opens is not None:
                # The children's lengths are these same subtractions.
                opens[k : k + 1] = [
                    _opening_speed(child.suffix, width, self.m)
                    for child, width in zip(children, widths)
                ]
            entries = self._planned[k]
            self._planned[k : k + 1] = [
                [(job_id, z * f) for job_id, z in entries] for f in fractions
            ]
        if front:
            self._states[0:0] = [IntervalLoads() for _ in range(front)]
            self._planned[0:0] = [[] for _ in range(front)]
            if opens is not None:
                opens[0:0] = [0.0] * front
        if tail:
            self._states.extend(IntervalLoads() for _ in range(tail))
            self._planned.extend([] for _ in range(tail))
            if opens is not None:
                opens.extend([0.0] * tail)
        self._bounds = bounds
        self._lengths = lengths
        self._grid_cache = None
        return True


def run_pd(instance: Instance, *, delta: float | None = None) -> PDResult:
    """Run PD on a full instance (jobs fed in arrival order).

    This is the main entry point of the library. Jobs are sorted by
    release time (deterministic tie-breaking); the returned result's
    instance reflects that order.

    Examples
    --------
    >>> from repro import Instance, run_pd
    >>> inst = Instance.from_tuples(
    ...     [(0.0, 1.0, 1.0, 0.001), (0.0, 2.0, 1.0, 10.0)], m=1, alpha=2.0
    ... )
    >>> result = run_pd(inst)  # jobs in arrival order: low-value job first
    >>> [bool(a) for a in result.accepted_mask]
    [False, True]
    """
    ordered = instance.sorted_by_release()
    scheduler = PDScheduler(m=ordered.m, alpha=ordered.alpha, delta=delta)
    return scheduler._run(ordered)


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402


def _pd_certificate(result: PDResult):
    from ..analysis.certificates import dual_certificate

    return dual_certificate(result)


@register_algorithm(
    "pd",
    profit_aware=True,
    online=True,
    multiprocessor=True,
    certificate=_pd_certificate,
    summary="the paper's primal-dual algorithm (alpha^alpha-competitive, any m)",
    variant_params={"delta": float},
)
def _run_pd_registered(
    instance: Instance, *, delta: float | None = None
) -> tuple[Schedule, object]:
    result = run_pd(instance, delta=delta)
    return result.schedule, result
