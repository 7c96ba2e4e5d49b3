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

Implementation note (PR 5): the scheduler runs on the incremental
kernels of :mod:`repro.perf.kernels`. Each atomic interval owns a live
:class:`~repro.perf.kernels.IntervalLoads` store (descending-sorted
loads + suffix sums, maintained by sorted insertion on accept and
split-copy on refinement) instead of columns of a dense ``(n, N)``
matrix rebuilt per arrival; the dense matrices are materialized once,
in :meth:`PDScheduler.finish`. The outputs are bit-identical to the
historical implementation (kept as
:class:`repro.perf.reference.PDSchedulerReference` and differentially
tested), while the per-arrival cost drops from O(n·N) to
O(window + split intervals).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from ..model.intervals import _TIME_EPS, Grid, _fresh_points, _window
from ..model.job import Instance, Job, check_processor_count
from ..model.schedule import Schedule
from ..perf.kernels import IntervalLoads, WindowKernel, _opening_speed
from ..types import FloatArray
from .waterfill import waterfill_job

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
        batch: str = "arrival",
    ) -> None:
        check_processor_count(m)
        if batch not in ("arrival", "epoch"):
            raise InvalidParameterError(
                f"batch must be 'arrival' or 'epoch', got {batch!r}"
            )
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

        self.batch = batch
        self._jobs: list[Job] = []
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
        self._decisions: list[JobDecision] = []
        self._last_release = -np.inf
        #: Total arrivals so far (== len(self._jobs) on the per-arrival
        #: path; the epoch path stores columns instead of Job objects).
        self._count = 0
        #: Epoch-mode storage: per-block chunks of job columns
        #: (release, deadline, workload, value arrays) and decision
        #: columns (accepted, lam, speed, planned_work lists), appended
        #: by :func:`repro.perf.epochs.arrive_epochs`. Materialized into
        #: the historical Job/JobDecision shapes in :meth:`finish`.
        self._chunks: list[tuple] = []
        #: Optional pre-materialized job tuple for :meth:`finish` (set
        #: by ``run_pd(batch="epoch")`` when the instance already holds
        #: Job objects, preserving optional names bit for bit).
        self._finish_jobs: tuple[Job, ...] | None = None
        #: Per interval, the opening speed of its store
        #: (:func:`~repro.perf.kernels._opening_speed`), the epoch path's
        #: zero-work settle key. None until the epoch path first asks
        #: (:meth:`_opening_speeds`), so ``arrive()`` never pays for it;
        #: kept current from then on wherever a store changes.
        self._open: list[float] | None = None

    # ------------------------------------------------------------------
    # Online interface
    # ------------------------------------------------------------------
    def arrive(self, job: Job) -> JobDecision:
        """Process the arrival of ``job`` and commit PD's decision."""
        if self._chunks:
            raise InvalidParameterError(
                "cannot mix arrive() with epoch-batched arrivals; feed "
                "this scheduler exclusively via arrive_many()"
            )
        if job.release < self._last_release - 1e-12:
            raise InvalidParameterError(
                f"jobs must arrive in release order: got release {job.release} "
                f"after {self._last_release}"
            )
        self._last_release = max(self._last_release, job.release)
        job_id = len(self._jobs)
        self._jobs.append(job)
        self._count = job_id + 1

        self._refine_grid(job.release, job.deadline)
        ks = _window(self._bounds, job.release, job.deadline)

        kernel = WindowKernel(
            self._states[ks.start : ks.stop],
            self._lengths[ks.start : ks.stop],
            self.m,
        )
        outcome = waterfill_job(
            kernel,
            workload=job.workload,
            value=job.value,
            delta=self.delta,
            power=self.power,
        )

        # Commit: sorted insertion into each interval's live store for an
        # accept; either way the planned loads (``x̌``) are recorded.
        # Exact zeros carry no information (the dense materialization is
        # zero-initialized) and are skipped.
        for offset, k in enumerate(ks):
            z = float(outcome.loads[offset])
            if z == 0.0:
                continue
            if outcome.accepted:
                self._states[k].insert(job_id, z)
            self._planned[k].append((job_id, z))

        decision = JobDecision(
            job_id=job_id,
            accepted=outcome.accepted,
            lam=outcome.lam,
            planned_speed=outcome.speed,
            planned_work=outcome.planned_work,
        )
        self._decisions.append(decision)
        return decision

    def arrive_many(self, arrays, *, epoch_size: int | None = None) -> None:
        """Process a columnar block of arrivals (release-ordered).

        On the per-arrival path this is sugar for feeding
        ``arrays.job(i)`` one at a time. With ``batch="epoch"`` the block
        is consumed by :func:`repro.perf.epochs.arrive_epochs` — batched
        numpy passes over the columns, bit-identical decisions.
        """
        if self.batch == "epoch":
            from ..perf.epochs import DEFAULT_EPOCH_SIZE, arrive_epochs

            arrive_epochs(
                self,
                arrays,
                epoch_size=(
                    DEFAULT_EPOCH_SIZE if epoch_size is None else epoch_size
                ),
            )
            return
        for i in range(arrays.n):
            self.arrive(arrays.job(i))

    def _materialize(self) -> tuple[Instance, tuple[JobDecision, ...]]:
        """The (instance, decisions) pair in the historical shapes.

        Per-arrival runs stored both directly; epoch runs stored columns
        and materialize the identical objects here — same floats, same
        job order, names preserved when the caller provided Job objects.
        """
        if self._jobs:
            instance = Instance(tuple(self._jobs), m=self.m, alpha=self._alpha)
            return instance, tuple(self._decisions)
        decisions = []
        jobs: list[Job] = []
        job_id = 0
        for rel, dl, wl, val, acc, lam, spd, pw in self._chunks:
            rel_l = rel.tolist()
            dl_l = dl.tolist()
            wl_l = wl.tolist()
            val_l = val.tolist()
            for t in range(len(acc)):
                decisions.append(
                    JobDecision(
                        job_id=job_id,
                        accepted=acc[t],
                        lam=lam[t],
                        planned_speed=spd[t],
                        planned_work=pw[t],
                    )
                )
                if self._finish_jobs is None:
                    jobs.append(
                        Job(
                            release=rel_l[t],
                            deadline=dl_l[t],
                            workload=wl_l[t],
                            value=val_l[t],
                        )
                    )
                job_id += 1
        if self._finish_jobs is not None:
            job_tuple = self._finish_jobs
        else:
            job_tuple = tuple(jobs)
        instance = Instance(job_tuple, m=self.m, alpha=self._alpha)
        return instance, tuple(decisions)

    def finish(self) -> PDResult:
        """Assemble the final :class:`PDResult` after all arrivals."""
        if self._count == 0:
            raise InvalidParameterError("no jobs were processed")
        instance, decisions = self._materialize()
        finished = np.array([d.accepted for d in decisions], dtype=bool)
        n = self._count
        big_n = len(self._lengths)
        loads = self.snapshot_loads()
        planned = np.zeros((n, big_n))
        for k, entries in enumerate(self._planned):
            for job_id, z in entries:
                planned[job_id, k] = z
        schedule = Schedule(
            instance=instance,
            grid=self._grid,
            loads=loads,
            finished=finished,
        )
        return PDResult(
            schedule=schedule,
            decisions=decisions,
            lambdas=np.array([d.lam for d in decisions]),
            planned_loads=planned,
            delta=self.delta,
        )

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
        if self._jobs:
            values = np.array([j.value for j in self._jobs], dtype=np.float64)
            finished = np.array(
                [d.accepted for d in self._decisions], dtype=bool
            )
        else:
            values = np.concatenate([c[3] for c in self._chunks])
            finished = np.array(
                [a for c in self._chunks for a in c[4]], dtype=bool
            )
        return float(values[~finished].sum())

    def streaming_cost(self) -> float:
        """Energy plus lost value of the run so far (Equation (1))."""
        return self.streaming_energy() + self.streaming_lost_value()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
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
        order, as :meth:`~repro.model.intervals.Refinement.split_row`.
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


def run_pd(
    instance: Instance,
    *,
    delta: float | None = None,
    batch: str | None = None,
    epoch_size: int | None = None,
) -> PDResult:
    """Run PD on a full instance (jobs fed in arrival order).

    This is the main entry point of the library. Jobs are sorted by
    release time (deterministic tie-breaking); the returned result's
    instance reflects that order.

    ``batch`` selects the execution strategy — ``"arrival"`` (the
    historical one-``arrive()``-per-job loop) or ``"epoch"`` (the
    vectorized arrival-epoch layer of :mod:`repro.perf.epochs`,
    consuming jobs in blocks straight off the columnar storage).
    ``None`` defers to the ambient :func:`repro.perf.epochs.batch_mode`
    context (default ``"arrival"``). The results are bit-identical
    either way — batching is an execution strategy, never a result
    change — so the choice deliberately does not participate in cache
    keys. ``epoch_size`` tunes the epoch block length (epoch mode only).

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
    from ..perf.epochs import current_batch_mode

    mode = batch if batch is not None else current_batch_mode()
    if mode not in ("arrival", "epoch"):
        raise InvalidParameterError(
            f"batch must be 'arrival' or 'epoch', got {mode!r}"
        )
    ordered = instance.sorted_by_release()
    scheduler = PDScheduler(
        m=ordered.m, alpha=ordered.alpha, delta=delta, batch=mode
    )
    if mode == "epoch":
        if not ordered.columnar:
            # Job objects already exist (possibly named): reuse them at
            # finish() so the epoch result is byte-identical even for
            # named jobs, which the columns cannot carry.
            scheduler._finish_jobs = ordered.jobs
        scheduler.arrive_many(ordered.arrays, epoch_size=epoch_size)
    else:
        for job in ordered.jobs:
            scheduler.arrive(job)
    return scheduler.finish()


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
