"""Jobs and problem instances.

A :class:`Job` is the paper's 4-tuple ``(r_j, d_j, w_j, v_j)``: release
time, deadline, workload, and value. An :class:`Instance` bundles a job set
with the machine environment (processor count ``m`` and energy exponent
``alpha``) and offers the derived arrays and event lists every algorithm in
the library needs.

Instances are immutable; algorithms never mutate them. Jobs are identified
by their 0-based position in the instance, which by convention is also
their arrival order after :meth:`Instance.sorted_by_release`.

Storage note: an instance stores its jobs in one of two forms.

* **Columnar** (:attr:`Instance.columnar`): built by
  :meth:`Instance.from_arrays`, as the random and slotted workload
  families do. The instance holds a :class:`~repro.model.job_arrays.JobArrays`
  block of four read-only float64 columns and nothing per job; its
  ``Job`` tuple is derived from the columns on first access. The
  serializers, the cache key, :meth:`Instance.sorted_by_release`,
  :meth:`Instance.with_values_scaled` and :meth:`Instance.with_values`
  given a float64 array read the columns and build no ``Job``.
* **Job tuple**: built from ``Job`` objects, which may carry ints and
  names the float columns cannot hold. The derived arrays
  (``releases``, ``deadlines``, ...) are a ``JobArrays`` view built once
  and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .job_arrays import JobArrays

from ..errors import InvalidInstanceError, InvalidJobError, InvalidParameterError
from ..types import FloatArray, JobId, Time, left_sum
from .power import PolynomialPower

__all__ = ["Job", "Instance"]


def check_processor_count(m: object) -> None:
    """Raise the canonical error unless ``m`` is an int >= 1.

    A bool is rejected although it is an ``int``: ``m=True`` would key
    differently from ``m=1`` (its canonical JSON says ``true``).
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise InvalidParameterError(
            f"processor count m must be an int >= 1, got {m!r}"
        )


#: Values at least this large are treated as "must finish" in helpers that
#: construct classical (no-rejection) instances.
_HUGE_VALUE = 1e30


@dataclass(frozen=True, slots=True)
class Job:
    """A single preemptable job.

    Attributes
    ----------
    release:
        Time ``r_j`` at which the job (and all its attributes) becomes
        known to an online algorithm.
    deadline:
        Time ``d_j > r_j`` by which the workload must be fully processed
        for the job to count as finished.
    workload:
        Units of work ``w_j > 0``.
    value:
        Loss ``v_j >= 0`` suffered if the job is not finished.
    name:
        Optional human-readable label used in rendered schedules: a
        string or ``None``.
    """

    release: float
    deadline: float
    workload: float
    value: float
    name: str | None = None

    def __post_init__(self) -> None:
        for attr in ("release", "deadline", "workload", "value"):
            x = getattr(self, attr)
            if not isinstance(x, (int, float)) or not math.isfinite(x):
                raise InvalidJobError(f"job {attr} must be a finite number, got {x!r}")
        if self.release < 0.0:
            raise InvalidJobError(f"release must be >= 0, got {self.release}")
        if self.deadline <= self.release:
            raise InvalidJobError(
                f"deadline ({self.deadline}) must be strictly after release "
                f"({self.release})"
            )
        if self.workload <= 0.0:
            raise InvalidJobError(f"workload must be > 0, got {self.workload}")
        if self.value < 0.0:
            raise InvalidJobError(f"value must be >= 0, got {self.value}")
        if self.name is not None and not isinstance(self.name, str):
            raise InvalidJobError(
                f"job name must be a string or None, got {self.name!r}"
            )

    @property
    def window(self) -> tuple[Time, Time]:
        """The availability window ``[release, deadline)``."""
        return (self.release, self.deadline)

    @property
    def span(self) -> float:
        """Window length ``deadline - release``."""
        return self.deadline - self.release

    @property
    def density(self) -> float:
        """``workload / span`` — the job's average required speed.

        This is the constant speed the Average-Rate heuristic devotes to
        the job, and a lower bound on the peak speed any feasible schedule
        uses for it on a single processor.
        """
        return self.workload / self.span

    def label(self, index: int | None = None) -> str:
        """Display label: the explicit name, or ``J<index>``."""
        if self.name is not None:
            return self.name
        return f"J{index}" if index is not None else "J?"

    def with_value(self, value: float) -> "Job":
        """A copy of this job with a different value."""
        return replace(self, value=value)


@dataclass(frozen=True)
class Instance:
    """A complete problem instance: jobs + machine environment.

    Parameters
    ----------
    jobs:
        The job set, stored as a tuple. Index into it with job ids.
    m:
        Number of identical speed-scalable processors (``>= 1``).
    alpha:
        Energy exponent of the shared power function ``P(s) = s**alpha``.
    """

    jobs: tuple[Job, ...]
    m: int = 1
    alpha: float = 3.0
    _power: PolynomialPower = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_processor_count(self.m)
        jobs = tuple(self.jobs)
        if not all(isinstance(j, Job) for j in jobs):
            raise InvalidInstanceError("all elements of `jobs` must be Job objects")
        object.__setattr__(self, "jobs", jobs)
        # Validates alpha as a side effect.
        object.__setattr__(self, "_power", PolynomialPower(self.alpha))

    def __getattr__(self, name: str) -> Any:
        # Lazy Job materialization for array-backed instances (built via
        # `from_arrays`, which bypasses __init__ and leaves `jobs` unset).
        if name == "jobs":
            arrays = self.__dict__.get("_arrays")
            if arrays is not None:
                jobs = arrays.to_jobs()
                object.__setattr__(self, "jobs", jobs)
                return jobs
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        arrays: "JobArrays",
        *,
        m: int = 1,
        alpha: float = 3.0,
    ) -> "Instance":
        """Build an instance directly from columnar job storage.

        No ``Job`` objects are constructed up front — the job tuple
        materializes lazily on first access (``instance.jobs``,
        indexing, iteration), while the vectorized paths (derived
        arrays, :meth:`sorted_by_release`) run straight off the columns.
        Validation is the vectorized replay of ``Job``'s invariants
        performed by :class:`~repro.model.job_arrays.JobArrays`.
        """
        from .job_arrays import JobArrays

        if not isinstance(arrays, JobArrays):
            raise InvalidInstanceError(
                f"from_arrays expects a JobArrays, got {type(arrays).__name__}"
            )
        check_processor_count(m)
        inst = object.__new__(cls)
        object.__setattr__(inst, "m", m)
        object.__setattr__(inst, "alpha", alpha)
        # Validates alpha as a side effect (same as __post_init__).
        object.__setattr__(inst, "_power", PolynomialPower(alpha))
        object.__setattr__(inst, "_arrays", arrays)
        object.__setattr__(inst, "_columnar", True)
        return inst

    @classmethod
    def from_tuples(
        cls,
        rows: Iterable[tuple[float, float, float, float]],
        *,
        m: int = 1,
        alpha: float = 3.0,
    ) -> "Instance":
        """Build an instance from ``(release, deadline, workload, value)`` rows."""
        return cls(tuple(Job(*row) for row in rows), m=m, alpha=alpha)

    @classmethod
    def classical(
        cls,
        rows: Iterable[tuple[float, float, float]],
        *,
        m: int = 1,
        alpha: float = 3.0,
    ) -> "Instance":
        """Build a classical (must-finish) instance.

        Rows are ``(release, deadline, workload)``; every job receives a
        value so large that no sensible algorithm rejects it, recovering
        the Yao–Demers–Shenker model as the paper's limiting case.
        """
        return cls(
            tuple(Job(r, d, w, _HUGE_VALUE) for (r, d, w) in rows), m=m, alpha=alpha
        )

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, job_id: JobId) -> Job:
        return self.jobs[job_id]

    @property
    def n(self) -> int:
        """Number of jobs."""
        arrays = self.__dict__.get("_arrays")
        if arrays is not None:
            return arrays.n
        return len(self.jobs)

    @property
    def columnar(self) -> bool:
        """Whether the columns are this instance's storage.

        True for instances built by :meth:`from_arrays`: their ``Job``
        tuple, when something asks for it, is derived from the columns,
        so every job is nameless and all-float. Readers of the whole job
        set can then read :attr:`arrays` alone and build no ``Job``.
        """
        return self.__dict__.get("_columnar", False)

    @property
    def power(self) -> PolynomialPower:
        """The shared power function ``P_alpha``."""
        return self._power

    # ------------------------------------------------------------------
    # Derived arrays (columnar, built once per instance and cached)
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> "JobArrays":
        """Columnar (struct-of-array) view of the job set, cached.

        The four read-only float64 columns hold exactly the floats the
        ``Job`` attributes hold — the arrays the old per-access
        properties rebuilt on every call, now constructed once.
        """
        cached = self.__dict__.get("_arrays")
        if cached is None:
            from .job_arrays import JobArrays

            cached = JobArrays.from_jobs(self.jobs)
            object.__setattr__(self, "_arrays", cached)
        return cached

    @property
    def releases(self) -> FloatArray:
        """Array of release times, in job-id order (read-only)."""
        return self.arrays.releases

    @property
    def deadlines(self) -> FloatArray:
        """Array of deadlines, in job-id order (read-only)."""
        return self.arrays.deadlines

    @property
    def workloads(self) -> FloatArray:
        """Array of workloads, in job-id order (read-only)."""
        return self.arrays.workloads

    @property
    def values(self) -> FloatArray:
        """Array of job values, in job-id order (read-only)."""
        return self.arrays.values

    @property
    def total_value(self) -> float:
        """Sum of all job values (cost of rejecting everything)."""
        return float(left_sum(j.value for j in self.jobs))

    @property
    def horizon(self) -> tuple[Time, Time]:
        """Smallest release and largest deadline (the busy horizon)."""
        if not self.jobs:
            return (0.0, 0.0)
        return (
            min(j.release for j in self.jobs),
            max(j.deadline for j in self.jobs),
        )

    def event_times(self) -> FloatArray:
        """Sorted, de-duplicated release/deadline times.

        These are exactly the breakpoints ``tau_0 < ... < tau_N`` that
        define the paper's atomic intervals.
        """
        points = {j.release for j in self.jobs} | {j.deadline for j in self.jobs}
        return np.array(sorted(points), dtype=np.float64)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def sorted_by_release(self) -> "Instance":
        """A copy whose jobs are ordered by (release, deadline, id).

        Online algorithms consume jobs in this order; ties in release time
        are broken deterministically so runs are reproducible. Columnar
        instances stay columnar: the columns are permuted without
        materializing any ``Job``.
        """
        order = self.arrival_order()
        if self.columnar:
            return Instance.from_arrays(
                self.arrays.permuted(order), m=self.m, alpha=self.alpha
            )
        return Instance(tuple(self.jobs[i] for i in order), m=self.m, alpha=self.alpha)

    def arrival_order(self) -> list[JobId]:
        """Job ids sorted by (release, deadline, id) without copying jobs.

        Computed as a stable ``lexsort`` over the cached columns — the
        identical permutation to sorting ``(release, deadline, id)``
        tuples (the trailing id key makes the order total, so stability
        and tie-breaking agree bit for bit with the historical
        ``sorted()`` call).
        """
        arrays = self.arrays
        order = np.lexsort(
            (np.arange(arrays.n), arrays.deadlines, arrays.releases)
        )
        return [int(i) for i in order]

    def restrict(self, job_ids: Sequence[JobId]) -> "Instance":
        """Sub-instance containing only ``job_ids`` (in the given order)."""
        return Instance(
            tuple(self.jobs[i] for i in job_ids), m=self.m, alpha=self.alpha
        )

    def with_machine(self, *, m: int | None = None, alpha: float | None = None) -> "Instance":
        """Copy with a different machine environment, same jobs."""
        return Instance(
            self.jobs,
            m=self.m if m is None else m,
            alpha=self.alpha if alpha is None else alpha,
        )

    def with_values(self, values: Sequence[float]) -> "Instance":
        """Copy with per-job values replaced by ``values``.

        On a columnar instance, a float64 array of values becomes the
        new values column, and the copy stays columnar. Any other
        ``values`` go through ``Job``, which keeps ints and bools as
        given (and so their canonical text) and rejects non-numbers.
        """
        if len(values) != self.n:
            raise InvalidInstanceError(
                f"expected {self.n} values, got {len(values)}"
            )
        if (
            self.columnar
            and isinstance(values, np.ndarray)
            and values.dtype == np.float64
        ):
            from .job_arrays import JobArrays

            a = self.arrays
            return Instance.from_arrays(
                JobArrays(a.releases, a.deadlines, a.workloads, values),
                m=self.m,
                alpha=self.alpha,
            )
        return Instance(
            tuple(j.with_value(v) for j, v in zip(self.jobs, values)),
            m=self.m,
            alpha=self.alpha,
        )

    def with_values_scaled(self, factor: float) -> "Instance":
        """Copy with every job's value multiplied by ``factor``.

        Each new value is ``job.value * factor``: a ``Job`` tuple's int
        value times an int factor stays an int. A columnar instance
        scales its values column instead, which gives the same floats
        and builds no ``Job``.
        """
        if self.columnar:
            return self.with_values(self.values * factor)
        return self.with_values([j.value * factor for j in self.jobs])

    def scaled(self, *, time: float = 1.0, work: float = 1.0) -> "Instance":
        """Copy with all times multiplied by ``time`` and workloads by ``work``.

        Useful in tests: energy scales as ``work**alpha * time**(1-alpha)``
        under this transformation, which property tests verify.
        """
        if time <= 0.0 or work <= 0.0:
            raise InvalidParameterError("scale factors must be positive")
        return Instance(
            tuple(
                Job(j.release * time, j.deadline * time, j.workload * work, j.value, j.name)
                for j in self.jobs
            ),
            m=self.m,
            alpha=self.alpha,
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A short multi-line human-readable summary."""
        lo, hi = self.horizon
        lines = [
            f"Instance: n={self.n} jobs, m={self.m} processors, alpha={self.alpha}",
            f"  horizon: [{lo:g}, {hi:g})",
            f"  total workload: {float(np.sum(self.workloads)) if self.n else 0.0:g}",
            f"  total value:    {self.total_value:g}",
        ]
        return "\n".join(lines)
