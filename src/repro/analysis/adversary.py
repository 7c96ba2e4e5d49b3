"""Adversarial instance search: how close to ``alpha**alpha`` can we push PD?

Theorem 3 is tight *in the limit*: the Bansal–Kimbrel–Pruhs staircase
drives PD's ratio towards ``alpha**alpha`` only as ``n -> infinity`` (and
logarithmically slowly). A natural complementary question for a finite
test harness is how bad PD can look at *small* sizes, and whether any
reachable instance ever violates a certificate — a stochastic-search
falsification attempt in the spirit of property-based testing, but
steered by hill-climbing on the quantity the theorem bounds.

:func:`search_adversarial` runs randomized local search over instances:
random restarts from a seed family, then rounds of mutations (jitter a
job's window/workload/value, add a job, drop a job) keeping the best
instance by the chosen objective:

* ``"certificate"`` — ``cost(PD) / g(lambda~)``: defined at any size,
  provably ``<= alpha**alpha``; maximizing it probes the certificate's
  slack directly.
* ``"optimal"`` — ``cost(PD) / cost(OPT)`` with the exact enumeration
  solver: the true competitive ratio, small ``n`` only.

Every evaluation re-checks the Theorem 3 certificate; a violation raises
:class:`~repro.errors.CertificateError` immediately (it would mean a bug,
not an adversarial success — the theorem is proved). E14 runs the search
as a benchmark and records the hardest instances found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ..core.pd import run_pd
from ..errors import CertificateError, InvalidParameterError
from ..model.job import Instance, Job
from ..offline.optimal import solve_exact
from .certificates import dual_certificate

__all__ = ["AdversaryResult", "search_adversarial", "mutate_instance"]

Objective = Literal["certificate", "optimal"]

#: Smallest workable time quantities during mutation.
_MIN_SPAN = 0.05
_MIN_WORK = 0.01
_MIN_VALUE = 1e-4


@dataclass(frozen=True)
class AdversaryResult:
    """Outcome of one adversarial search run.

    Attributes
    ----------
    instance:
        The hardest instance found.
    ratio:
        Its objective value (certificate or true competitive ratio).
    bound:
        ``alpha**alpha`` for reference.
    evaluations:
        Number of (mutation, evaluation) steps performed.
    history:
        Best-so-far ratio after each improvement, for convergence plots.
    """

    instance: Instance
    ratio: float
    bound: float
    evaluations: int
    history: tuple[float, ...]

    @property
    def slack(self) -> float:
        """``bound / ratio`` — how much room the search left unclaimed."""
        return self.bound / self.ratio


def _evaluate(instance: Instance, objective: Objective) -> float:
    """Objective value of one instance; re-checks Theorem 3 every time."""
    result = run_pd(instance)
    cert = dual_certificate(result)
    if not cert.holds:
        raise CertificateError(
            f"search reached an instance violating Theorem 3: "
            f"ratio {cert.ratio} > bound {cert.bound} on {instance.jobs}"
        )
    if objective == "certificate":
        return cert.ratio
    opt = solve_exact(instance)
    if opt.cost <= 0.0:  # pragma: no cover - costs are positive by model
        return 1.0
    return result.cost / opt.cost


def mutate_instance(instance: Instance, rng: np.random.Generator) -> Instance:
    """One random structural or numeric mutation of an instance.

    Operators (picked uniformly): jitter one job's release, deadline,
    workload, or value (log-normal multipliers); clone a job with a
    shifted window; drop a random job (when more than one remains). All
    results are valid instances; values and spans are clamped away from
    the degenerate edges the model forbids.
    """
    jobs = list(instance.jobs)
    op = rng.integers(0, 6)
    j = int(rng.integers(0, len(jobs)))
    job = jobs[j]
    if op == 0:  # jitter release (keep window non-empty and t >= 0)
        new_release = job.release + float(rng.normal(0.0, 0.3))
        new_release = min(new_release, job.deadline - _MIN_SPAN)
        new_release = max(0.0, new_release)
        if new_release < job.deadline:
            jobs[j] = Job(new_release, job.deadline, job.workload, job.value)
    elif op == 1:  # jitter deadline
        new_deadline = job.deadline + float(rng.normal(0.0, 0.3))
        new_deadline = max(new_deadline, job.release + _MIN_SPAN)
        jobs[j] = Job(job.release, new_deadline, job.workload, job.value)
    elif op == 2:  # scale workload
        factor = float(np.exp(rng.normal(0.0, 0.35)))
        jobs[j] = Job(
            job.release,
            job.deadline,
            max(_MIN_WORK, job.workload * factor),
            job.value,
        )
    elif op == 3:  # scale value
        factor = float(np.exp(rng.normal(0.0, 0.5)))
        jobs[j] = Job(
            job.release,
            job.deadline,
            job.workload,
            max(_MIN_VALUE, job.value * factor),
        )
    elif op == 4:  # clone with a shifted window
        shift = abs(float(rng.normal(0.0, 0.5)))
        jobs.append(
            Job(
                job.release + shift,
                job.deadline + shift,
                job.workload,
                job.value,
            )
        )
    else:  # drop (keep at least one job)
        if len(jobs) > 1:
            jobs.pop(j)
    return Instance(tuple(jobs), m=instance.m, alpha=instance.alpha)


def search_adversarial(
    seeds: Sequence[Instance],
    *,
    objective: Objective = "certificate",
    rounds: int = 200,
    rng: np.random.Generator | int | None = None,
    max_jobs: int = 12,
) -> AdversaryResult:
    """Hill-climb over instances to maximize PD's ratio.

    Parameters
    ----------
    seeds:
        Starting instances (restart points); all must share ``m`` and
        ``alpha``. The search keeps a single global best.
    objective:
        ``"certificate"`` (any size) or ``"optimal"`` (exact, small n).
    rounds:
        Mutation-evaluation steps per seed, an int ``>= 0`` (``0``
        evaluates the seeds only).
    rng:
        Seedable randomness; pass an int for reproducibility.
    max_jobs:
        Mutations that would grow an instance beyond this are re-rolled
        as drops — keeps ``"optimal"`` runs inside the exact solver's
        enumeration budget.

    Notes
    -----
    Plain hill-climbing with restarts, no annealing: the landscape is
    rugged but the point is falsification pressure and a reproducible
    "hardest found" exhibit, not global optimality. Runtime is dominated
    by the PD runs (objective ``"certificate"``) or the exact solves
    (objective ``"optimal"``).
    """
    if not seeds:
        raise InvalidParameterError("need at least one seed instance")
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 0:
        raise InvalidParameterError(
            f"rounds must be an int >= 0, got {rounds!r}"
        )
    gen = (
        rng
        if isinstance(rng, np.random.Generator)
        else np.random.default_rng(rng)
    )
    best_instance: Instance | None = None
    best_ratio = -np.inf
    history: list[float] = []
    evaluations = 0

    for seed_inst in seeds:
        ratio = _evaluate(seed_inst, objective)
        evaluations += 1
        if ratio > best_ratio:
            best_ratio, best_instance = ratio, seed_inst
            history.append(ratio)
        current, current_ratio = seed_inst, ratio
        for _ in range(rounds):
            candidate = mutate_instance(current, gen)
            if candidate.n > max_jobs:
                continue
            ratio = _evaluate(candidate, objective)
            evaluations += 1
            if ratio > current_ratio:
                current, current_ratio = candidate, ratio
                if ratio > best_ratio:
                    best_ratio, best_instance = ratio, candidate
                    history.append(ratio)

    assert best_instance is not None
    bound = float(best_instance.alpha ** best_instance.alpha)
    return AdversaryResult(
        instance=best_instance,
        ratio=best_ratio,
        bound=bound,
        evaluations=evaluations,
        history=tuple(history),
    )
