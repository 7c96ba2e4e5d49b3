"""Dual certificates: the computable core of the paper's Theorem 3.

After a PD run fixes the duals ``lambda~``, Lemmas 4–6 of the paper give a
*closed form* for the dual function value

    ``g(lambda~) = (1 - alpha) * sum_j E_lambda(j) + sum_j lambda~_j``

where ``E_lambda(j) = l(j) * s^_j**alpha`` is the energy the *optimal
infeasible solution* invests in job ``j``: job ``j`` runs at speed
``s^_j = (lambda~_j / (alpha w_j))**(1/(alpha-1))`` during exactly the
atomic intervals where it is among the ``min(m, n_k)`` available jobs with
the largest ``s^`` values (the "contributing jobs", Lemma 5c). A job is
available exactly in its contiguous window on the grid, so
:func:`contributions` reads each window as a first interval and a stop
(:meth:`~repro.model.intervals.Grid.windows`) and never builds an
``(n, N)`` availability matrix.

Weak duality makes ``g(lambda~)`` a lower bound on the cost of *any*
schedule, so each run carries a machine-checkable certificate:

    ``cost(PD) <= alpha**alpha * g(lambda~) <= alpha**alpha * cost(OPT)``.

The first inequality is Theorem 3's chain; checking it numerically on
every instance — including adversarial and random ones where OPT is
unknowable — is the reproduction's strongest evidence that the
implementation matches the paper's algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pd import PDResult
from ..errors import CertificateError
from ..model.schedule import Schedule
from ..types import FloatArray

__all__ = [
    "DualCertificate",
    "dual_certificate",
    "certificate_from_duals",
    "contributing_jobs",
    "contributions",
]


@dataclass(frozen=True)
class DualCertificate:
    """Everything derived from the dual vector of a PD run.

    Attributes
    ----------
    g:
        The dual function value ``g(lambda~)`` — a lower bound on OPT.
    cost:
        ``cost(PD)`` of the run being certified.
    ratio:
        ``cost / g``; Theorem 3 guarantees ``ratio <= alpha**alpha``.
    bound:
        ``alpha**alpha``.
    s_hat:
        Per-job speeds of the optimal infeasible solution (Lemma 5).
    e_lambda:
        Per-job energies ``E_lambda(j) = l(j) * s_hat_j**alpha`` (Lemma 6).
    x_hat:
        Per-job total portions ``x^_j = l(j) * s_hat_j / w_j`` scheduled
        by the optimal infeasible solution — the quantity that splits
        unfinished jobs into low-/high-yield categories (Section 4.3).
    contributors:
        Per-interval tuple of contributing job ids, largest ``s_hat``
        first (the sets ``phi(k)``).
    """

    g: float
    cost: float
    bound: float
    s_hat: FloatArray
    e_lambda: FloatArray
    x_hat: FloatArray
    contributors: tuple[tuple[int, ...], ...]

    @property
    def ratio(self) -> float:
        return self.cost / self.g if self.g > 0 else float("inf")

    @property
    def holds(self) -> bool:
        """Whether the Theorem 3 certificate holds (with numeric slack)."""
        return self.cost <= self.bound * self.g * (1.0 + 1e-7) + 1e-9

    def require(self) -> "DualCertificate":
        """Raise :class:`CertificateError` unless the certificate holds."""
        if not self.holds:
            raise CertificateError(
                f"Theorem 3 certificate violated: cost {self.cost:.9g} > "
                f"alpha^alpha * g = {self.bound:.6g} * {self.g:.9g}"
            )
        return self


def contributing_jobs(
    windows: tuple[np.ndarray, np.ndarray], size: int, s_hat: FloatArray, m: int
) -> tuple[tuple[int, ...], ...]:
    """The sets ``phi(k)`` of Lemma 5(c) for every atomic interval.

    In interval ``k`` the contributing jobs are the ``min(m, n_k)``
    *available* jobs with the largest ``s_hat`` values; ties resolve by
    job id (any consistent rule is admissible per the paper's footnote).
    Jobs with ``s_hat == 0`` contribute nothing and are excluded.

    ``windows`` is :meth:`~repro.model.intervals.Grid.windows`: job
    ``j`` is available exactly in the intervals ``first[j] <= k <
    stop[j]`` of a grid with ``size`` intervals. One pass over the jobs
    in priority order fills per-interval slots, so each interval picks
    the same jobs in the same order as the literal per-interval rescan,
    at O(sum of window widths) instead of O(n * N).
    """
    first, stop = windows
    slots = np.zeros(size, dtype=np.int64)
    picked: list[list[int]] = [[] for _ in range(size)]
    # s_hat descending, then id ascending.
    for j in np.lexsort((np.arange(s_hat.size), -s_hat)).tolist():
        if s_hat[j] <= 0.0:
            continue
        lo = int(first[j])
        segment = slots[lo : int(stop[j])]
        open_positions = np.nonzero(segment < m)[0]
        if open_positions.size:
            segment[open_positions] += 1
            for k in open_positions.tolist():
                picked[lo + k].append(j)
    return tuple(tuple(members) for members in picked)


def contributions(
    schedule: Schedule, s_hat: FloatArray
) -> tuple[tuple[tuple[int, ...], ...], FloatArray]:
    """``phi(k)`` for every interval and each job's contributing time
    ``l(j)``, the lengths of its intervals summed in ascending order."""
    grid = schedule.grid
    instance = schedule.instance
    phi = contributing_jobs(grid.windows(instance), grid.size, s_hat, instance.m)
    lengths = grid.lengths
    l_of_j = np.zeros(instance.n)
    for k, members in enumerate(phi):
        for j in members:
            l_of_j[j] += float(lengths[k])
    return phi, l_of_j


def dual_certificate(result: PDResult) -> DualCertificate:
    """Evaluate ``g(lambda~)`` and package the Theorem 3 certificate."""
    return certificate_from_duals(result.schedule, result.lambdas)


def certificate_from_duals(schedule: Schedule, lambdas: FloatArray) -> DualCertificate:
    """Evaluate ``g(lambda)`` for *any* nonnegative dual vector.

    Weak duality does not care where the duals came from: for every
    ``lambda >= 0``, the closed form of Lemmas 4–6 is a genuine lower
    bound on OPT, so any algorithm able to exhibit a dual vector gets a
    certified ratio — PD uses its own ``lambda~`` (Theorem 3), CLL the
    duals implied by its planned admission speeds. Only PD's duals are
    *guaranteed* to stay under ``alpha**alpha``; for other sources the
    ratio is an honest measurement that may exceed the bound.
    """
    instance = schedule.instance
    alpha = instance.alpha
    w = instance.workloads
    lam = np.asarray(lambdas, dtype=np.float64)

    s_hat = (np.maximum(lam, 0.0) / (alpha * w)) ** (1.0 / (alpha - 1.0))
    phi, l_of_j = contributions(schedule, s_hat)

    e_lambda = l_of_j * s_hat**alpha
    x_hat = np.where(w > 0, l_of_j * s_hat / w, 0.0)
    g = float((1.0 - alpha) * e_lambda.sum() + lam.sum())

    return DualCertificate(
        g=g,
        cost=schedule.cost,
        bound=alpha**alpha,
        s_hat=s_hat,
        e_lambda=e_lambda,
        x_hat=x_hat,
        contributors=phi,
    )
