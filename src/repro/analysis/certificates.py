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
``(n, N)`` availability matrix. One pass over the jobs in ``(-s^, id)``
order fills the sets, with a union-find over the next interval that
still has a slot, at O(n + N·m) (:func:`contributing_jobs`). The core,
:func:`certify`, takes a grid, an instance, a cost and dual vectors, so
:meth:`~repro.core.pd.PDScheduler.streaming_certificate` certifies a
million-job stream without a dense schedule, and CLL's three candidate
vectors share one pass wherever their orders agree.

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
from ..errors import CertificateError, InvalidParameterError
from ..model.intervals import Grid
from ..model.job import Instance
from ..model.schedule import Schedule
from ..types import FloatArray

__all__ = [
    "DualCertificate",
    "dual_certificate",
    "certificate_from_duals",
    "certify",
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
    in priority order hands each job the intervals of its window that
    still have an open slot, so each interval picks the same jobs in
    the same order as the literal per-interval rescan. A union-find over
    the next open interval (path compression on plain lists) finds
    those intervals, which makes the pass O(n + sum of |phi(k)|), about
    O(n + N·m), instead of one scan per window.
    """
    return _contributors(windows, size, _priority(s_hat), m)


def _priority(s_hat: FloatArray) -> np.ndarray:
    """The job ids in ``(-s_hat, id)`` order, those with ``s_hat <= 0``
    left out: all that ``phi`` and ``l(j)`` read of ``s_hat``."""
    order = np.lexsort((np.arange(s_hat.size), -s_hat))
    return order[~(s_hat[order] <= 0.0)]


def _contributors(
    windows: tuple[np.ndarray, np.ndarray], size: int, order: np.ndarray, m: int
) -> tuple[tuple[int, ...], ...]:
    """``phi(k)`` of the jobs in ``order``, filled in that order."""
    first, stop = windows
    picked: list[list[int]] = [[] for _ in range(size)]
    # Each interval points at itself while it has an open slot, and at
    # a later interval once full; following the pointers from k reaches
    # the first open interval at or after k (``size`` if none).
    nxt = list(range(size + 1))

    def open_from(k: int) -> int:
        root = k
        while nxt[root] != root:
            root = nxt[root]
        while nxt[k] != root:
            nxt[k], k = root, nxt[k]
        return root

    for j, lo, hi in zip(order.tolist(), first[order].tolist(), stop[order].tolist()):
        k = open_from(lo)
        while k < hi:
            members = picked[k]
            members.append(j)
            if len(members) == m:
                nxt[k] = k + 1
            k = open_from(k + 1)
    return tuple(tuple(members) for members in picked)


def contributions(
    grid: Grid, instance: Instance, s_hat: FloatArray
) -> tuple[tuple[tuple[int, ...], ...], FloatArray]:
    """``phi(k)`` for every interval of ``grid`` and each job's
    contributing time ``l(j)``, the lengths of its intervals summed in
    ascending order."""
    return _contributions(grid, grid.windows(instance), _priority(s_hat), instance)


def _contributions(
    grid: Grid,
    windows: tuple[np.ndarray, np.ndarray],
    order: np.ndarray,
    instance: Instance,
) -> tuple[tuple[tuple[int, ...], ...], FloatArray]:
    phi = _contributors(windows, grid.size, order, instance.m)
    l_of_j = [0.0] * instance.n
    for length, members in zip(grid.lengths.tolist(), phi):
        for j in members:
            l_of_j[j] += length
    return phi, np.array(l_of_j, dtype=np.float64)


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
    return certify(schedule.grid, schedule.instance, schedule.cost, lambdas)


def certify(
    grid: Grid, instance: Instance, cost: float, *duals: FloatArray
) -> DualCertificate:
    """The certificate of a run of ``cost`` on ``grid``: of the dual
    vectors in ``duals``, the one with the largest ``g`` (the first on
    a tie, as ``max`` picks).

    :func:`certificate_from_duals` and
    :meth:`~repro.core.pd.PDScheduler.streaming_certificate` pass one
    vector; CLL's hook passes three (``lambda``, ``lambda/2``,
    ``lambda/4``). ``phi(k)`` and ``l(j)`` read the duals only through the
    ``(-s_hat, id)`` order of the jobs with ``s_hat > 0``, so vectors
    with equal orders share one contributor pass, exactly. Scaling
    ``lambda`` by a power of two usually keeps that order, but rounding
    can tie or swap two jobs, so the order is compared, never assumed.
    """
    alpha = instance.alpha
    w = instance.workloads
    windows = grid.windows(instance)
    passes: dict[bytes, tuple[tuple[tuple[int, ...], ...], FloatArray]] = {}
    best: DualCertificate | None = None
    for lambdas in duals:
        lam = np.asarray(lambdas, dtype=np.float64)
        s_hat = (np.maximum(lam, 0.0) / (alpha * w)) ** (1.0 / (alpha - 1.0))
        order = _priority(s_hat)
        key = order.tobytes()
        if key not in passes:
            passes[key] = _contributions(grid, windows, order, instance)
        phi, l_of_j = passes[key]

        e_lambda = l_of_j * s_hat**alpha
        x_hat = np.where(w > 0, l_of_j * s_hat / w, 0.0)
        g = float((1.0 - alpha) * e_lambda.sum() + lam.sum())
        if best is None or g > best.g:
            best = DualCertificate(
                g=g,
                cost=cost,
                bound=alpha**alpha,
                s_hat=s_hat,
                e_lambda=e_lambda,
                x_hat=x_hat,
                contributors=phi,
            )
    if best is None:
        raise InvalidParameterError("certify needs at least one dual vector")
    return best
