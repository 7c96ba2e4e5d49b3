"""Analysis layer: dual certificates, job categories, traces, metrics.

This package turns the paper's *proof* into executable checks:

* :func:`dual_certificate` — ``g(lambda~)`` and the Theorem 3 certificate
  ``cost(PD) <= alpha**alpha * g(lambda~)``.
* :func:`categorize` / :func:`lemma_bounds` — the J1/J2/J3 split and the
  inequalities of Lemmas 9–11.
* :func:`build_traces` / :func:`check_proposition7` — Section 4.2's job
  traces and Proposition 7's speed bounds.
* :func:`kkt_residual` (re-exported) — stationarity check for offline
  convex solutions.
* :func:`schedule_metrics` — summary statistics for benchmark tables.
* :func:`audit_run` — all of the above for one PD run, as one report.
* :func:`hindsight_decomposition`, :func:`preemption_stats`,
  :func:`search_adversarial` — where a run lost against the offline
  optimum, what its realization preempts and migrates, and a search
  for instances that push PD towards ``alpha**alpha``.

Parameter sweeps are not here: an experiment is an
:class:`repro.engine.ExperimentSpec`, which
:func:`repro.engine.run_experiment` executes into one
:class:`repro.engine.ExperimentCell` per cell.
"""

from ..offline.convex import kkt_residual
from .adversary import AdversaryResult, mutate_instance, search_adversarial
from .categories import (
    CategoryReport,
    LemmaBounds,
    categorize,
    category_threshold,
    lemma_bounds,
)
from .certificates import (
    DualCertificate,
    certificate_from_duals,
    contributing_jobs,
    dual_certificate,
)
from .hindsight import HindsightDecomposition, hindsight_decomposition
from .metrics import ScheduleMetrics, empirical_ratio, schedule_metrics
from .preemption import PreemptionStats, preemption_stats
from .report import AuditReport, audit_run
from .traces import TraceReport, build_traces, check_proposition7

__all__ = [
    "AdversaryResult",
    "search_adversarial",
    "mutate_instance",
    "PreemptionStats",
    "preemption_stats",
    "dual_certificate",
    "certificate_from_duals",
    "DualCertificate",
    "contributing_jobs",
    "categorize",
    "CategoryReport",
    "category_threshold",
    "lemma_bounds",
    "LemmaBounds",
    "build_traces",
    "TraceReport",
    "check_proposition7",
    "kkt_residual",
    "schedule_metrics",
    "ScheduleMetrics",
    "empirical_ratio",
    "audit_run",
    "AuditReport",
    "hindsight_decomposition",
    "HindsightDecomposition",
]
