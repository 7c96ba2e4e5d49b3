"""repro — Profitable scheduling on multiple speed-scalable processors.

A production-quality reproduction of Kling & Pietrzyk, *Profitable
Scheduling on Multiple Speed-Scalable Processors* (SPAA 2013,
arXiv:1209.3868), including every substrate the paper builds on.

Quickstart
----------
>>> from repro import Instance, run_pd, dual_certificate
>>> inst = Instance.from_tuples(
...     [(0.0, 2.0, 1.0, 5.0), (0.5, 1.5, 0.8, 0.05)], m=2, alpha=3.0
... )
>>> result = run_pd(inst)
>>> cert = dual_certificate(result).require()  # Theorem 3, checked
>>> cert.ratio <= cert.bound
True

Layout
------
* :mod:`repro.model` — jobs, power functions, atomic intervals, schedules.
* :mod:`repro.chen` — Chen et al.'s per-interval multiprocessor scheduler
  (the energy function ``P_k`` and its marginals).
* :mod:`repro.core` — the paper's primal-dual algorithm **PD**, the
  Chan–Lam–Li baseline, and a uniform algorithm runner.
* :mod:`repro.engine` — the experiment engine: capability-aware
  algorithm registry, streaming/cached batch runner with static and
  work-stealing shards, declarative sweeps.
* :mod:`repro.classical` — YDS, OA, AVR, BKP, qOA.
* :mod:`repro.offline` — convex program + exact (IMP) solver.
* :mod:`repro.analysis` — dual certificates, Lemma/Proposition checks.
* :mod:`repro.discrete` — finite speed menus (SpeedStep-style hardware).
* :mod:`repro.general` — PD with arbitrary convex power functions.
* :mod:`repro.profit` — the Pruhs–Stein profit objective + augmentation.
* :mod:`repro.workloads` — adversarial / random / trace-like generators,
  all registered with the declarative workload registry (``WORKLOADS``).
* :mod:`repro.viz` — ASCII schedule rendering (the paper's figures).
"""

from .analysis import (
    DualCertificate,
    build_traces,
    categorize,
    check_proposition7,
    dual_certificate,
    lemma_bounds,
    schedule_metrics,
)
from .classical import run_avr, run_bkp, run_oa, run_oa_multiprocessor, run_qoa, yds
from .core import (
    PDResult,
    PDScheduler,
    run_algorithm,
    run_cll,
    run_pd,
)
from .discrete import SpeedSet, discretize_schedule, run_pd_discrete
from .engine import (
    REGISTRY,
    AlgorithmInfo,
    AlgorithmRegistry,
    BatchRunner,
    ExperimentSpec,
    ResultCache,
    RunRecord,
    RunRequest,
    run_experiment,
)
from .errors import ReproError
from .general import SumPower, general_dual_bound, run_pd_general
from .profit import profit_of, run_pd_augmented
from .model import Grid, Instance, Job, PolynomialPower, Schedule, grid_for_instance
from .offline import minimal_uniform_speed, run_uniform_speed, solve_exact, solve_min_energy
from .viz import gantt, speed_profile
from .workloads import WORKLOADS, WorkloadInfo, WorkloadRegistry

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # model
    "Job",
    "Instance",
    "Schedule",
    "Grid",
    "grid_for_instance",
    "PolynomialPower",
    # core
    "run_pd",
    "PDResult",
    "PDScheduler",
    "run_cll",
    "run_algorithm",
    # engine (registry / batch runner / declarative experiments)
    "REGISTRY",
    "AlgorithmInfo",
    "AlgorithmRegistry",
    "BatchRunner",
    "ResultCache",
    "RunRequest",
    "RunRecord",
    "ExperimentSpec",
    "run_experiment",
    # workload registry
    "WORKLOADS",
    "WorkloadInfo",
    "WorkloadRegistry",
    # classical
    "yds",
    "run_oa",
    "run_oa_multiprocessor",
    "run_avr",
    "run_bkp",
    "run_qoa",
    # offline
    "solve_min_energy",
    "solve_exact",
    # analysis
    "dual_certificate",
    "DualCertificate",
    "categorize",
    "lemma_bounds",
    "build_traces",
    "check_proposition7",
    "schedule_metrics",
    # discrete speed levels
    "SpeedSet",
    "discretize_schedule",
    "run_pd_discrete",
    # generalized power functions
    "SumPower",
    "run_pd_general",
    "general_dual_bound",
    # profit objective
    "profit_of",
    "run_pd_augmented",
    # uniform-speed baseline
    "minimal_uniform_speed",
    "run_uniform_speed",
    # viz
    "gantt",
    "speed_profile",
    # errors
    "ReproError",
]
