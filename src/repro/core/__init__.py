"""Core: the paper's primal-dual algorithm PD and its profitable peers."""

from .cll import CLLResult, cll_admits, run_cll
from .pd import JobDecision, PDResult, PDScheduler, run_pd
from .policies import (
    PolicyResult,
    run_accept_all,
    run_oracle_admission,
    run_reject_all,
    run_solo_threshold,
    run_with_admission,
)
from .waterfill import WaterfillOutcome, waterfill_job
from ..engine.registry import RunOutcome

__all__ = [
    "run_pd",
    "PDResult",
    "PDScheduler",
    "JobDecision",
    "run_cll",
    "CLLResult",
    "cll_admits",
    "waterfill_job",
    "WaterfillOutcome",
    "PolicyResult",
    "run_accept_all",
    "run_reject_all",
    "run_solo_threshold",
    "run_oracle_admission",
    "run_with_admission",
    "RunOutcome",
]
