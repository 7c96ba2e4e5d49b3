"""Incremental algorithm kernels and the performance harness.

``repro.perf`` holds the engineering layer that makes the hot
simulation paths scale without changing a single bit of their output:

* :mod:`repro.perf.kernels` — incremental per-interval load stores
  (:class:`~repro.perf.kernels.IntervalLoads`) and the window
  evaluator (:class:`~repro.perf.kernels.WindowKernel`) the primal-dual
  water-filling prices jobs against, including its closed-form
  clearing-speed solve;
* :mod:`repro.perf.epochs` — the arrival-epoch layer
  (:func:`~repro.perf.epochs.arrive_epochs`) that
  ``PDScheduler.arrive_many`` runs: blocks of consecutive arrivals
  consumed off the columnar job storage with vectorized
  order/window/price-cap passes and zero-work rejects settled against
  per-interval opening speeds, bit-identical decisions;
* :mod:`repro.perf.energy` — batched multi-interval energy evaluation
  (:func:`~repro.perf.energy.schedule_energy` over dense load matrices,
  :func:`~repro.perf.energy.stores_energy` over streaming
  ``IntervalLoads``), one vectorized pass instead of a per-column loop;
* :mod:`repro.perf.reference` — the historical straight-line
  implementations (dense-matrix PD, per-column energy, the bisecting
  water-fill, OA's from-scratch replan), kept verbatim for
  differential ("bit parity") testing against the kernels;
* :mod:`repro.perf.bench` — named perf scenarios (kernel points, and
  the ``warm-sweep`` point: a warm engine sweep end to end), the
  machine-readable ``BENCH_<scenario>.json`` emitter, and the
  baseline-comparison gate behind ``python -m repro bench``.

Every kernel is bit-parity-tested against the reference path: same
schedules, same costs, same certificates, same cache keys. Speed is an
execution strategy here, never a result change — with one versioned
exception: the water-fill's exact clearing speed replaced a bisection
whose accepted speeds it moves within the old tolerance
(``RECORD_VERSION`` 3; oracle
:func:`~repro.perf.reference.waterfill_job_reference`).
``RECORD_VERSION`` 4 moved no float: records stopped embedding their
instance and keys hash the instance digest, which cut the warm path's
decode and key work.
"""

from .energy import schedule_energy, stores_energy
from .epochs import DEFAULT_EPOCH_SIZE, arrive_epochs
from .kernels import IntervalLoads, WindowKernel

__all__ = [
    "DEFAULT_EPOCH_SIZE",
    "IntervalLoads",
    "WindowKernel",
    "arrive_epochs",
    "schedule_energy",
    "stores_energy",
]
