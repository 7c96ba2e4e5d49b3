"""Structured instance families with special window patterns.

Scheduling theory distinguishes instance classes by the structure of the
release/deadline windows; algorithms often behave very differently across
them, so the test- and benchmark-suites sweep all of these:

* **agreeable** — windows ordered the same way by release and deadline
  (``r_i <= r_j  =>  d_i <= d_j``); the "easy" online case.
* **laminar** — windows nested like parentheses; the hierarchical case
  produced by fork-join workloads.
* **batch** — everything released together with a common deadline; the
  pure load-balancing case where Chen et al.'s partition does all the
  work (this is the shape of the paper's Figure 2 example).
* **tight** — windows barely longer than the work at unit speed; the
  high-pressure case where rejections dominate.

``tight`` and ``slotted`` return columnar instances
(:meth:`~repro.model.job.Instance.from_arrays`), as the random families
do. ``agreeable``, ``laminar`` and ``batch`` build ``Job`` tuples:
``batch`` passes its caller's ``deadline`` through unconverted, and a
float column would change an int's canonical text (``1`` to ``1.0``) and
with it the cache key.

A family that draws one value at a time writes the draw as the
arithmetic numpy runs behind the scalar call, on the cheaper call that
reads the same bit-generator outputs: ``rng.uniform(low, high)`` is
``low + (high - low) * rng.random()`` and ``rng.exponential(scale)`` is
``scale * rng.standard_exponential()``. The argument handling of the
scalar calls costs about three times the draw.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance, Job
from ..model.job_arrays import JobArrays
from ..types import Seed
from .random_instances import (
    _rng,
    check_knob,
    check_value_ratio,
    solo_energy,
    valued_instance,
)
from .registry import register_workload

__all__ = [
    "agreeable_instance",
    "laminar_instance",
    "batch_instance",
    "tight_instance",
    "bursty_instance",
    "slotted_instance",
]


@register_workload(
    "agreeable",
    summary="releases and deadlines increase together (FIFO-like windows)",
)
def agreeable_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    value_ratio: tuple[float, float] = (0.2, 5.0),
    seed: Seed = None,
) -> Instance:
    """Releases and deadlines increase together (FIFO-like windows)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    lo, width = check_value_ratio(value_ratio)
    rng = _rng(seed)
    releases = np.sort(rng.uniform(0.0, 10.0, size=n))
    spans = rng.uniform(1.0, 3.0, size=n)
    deadlines = releases + spans
    deadlines = np.maximum.accumulate(deadlines)  # enforce agreeability
    random = rng.random
    jobs = []
    for r, d in zip(releases.tolist(), deadlines.tolist()):
        w = 0.2 + (1.5 - 0.2) * random()
        ratio = lo + width * random()
        value = ratio * solo_energy(alpha, w, d - r)
        jobs.append(Job(r, d, w, value))
    return Instance(tuple(jobs), m=m, alpha=alpha)


def laminar_instance(
    depth: int,
    *,
    branching: int = 2,
    m: int = 1,
    alpha: float = 3.0,
    value_ratio: tuple[float, float] = (0.2, 5.0),
    seed: Seed = None,
) -> Instance:
    """Nested windows: one job per node of a ``branching``-ary tree.

    The root spans ``[0, 2**depth)``; each child splits its parent's
    window. Total jobs: ``(branching**depth - 1) / (branching - 1)`` for
    ``branching >= 2``.
    """
    if depth < 1:
        raise InvalidParameterError(f"need depth >= 1, got {depth}")
    if branching < 2:
        raise InvalidParameterError(f"need branching >= 2, got {branching}")
    ratio_lo, ratio_width = check_value_ratio(value_ratio)
    random = _rng(seed).random
    jobs: list[Job] = []

    def recurse(lo: float, hi: float, level: int) -> None:
        span = hi - lo
        w = (0.2 + (0.8 - 0.2) * random()) * span
        ratio = ratio_lo + ratio_width * random()
        value = ratio * solo_energy(alpha, w, span)
        jobs.append(Job(lo, hi, w, value))
        if level + 1 >= depth:
            return
        step = span / branching
        for b in range(branching):
            recurse(lo + b * step, lo + (b + 1) * step, level + 1)

    recurse(0.0, float(2**depth), 0)
    return Instance(tuple(jobs), m=m, alpha=alpha)


@register_workload(
    "batch",
    summary="all jobs released at 0 with a common deadline (Figure 2)",
    params={"deadline": float},
)
def batch_instance(
    n: int,
    *,
    m: int = 4,
    alpha: float = 3.0,
    deadline: float = 1.0,
    value_ratio: tuple[float, float] = (0.2, 5.0),
    seed: Seed = None,
) -> Instance:
    """All jobs released at 0 with a common deadline (Figure 2's shape)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    check_knob(
        "deadline", deadline, math.isfinite(deadline) and deadline > 0.0,
        "a finite number > 0",
    )
    lo, width = check_value_ratio(value_ratio)
    random = _rng(seed).random
    jobs = []
    for _ in range(n):
        w = 0.1 + (2.0 - 0.1) * random()
        ratio = lo + width * random()
        value = ratio * solo_energy(alpha, w, deadline)
        jobs.append(Job(0.0, deadline, w, value))
    return Instance(tuple(jobs), m=m, alpha=alpha)


@register_workload(
    "tight",
    summary="windows barely longer than the work at unit speed",
    params={"slack": float},
)
def tight_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    slack: float = 1.2,
    value_ratio: tuple[float, float] = (0.2, 5.0),
    seed: Seed = None,
) -> Instance:
    """Windows only ``slack`` times longer than the work at unit speed.

    Each job draws its gap, its workload and its value ratio in turn, so
    the draws stay one job at a time, on ``standard_exponential`` and
    ``random`` (the module docstring gives the arithmetic). The columns
    are built after: ``np.cumsum`` adds the gaps left to right, as a
    running sum would.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    check_knob(
        "slack", slack, 1.0 < slack < math.inf, "a finite number > 1"
    )
    lo, width = check_value_ratio(value_ratio)
    rng = _rng(seed)
    exponential, random = rng.standard_exponential, rng.random
    gaps, workloads, ratios = np.array([
        (0.5 * exponential(), 0.2 + (1.5 - 0.2) * random(), lo + width * random())
        for _ in range(n)
    ]).T
    releases = np.cumsum(gaps)
    spans = workloads * slack
    return valued_instance(
        releases, releases + spans, workloads, spans, ratios, alpha=alpha, m=m
    )


@register_workload(
    "bursty",
    summary="unit must-finish jobs with periodically tightened windows",
    params={"burstiness": float, "spike_period": int, "base_span": float},
    classical=True,
)
def bursty_instance(
    n: int,
    *,
    burstiness: float = 4.0,
    spike_period: int = 4,
    m: int = 1,
    alpha: float = 3.0,
    base_span: float = 2.0,
    seed: Seed = None,
) -> Instance:
    """Unit jobs with every ``spike_period``-th window tightened.

    ``burstiness = 1`` gives identical relaxed windows (flat load);
    larger values squeeze one job in ``spike_period`` into a window
    ``burstiness`` times shorter, concentrating work into spikes. The
    family parametrizes the value-of-speed-scaling experiment (E13): a
    fixed-frequency machine must provision for the spike speed and then
    pays it on *all* its work, so its energy ratio against the offline
    optimum climbs towards the work-concentration factor
    ``spike_period`` as spikes sharpen.

    Jobs are must-finish (classical), so the family also composes with
    the classical algorithm zoo.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    check_knob("burstiness", burstiness, burstiness >= 1.0, ">= 1")
    check_knob("spike_period", spike_period, spike_period >= 2, ">= 2")
    check_knob(
        "base_span", base_span, math.isfinite(base_span) and base_span > 0.0,
        "a finite number > 0",
    )
    random = _rng(seed).random
    low = 0.25 * base_span
    width = 0.5 * base_span - low
    rows = []
    t = 0.0
    for i in range(n):
        span = (
            base_span / burstiness
            if i % spike_period == spike_period - 1
            else base_span
        )
        rows.append((t, t + span, 1.0))
        t += low + width * random()
    return Instance.classical(rows, m=m, alpha=alpha)


@register_workload(
    "laminar",
    summary="nested windows from a branching-ary tree (fork-join shape)",
    params={"branching": int},
)
def _laminar_family(n, *, branching=2, m=1, alpha=3.0, seed=0):
    """Adapter: :func:`laminar_instance` is parameterized by tree depth,
    not job count — map ``n`` to the binary-tree depth whose node count
    (``2**depth - 1``) comes closest from below, so the registry's
    uniform contract "about n jobs" holds."""
    depth = max(1, (n + 1).bit_length() - 1)
    return laminar_instance(depth, branching=branching, m=m, alpha=alpha, seed=seed)


@register_workload(
    "slotted",
    summary="slotted request stream: releases on a bounded slot grid, "
    "built columnar (the large-n fast path)",
    params={"slots": int, "span_max": int},
)
def slotted_instance(
    n: int,
    *,
    slots: int = 400,
    span_max: int = 6,
    m: int = 1,
    alpha: float = 3.0,
    value_ratio: tuple[float, float] = (0.05, 8.0),
    seed: Seed = None,
) -> Instance:
    """A slotted request stream: ``n`` jobs over ``slots`` time slots.

    Releases snap to slot boundaries and windows span 1 to ``span_max``
    slots, so the number of distinct event times — and with it the
    atomic-interval grid every algorithm works on — is bounded by the
    slot count, not the job count. This is the shape of a datacenter
    request stream batched per scheduling quantum, and the instance
    family the large-scale benches (100k–1M jobs) sweep.

    Generation is vectorized into a
    :class:`~repro.model.job_arrays.JobArrays` column block, with no
    per-job loop at all, which is what keeps million-job construction at
    milliseconds. A value here is ``ratio * workload``, not a multiple
    of the solo energy.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if slots < 1:
        raise InvalidParameterError(f"need slots >= 1, got {slots}")
    if span_max < 1:
        raise InvalidParameterError(f"need span_max >= 1, got {span_max}")
    check_value_ratio(value_ratio)
    rng = _rng(seed)
    releases = np.sort(rng.integers(0, slots, size=n)).astype(np.float64)
    spans = rng.integers(1, span_max + 1, size=n).astype(np.float64)
    workloads = rng.exponential(1.0, size=n) + 1e-3
    values = rng.uniform(*value_ratio, size=n) * workloads
    arrays = JobArrays(
        releases=releases,
        deadlines=releases + spans,
        workloads=workloads,
        values=values,
    )
    return Instance.from_arrays(arrays, m=m, alpha=alpha)
