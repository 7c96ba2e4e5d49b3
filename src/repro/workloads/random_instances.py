"""Random instance families for stress-testing and benchmarks.

All generators take an explicit seed (or ``numpy.random.Generator``) and
are fully deterministic given it. Values are parameterized by a
*value-to-energy ratio* knob: a job's value is drawn as a multiple of its
solo energy (constant speed over its own window), which is the natural
scale at which accept/reject decisions flip — drawing values on any other
scale makes instances trivially all-accept or all-reject.

Every family here draws whole columns and returns a columnar instance
(:meth:`~repro.model.job.Instance.from_arrays`): no ``Job`` is built per
job, and the cache key and serializers read the columns.
:func:`valued_instance` is the shared last step, which
:func:`~repro.workloads.structured.tight_instance` uses too.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance
from ..model.job_arrays import JobArrays
from ..model.power import PolynomialPower, optimal_constant_speed_energy
from ..types import FloatArray, Seed
from .registry import register_workload

__all__ = ["poisson_instance", "heavy_tail_instance", "uniform_instance"]


def _rng(seed: Seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_value_ratio(value_ratio: object) -> tuple[float, float]:
    """Raise the canonical error unless ``value_ratio`` is a finite
    ``(lo, hi)`` pair with ``0 < lo <= hi``.

    Every family that draws values calls this before its first draw. It
    returns ``(lo, hi - lo)`` as floats, the offset and width numpy's
    ``uniform`` draws a ratio with: ``lo + width * rng.random()`` is
    that draw, bit for bit.
    """
    try:
        lo, hi = value_ratio  # type: ignore[misc]
        ok = math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidParameterError(
            f"value_ratio must be a finite (lo, hi) with 0 < lo <= hi, "
            f"got {value_ratio!r}"
        )
    return float(lo), float(hi) - float(lo)


def check_knob(name: str, value: object, ok: bool, rule: str) -> None:
    """Raise the canonical error naming knob ``name`` unless ``ok``.

    Every family checks its knobs before its first draw, so a bad value
    fails here, not in numpy's argument checks or a job's constructor.
    """
    if not ok:
        raise InvalidParameterError(f"{name} must be {rule}, got {value!r}")


def solo_energy(alpha: float, workload: float, duration: float) -> float:
    """A job's solo energy, the float
    :func:`~repro.model.power.optimal_constant_speed_energy` returns,
    with the canonical error where it overflows a float."""
    try:
        return optimal_constant_speed_energy(alpha, workload, duration)
    except OverflowError:
        raise _overflow(alpha) from None


def _overflow(alpha: float) -> InvalidParameterError:
    return InvalidParameterError(
        "a job's solo energy duration * (workload / duration)**alpha "
        f"overflows a float at alpha={alpha!r}; the workloads, windows or "
        "alpha are out of range"
    )


def valued_instance(
    releases: FloatArray,
    deadlines: FloatArray,
    workloads: FloatArray,
    durations: FloatArray,
    ratios: FloatArray,
    *,
    alpha: float,
    m: int,
) -> Instance:
    """A columnar instance whose values are ``ratio * solo energy``.

    A job's solo energy is ``duration * (workload / duration)**alpha``,
    the float :func:`~repro.model.power.optimal_constant_speed_energy`
    returns. The power is taken per job with scalar ``**``: numpy's
    vectorized power differs from it in the last bit on some elements.
    """
    PolynomialPower(alpha)  # the canonical error for a bad alpha
    if not (durations > 0.0).all():
        raise InvalidParameterError(
            "cannot finish a job's workload in a non-positive duration"
        )
    speeds = (workloads / durations).tolist()
    try:
        solo = np.array([s**alpha for s in speeds]) * durations
    except OverflowError:
        raise _overflow(alpha) from None
    arrays = JobArrays(
        releases=releases,
        deadlines=deadlines,
        workloads=workloads,
        values=ratios * solo,
    )
    return Instance.from_arrays(arrays, m=m, alpha=alpha)


def _spans_valued(
    releases: FloatArray,
    spans: FloatArray,
    workloads: FloatArray,
    *,
    alpha: float,
    m: int,
    rng: np.random.Generator,
    value_ratio: tuple[float, float],
) -> Instance:
    """Windows ``[release, release + span)``, values drawn last."""
    deadlines = releases + spans
    ratios = rng.uniform(*value_ratio, size=releases.size)
    return valued_instance(
        releases, deadlines, workloads, deadlines - releases, ratios,
        alpha=alpha, m=m,
    )


@register_workload(
    "poisson",
    summary="Poisson arrivals, exponential windows and workloads",
    params={"arrival_rate": float, "mean_span": float, "mean_workload": float},
)
def poisson_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    arrival_rate: float = 1.0,
    mean_span: float = 2.0,
    mean_workload: float = 1.0,
    value_ratio: tuple[float, float] = (0.1, 10.0),
    seed: Seed = None,
) -> Instance:
    """Poisson arrivals, exponential windows and workloads.

    The canonical "data-center request stream" shape: memoryless arrivals
    with i.i.d. work. ``value_ratio`` spans two orders of magnitude by
    default, so a healthy mix of accepts and rejects occurs.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    check_knob("arrival_rate", arrival_rate, arrival_rate > 0.0, "> 0")
    for name, mean in (("mean_span", mean_span), ("mean_workload", mean_workload)):
        # numpy rejects a -0.0 scale as negative: test the sign bit.
        ok = math.isfinite(mean) and math.copysign(1.0, mean) > 0.0
        check_knob(name, mean, ok, "a finite number >= 0")
    check_value_ratio(value_ratio)
    rng = _rng(seed)
    gaps = rng.exponential(1.0 / arrival_rate, size=n)
    releases = np.cumsum(gaps) - gaps[0]
    spans = rng.exponential(mean_span, size=n) + 1e-2
    workloads = rng.exponential(mean_workload, size=n) + 1e-3
    return _spans_valued(
        releases, spans, workloads,
        alpha=alpha, m=m, rng=rng, value_ratio=value_ratio,
    )


@register_workload(
    "heavy-tail",
    summary="Pareto workloads, uniform arrivals: a few elephants, many mice",
    params={"pareto_shape": float, "horizon": float},
)
def heavy_tail_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    pareto_shape: float = 1.5,
    horizon: float = 50.0,
    value_ratio: tuple[float, float] = (0.1, 10.0),
    seed: Seed = None,
) -> Instance:
    """Pareto workloads with uniform arrivals: a few elephants, many mice.

    Heavy tails are the adversarial regime for speed scaling — an elephant
    with a tight window forces either a large energy investment or a large
    value loss, which is exactly where the rejection policy earns its keep.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    check_knob("pareto_shape", pareto_shape, pareto_shape > 0.0, "> 0")
    check_knob(
        "horizon", horizon, math.isfinite(horizon) and 0.2 * horizon >= 0.5,
        "a finite number >= 2.5",
    )
    check_value_ratio(value_ratio)
    rng = _rng(seed)
    releases = np.sort(rng.uniform(0.0, horizon, size=n))
    spans = rng.uniform(0.5, 0.2 * horizon, size=n)
    workloads = rng.pareto(pareto_shape, size=n) + 0.05
    return _spans_valued(
        releases, spans, workloads,
        alpha=alpha, m=m, rng=rng, value_ratio=value_ratio,
    )


@register_workload(
    "uniform",
    summary="everything uniform: the bland control family",
    params={"horizon": float},
)
def uniform_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    horizon: float = 20.0,
    value_ratio: tuple[float, float] = (0.1, 10.0),
    seed: Seed = None,
) -> Instance:
    """Everything uniform: the bland control family."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    check_knob(
        "horizon", horizon, math.isfinite(horizon) and horizon * 0.3 >= 0.2,
        "a finite number >= 2/3",
    )
    check_value_ratio(value_ratio)
    rng = _rng(seed)
    releases = rng.uniform(0.0, horizon * 0.8, size=n)
    spans = rng.uniform(0.2, horizon * 0.3, size=n)
    workloads = rng.uniform(0.1, 2.0, size=n)
    return _spans_valued(
        releases, spans, workloads,
        alpha=alpha, m=m, rng=rng, value_ratio=value_ratio,
    )
