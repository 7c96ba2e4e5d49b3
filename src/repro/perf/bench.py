"""Named perf scenarios, the BENCH json emitter, and the baseline gate.

The CLI front end is ``python -m repro bench``. Each *scenario* runs a
fixed, seeded series of measurement points (``{n, m, wall_time, ...}``)
and emits a machine-readable ``BENCH_<scenario>.json`` payload:

.. code-block:: json

    {"schema": 1, "kind": "bench-series", "scenario": "pd-scaling",
     "environment": {"python": "...", "numpy": "...",
                     "calibration_seconds": 0.041, ...},
     "series": [{"n": 25, "m": 1, "wall_time": 0.0021, ...}, ...]}

Two grids per scenario: the ``full`` grid tracked in
``benchmarks/results/`` (and frozen as the committed baseline under
``benchmarks/baselines/``), and a reduced ``smoke`` grid cheap enough
for CI. The baseline gate matches points by their identity keys
(everything except the measured fields) and fails on any point slower
than ``factor`` × baseline — after rescaling by the two environments'
``calibration_seconds`` (a fixed numpy+Python workload timed at emit
time), so a faster or slower CI machine does not masquerade as a code
change.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

import numpy as np

from ..errors import InvalidParameterError

if TYPE_CHECKING:
    from ..model.job import Instance

__all__ = [
    "SCENARIOS",
    "run_scenario",
    "write_result",
    "load_result",
    "compare_to_baseline",
    "environment_stamp",
]

#: Fields that are measurements, not point identity.
_MEASURE_KEYS = frozenset(
    {
        "wall_time",
        "run_time",
        "certify_time",
        "cost",
        "records_per_s",
    }
)


@dataclass(frozen=True)
class BenchScenario:
    """One named perf scenario: a point grid and a point runner."""

    name: str
    summary: str
    full: tuple[Mapping[str, Any], ...]
    smoke: tuple[Mapping[str, Any], ...]
    run_point: Callable[[Mapping[str, Any]], dict]

    def points(self, grid: str) -> tuple[Mapping[str, Any], ...]:
        if grid == "full":
            return self.full
        if grid == "smoke":
            return self.smoke
        raise InvalidParameterError(
            f"grid must be 'full' or 'smoke', got {grid!r}"
        )


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


# ----------------------------------------------------------------------
# Scenario runners
# ----------------------------------------------------------------------
def _pd_point(point: Mapping[str, Any]) -> dict:
    from ..analysis.certificates import dual_certificate
    from ..core.pd import run_pd
    from ..workloads import poisson_instance

    n, m = int(point["n"]), int(point["m"])
    instance = poisson_instance(n, m=m, alpha=3.0, seed=0)
    t_run, result = _timed(lambda: run_pd(instance))
    t_cert, cert = _timed(lambda: dual_certificate(result))
    if not cert.holds:  # pragma: no cover - a failing bound is a bug
        raise AssertionError(f"certificate violated at n={n}, m={m}")
    return {
        "n": n,
        "m": m,
        "wall_time": t_run + t_cert,
        "run_time": t_run,
        "certify_time": t_cert,
        "cost": result.cost,
    }


def _classical_instance(n: int, seed: int = 0) -> "Instance":
    from ..model.job import Instance
    from ..workloads import poisson_instance

    base = poisson_instance(n, m=1, alpha=3.0, seed=seed)
    return Instance.classical(
        [(j.release, j.deadline, j.workload) for j in base.jobs],
        m=1,
        alpha=3.0,
    )


def _oa_point(point: Mapping[str, Any]) -> dict:
    from ..classical.oa import run_oa

    n = int(point["n"])
    instance = _classical_instance(n)
    wall, result = _timed(lambda: run_oa(instance))
    return {"n": n, "m": 1, "wall_time": wall, "cost": result.cost}


def _cll_point(point: Mapping[str, Any]) -> dict:
    from ..core.cll import run_cll
    from ..workloads import poisson_instance

    n = int(point["n"])
    instance = poisson_instance(n, m=1, alpha=3.0, seed=0)
    wall, result = _timed(lambda: run_cll(instance))
    return {"n": n, "m": 1, "wall_time": wall, "cost": result.cost}


def _yds_point(point: Mapping[str, Any]) -> dict:
    from ..classical.yds import yds

    n = int(point["n"])
    instance = _classical_instance(n)
    wall, result = _timed(lambda: yds(instance))
    return {"n": n, "m": 1, "wall_time": wall, "cost": result.energy}


def _cache_point(point: Mapping[str, Any]) -> dict:
    import tempfile

    from ..engine.cache import open_cache

    backend = str(point["backend"])
    ops = int(point["n"])
    payload = {
        "kind": "run-record",
        "algorithm": "bench",
        "wall_time": 0.5,
        "body": "x" * 512,
    }
    with tempfile.TemporaryDirectory() as root:
        path = {
            "dir": root,
            "sqlite": os.path.join(root, "bench.db"),
            "memory": None,
        }[backend]
        cache = open_cache(path, backend)
        try:

            def exercise() -> None:
                for i in range(ops):
                    key = f"bench-{i:06d}"
                    cache.put(key, payload)
                    if cache.get(key) is None:  # pragma: no cover
                        raise AssertionError("cache dropped a fresh put")

            wall, _ = _timed(exercise)
        finally:
            cache.close()
    return {"n": ops, "m": 1, "backend": backend, "wall_time": wall}


def _pd_stream_point(point: Mapping[str, Any]) -> dict:
    """PD at 10k–1M jobs: SoA generation, epoch batching, streaming cost.

    The dense ``(n, N)`` schedule matrix a ``finish()`` would build is
    tens of gigabytes at a million jobs — this point exercises exactly
    the path that avoids it: columnar ``slotted`` generation, the
    arrival-epoch batched main loop (:mod:`repro.perf.epochs` — the
    bit-parity-tested fast twin of the per-arrival loop), and
    :meth:`PDScheduler.streaming_cost` off the live stores. The ``cost``
    field is byte-identical to what the per-arrival loop produces, so
    baselines emitted before the epoch path still match on identity.
    """
    from ..core.pd import PDScheduler
    from ..workloads import slotted_instance

    n, m = int(point["n"]), int(point["m"])
    instance = slotted_instance(n, slots=1000, m=m, alpha=3.0, seed=0)
    arrays = instance.sorted_by_release().arrays

    def exercise() -> float:
        sched = PDScheduler(m=m, alpha=3.0)
        sched.arrive_many(arrays)
        return sched.streaming_cost()

    wall, cost = _timed(exercise)
    return {"n": n, "m": m, "wall_time": wall, "cost": float(cost)}


def _oa_stream_point(point: Mapping[str, Any]) -> dict:
    """Incremental OA at 100k jobs: lazy-prefix replans, epoch bookkeeping."""
    from ..classical.oa import oa_segments
    from ..model.power import PolynomialPower
    from ..workloads import slotted_instance

    n = int(point["n"])
    instance = slotted_instance(n, slots=2000, m=1, alpha=3.0, seed=0)
    wall, out = _timed(lambda: oa_segments(instance))
    _, executed = out
    power = PolynomialPower(3.0)
    energy = sum(
        (hi - lo) * power(speed) for _, lo, hi, speed in executed
    )
    return {"n": n, "m": 1, "wall_time": wall, "cost": float(energy)}


def _fabric_point(point: Mapping[str, Any]) -> dict:
    """HTTP cache fabric throughput against a live in-process server.

    Every point boots a fresh :class:`CacheServer` over a
    ``MemoryCache`` and drives it through ``HttpCache`` /
    ``HttpClaimTable`` exactly as a distributed sweep would: keep-alive
    connection pools and claim leases batched 16 per round trip.

    Ops: ``steal-hits`` drains a fully pre-seeded claim sweep (pure
    fabric round trips, zero compute), ``steal-mixed`` pre-seeds half
    the cells (hit/miss interleave through the pipelined loop), and
    ``bulk`` pushes ``put_many``/``get_many`` batches of ``size``-byte
    payloads. ``records_per_s`` is the figure of merit; request
    construction and cache seeding happen outside the timed region.
    """
    from ..engine.cache import MemoryCache
    from ..engine.remote import HttpCache, HttpClaimTable
    from ..engine.runner import (
        BatchRunner,
        RunRequest,
        evaluate_request,
        request_key,
    )
    from ..io.server import CacheServer
    from ..workloads import poisson_instance

    op = str(point["op"])
    n = int(point["n"])
    server = CacheServer(MemoryCache()).start()
    try:
        if op == "bulk":
            size = int(point["size"])
            entries = {
                f"cell-{i:06d}": {"kind": "bench", "body": "x" * size}
                for i in range(n)
            }
            cache = HttpCache(server.url)
            try:

                def exercise() -> None:
                    cache.put_many(entries)
                    found = cache.get_many(list(entries))
                    if len(found) != n:  # pragma: no cover - lost update
                        raise AssertionError("bulk round trip lost entries")

                wall, _ = _timed(exercise)
            finally:
                cache.close()
            ops_done = 2 * n  # n puts + n gets
            return {
                "n": n,
                "m": 1,
                "op": op,
                "size": size,
                "wall_time": wall,
                "records_per_s": ops_done / wall,
            }

        workers = int(point.get("workers", 1))
        requests = [
            RunRequest(
                "pd",
                poisson_instance(4, m=1, alpha=3.0, seed=i),
                tag={"cell": i},
            )
            for i in range(n)
        ]
        payload = evaluate_request(requests[0])
        seeded = n if op == "steal-hits" else n // 2
        for request in requests[:seeded]:
            server.cache.put(
                request_key(request.algorithm, request.instance), payload
            )
        cache = HttpCache(server.url)
        claims = HttpClaimTable(server.url, "bench-fabric", n, lease_ttl=300.0)
        runner = BatchRunner(workers=workers, cache=cache, claim_batch=16)
        try:
            wall, pairs = _timed(
                lambda: runner.run_stolen(requests, claims)
            )
        finally:
            claims.close()
            cache.close()
        if len(pairs) != n:  # pragma: no cover - lost cells are a bug
            raise AssertionError(
                f"stolen sweep returned {len(pairs)} of {n} cells"
            )
        return {
            "n": n,
            "m": 1,
            "op": op,
            "workers": workers,
            "wall_time": wall,
            "records_per_s": n / wall,
        }
    finally:
        server.stop()


def _points(**axes: Iterable) -> tuple[dict, ...]:
    """Cartesian grid helper: ``_points(n=[1,2], m=[1])``."""
    out: list[dict] = [{}]
    for key, values in axes.items():
        out = [{**point, key: value} for point in out for value in values]
    return tuple(out)


SCENARIOS: dict[str, BenchScenario] = {
    scenario.name: scenario
    for scenario in (
        BenchScenario(
            name="pd-scaling",
            summary="full PD pipeline (run + Theorem 3 certificate)",
            full=_points(n=[25, 50, 100, 200, 500, 1000, 2000], m=[1, 4]),
            smoke=_points(n=[25, 50, 100], m=[1]),
            run_point=_pd_point,
        ),
        BenchScenario(
            name="oa-scaling",
            summary="Optimal Available simulation (classical instances)",
            full=_points(n=[25, 50, 100, 200, 400, 800]),
            smoke=_points(n=[25, 50]),
            run_point=_oa_point,
        ),
        BenchScenario(
            name="cll-scaling",
            summary="Chan-Lam-Li on the lazy OA planner (profitable "
            "instances, E3's baseline)",
            full=_points(n=[200, 400, 800, 2000]),
            smoke=_points(n=[200, 400]),
            run_point=_cll_point,
        ),
        BenchScenario(
            name="yds-scaling",
            summary="YDS offline optimum (vectorized critical scan)",
            full=_points(n=[25, 50, 100, 200, 400]),
            smoke=_points(n=[25, 50]),
            run_point=_yds_point,
        ),
        BenchScenario(
            name="cache-micro",
            summary="micro: put+get round trips per cache backend",
            full=_points(n=[300], backend=["dir", "sqlite", "memory"]),
            smoke=_points(n=[300], backend=["dir", "sqlite", "memory"]),
            run_point=_cache_point,
        ),
        BenchScenario(
            name="pd-1m",
            summary="PD at 10k-1M jobs: SoA instances, epoch batching, "
            "streaming cost",
            # The 10k point appears in both grids so the smoke run's
            # fastest point is still matched (and gated) against the
            # committed full-grid baseline.
            full=_points(n=[10_000, 100_000, 1_000_000], m=[4]),
            smoke=_points(n=[10_000, 100_000], m=[4]),
            run_point=_pd_stream_point,
        ),
        BenchScenario(
            name="oa-100k",
            summary="incremental OA at 100k jobs (lazy-prefix replans)",
            full=_points(n=[25_000, 100_000]),
            smoke=_points(n=[100_000]),
            run_point=_oa_stream_point,
        ),
        BenchScenario(
            name="fabric-throughput",
            summary="HTTP fabric records/s: claim-stealing sweeps and "
            "bulk batches",
            full=_points(
                op=["steal-hits", "steal-mixed"], n=[240], workers=[1]
            )
            + _points(op=["steal-hits"], n=[240], workers=[4])
            + _points(op=["bulk"], n=[300], size=[64, 4096]),
            # Smoke is an identity subset of full, so the calibrated
            # baseline gate actually matches (and checks) every point.
            smoke=_points(op=["steal-hits"], n=[240], workers=[1])
            + _points(op=["bulk"], n=[300], size=[4096]),
            run_point=_fabric_point,
        ),
    )
}


# ----------------------------------------------------------------------
# Environment stamp & calibration
# ----------------------------------------------------------------------
#: Timings of the calibration yardstick per stamp; the median is kept.
_CALIBRATION_REPEATS = 5


def _calibration_seconds(clock: Callable[[], float] = time.perf_counter) -> float:
    """Time a fixed numpy + Python workload (machine speed yardstick).

    The baseline gate divides measured wall times by the ratio of the
    two environments' calibration values, so a CI runner half as fast
    as the baseline machine is not reported as a 2x regression. Single
    timings spread from 0.023 to 0.032 s on a shared 2-core host, so
    the yardstick runs ``_CALIBRATION_REPEATS`` times and the median
    timing counts.
    """
    rng = np.random.default_rng(12345)
    data = rng.random(200_000)
    timings = []
    for _ in range(_CALIBRATION_REPEATS):
        start = clock()
        acc = 0.0
        for _ in range(5):
            acc += float(np.sort(data)[::-1].cumsum()[-1])
            acc += sum(float(v) for v in data[:20_000])
        if not math.isfinite(acc):  # pragma: no cover - keeps the loop live
            raise AssertionError("calibration overflow")
        timings.append(clock() - start)
    return statistics.median(timings)


def environment_stamp() -> dict:
    """Machine-readable provenance of a bench run."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "calibration_seconds": round(_calibration_seconds(), 6),
    }


# ----------------------------------------------------------------------
# Running / persisting / comparing
# ----------------------------------------------------------------------
def run_scenario(
    name: str,
    *,
    grid: str = "full",
    progress: Callable[[str], None] | None = None,
    profile: bool = False,
) -> dict:
    """Run one scenario and return its BENCH payload.

    With ``profile=True`` every point gets one *extra* run under
    :mod:`cProfile` and the payload carries a ``profiles`` list (one
    top-25-by-cumulative-time table per point). The timed measurements
    stay unprofiled — tracing slows points several-fold, so a profiled
    wall time would gate against the wrong number; the CLI writes the
    tables to a ``.profile.txt`` sibling of the BENCH json instead of
    committing them into the series.
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise InvalidParameterError(
            f"unknown bench scenario {name!r}; "
            f"available: {', '.join(sorted(SCENARIOS))}"
        )
    series = []
    profiles: list[dict] = []
    for point in scenario.points(grid):
        row = scenario.run_point(point)
        # Millisecond-scale points are one scheduler stall away from a
        # spurious 2x "regression": re-measure fast points and keep the
        # best run (the minimum is the least-noise estimator for wall
        # time). Slow points stay single-shot — their signal dwarfs the
        # noise and repeats would be expensive.
        repeats = 0
        while row["wall_time"] < 0.25 and repeats < 2:
            candidate = scenario.run_point(point)
            repeats += 1
            if candidate["wall_time"] < row["wall_time"]:
                row = candidate
        series.append(row)
        ident = " ".join(
            f"{k}={row[k]}" for k in row if k not in _MEASURE_KEYS
        )
        if progress is not None:
            progress(f"[{name}] {ident}: {row['wall_time']:.4f}s")
        if profile:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            scenario.run_point(point)
            profiler.disable()
            buffer = io.StringIO()
            stats = pstats.Stats(profiler, stream=buffer)
            stats.sort_stats("cumulative").print_stats(25)
            profiles.append({"point": ident, "table": buffer.getvalue()})
            if progress is not None:
                progress(f"[{name}] {ident}: profiled")
    payload = {
        "schema": 1,
        "kind": "bench-series",
        "scenario": name,
        "grid": grid,
        "environment": environment_stamp(),
        "series": series,
    }
    if profile:
        payload["profiles"] = profiles
    return payload


def write_result(
    payload: dict, out_dir: str, *, name: str | None = None
) -> str:
    """Persist a BENCH payload as ``<out_dir>/BENCH_<name>.json``."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"BENCH_{name or payload['scenario']}.json"
    )
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_result(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("kind") != "bench-series":
        raise InvalidParameterError(
            f"{path} is not a BENCH series (kind={payload.get('kind')!r})"
        )
    return payload


def _identity(row: Mapping[str, Any]) -> tuple:
    return tuple(
        sorted((k, v) for k, v in row.items() if k not in _MEASURE_KEYS)
    )


#: Relative drift a point's ``cost`` may show against its baseline:
#: the algorithms are deterministic, so anything beyond float noise is
#: a result change, not a timing one.
_COST_RTOL = 1e-9


def compare_to_baseline(
    current: dict, baseline: dict, *, factor: float = 2.0
) -> list[str]:
    """Regression report: current points slower than ``factor`` x
    baseline, whose ``cost`` moved by more than ``_COST_RTOL``
    relative, or that match no baseline row at all.

    Points are matched by identity keys. A current point without a
    baseline row is reported: a dropped or renamed identity axis would
    otherwise take its whole scenario out of the gate. Baseline-only
    rows are ignored, since every smoke grid is a subset of its full
    grid. Wall times are rescaled by the environments' calibration
    ratio before the factor test. The cost test applies to matched
    points that carry a ``cost`` on both sides.
    """
    if factor <= 1.0:
        raise InvalidParameterError(f"factor must be > 1, got {factor}")
    cal_current = float(
        current.get("environment", {}).get("calibration_seconds") or 0.0
    )
    cal_baseline = float(
        baseline.get("environment", {}).get("calibration_seconds") or 0.0
    )
    scale = (
        cal_current / cal_baseline
        if cal_current > 0.0 and cal_baseline > 0.0
        else 1.0
    )
    by_identity = {
        _identity(row): row for row in baseline.get("series", [])
    }
    regressions: list[str] = []
    for row in current.get("series", []):
        ident = " ".join(
            f"{k}={row[k]}" for k in row if k not in _MEASURE_KEYS
        )
        base = by_identity.get(_identity(row))
        if base is None:
            regressions.append(
                f"{current.get('scenario', '?')} {ident}: no baseline row "
                "with these identity keys"
            )
            continue
        budget = float(base["wall_time"]) * factor * scale
        measured = float(row["wall_time"])
        if measured > budget:
            regressions.append(
                f"{current.get('scenario', '?')} {ident}: "
                f"{measured:.4f}s > {factor:g}x baseline "
                f"{float(base['wall_time']):.4f}s "
                f"(machine-scaled budget {budget:.4f}s)"
            )
        if "cost" in row and "cost" in base:
            cost, base_cost = float(row["cost"]), float(base["cost"])
            if not abs(cost - base_cost) <= _COST_RTOL * abs(base_cost):
                regressions.append(
                    f"{current.get('scenario', '?')} {ident}: "
                    f"cost {cost!r} differs from baseline {base_cost!r} "
                    f"by more than {_COST_RTOL:g} relative"
                )
    return regressions

