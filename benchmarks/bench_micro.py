"""Micro-benchmarks of the library's hot paths.

Unlike the experiment benches (rounds=1 sweeps), these use
pytest-benchmark's normal calibration to track the performance of the
primitives that dominate PD's runtime: the dedication scan, the
water-level inverse, a full PD arrival, and the dual certificate.
Regressions here directly slow every experiment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chen.interval_power import SortedLoads, interval_energy, max_load_at_speed
from repro.chen.partition import partition_loads
from repro.core.pd import run_pd
from repro.analysis import dual_certificate
from repro.model.power import PolynomialPower
from repro.workloads import poisson_instance

POWER = PolynomialPower(3.0)
RNG = np.random.default_rng(0)
LOADS_64 = RNG.exponential(1.0, size=64)


@pytest.mark.benchmark(group="micro")
def test_perf_partition_scan(benchmark):
    result = benchmark(partition_loads, LOADS_64, 8)
    assert result.m == 8


@pytest.mark.benchmark(group="micro")
def test_perf_interval_energy(benchmark):
    energy = benchmark(interval_energy, LOADS_64, 8, 1.0, POWER)
    assert energy > 0


@pytest.mark.benchmark(group="micro")
def test_perf_water_level_inverse(benchmark):
    z = benchmark(max_load_at_speed, LOADS_64, 2.0, 8, 1.0)
    assert z >= 0.0


@pytest.mark.benchmark(group="micro")
def test_perf_sorted_loads_query(benchmark):
    cache = SortedLoads(LOADS_64, 8, 1.0)

    def queries():
        total = 0.0
        for s in (0.5, 1.0, 2.0, 4.0, 8.0):
            total += cache.max_load_at_speed(s)
        return total

    assert benchmark(queries) >= 0.0


@pytest.mark.benchmark(group="micro")
def test_perf_pd_full_run_50_jobs(benchmark):
    inst = poisson_instance(50, m=4, alpha=3.0, seed=1)

    result = benchmark.pedantic(run_pd, args=(inst,), rounds=3, iterations=1)
    assert result.cost > 0


@pytest.mark.benchmark(group="micro")
def test_perf_dual_certificate(benchmark):
    result = run_pd(poisson_instance(50, m=4, alpha=3.0, seed=2))
    cert = benchmark(dual_certificate, result)
    assert cert.holds


# ---------------------------------------------------------------------------
# Extension-layer primitives
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="micro")
def test_perf_speedset_bracket(benchmark):
    from repro.discrete import SpeedSet

    menu = SpeedSet.geometric(0.05, 8.0, 16)
    result = benchmark(menu.bracket, 1.37)
    assert result.lo < 1.37 < result.hi


@pytest.mark.benchmark(group="micro")
def test_perf_envelope_power_array(benchmark):
    from repro.discrete import DiscreteEnvelopePower, SpeedSet

    env = DiscreteEnvelopePower(SpeedSet.geometric(0.05, 8.0, 16), POWER)
    speeds = RNG.uniform(0.0, 8.0, size=512)
    out = benchmark(env.power_array, speeds)
    assert out.shape == speeds.shape


@pytest.mark.benchmark(group="micro")
def test_perf_sumpower_derivative_inverse(benchmark):
    from repro.general import SumPower

    p = SumPower([1.0, 0.5], [3.0, 1.0])
    speed = benchmark(p.derivative_inverse, 12.5)
    assert speed == pytest.approx(2.0, rel=1e-8)


@pytest.mark.benchmark(group="micro")
def test_perf_flow_feasibility_oracle(benchmark):
    from repro.offline.flow import check_feasible_at_speed

    inst = poisson_instance(24, m=4, alpha=3.0, seed=0)
    out = benchmark(check_feasible_at_speed, inst, 10.0)
    assert out.feasible


@pytest.mark.benchmark(group="micro")
def test_perf_preemption_stats(benchmark):
    from repro.analysis import preemption_stats

    inst = poisson_instance(24, m=4, alpha=3.0, seed=1)
    schedule = run_pd(inst).schedule
    stats = benchmark(preemption_stats, schedule)
    assert stats.segments > 0


# ---------------------------------------------------------------------------
# Cache-fabric backends: per-backend get/put latency
# ---------------------------------------------------------------------------
def test_cache_backend_latency(tmp_path):
    """Record get/put latency per cache backend to benchmarks/results.

    Not a pytest-benchmark case: the interesting output is the
    *comparison table* (dir vs sqlite vs memory vs tiered vs http),
    written as ``micro_cache_latency.{txt,json}`` so the fabric's
    overhead trajectory is trackable across commits. The http backend
    runs against a live in-process ``CacheServer`` — real sockets, so
    the number includes the round trip the tiered stack exists to
    amortize.
    """
    import time as _time

    from helpers import emit_table

    from repro.engine import (
        DirectoryCache,
        HttpCache,
        MemoryCache,
        SqliteCache,
        TieredCache,
    )
    from repro.io.server import CacheServer

    payload = {
        "v": 1,
        "wall_time": 0.01,
        # schedule-sized filler so payload parsing shows up honestly
        "blob": list(range(400)),
    }
    ops = 50
    server = CacheServer(MemoryCache()).start()
    try:
        backends = {
            "memory": MemoryCache(),
            "dir": DirectoryCache(tmp_path / "d"),
            "sqlite": SqliteCache(tmp_path / "s.db"),
            "http": HttpCache(server.url),
            "tiered": TieredCache(
                [MemoryCache(), DirectoryCache(tmp_path / "t")]
            ),
        }
        rows, data = [], []
        for name, cache in backends.items():
            start = _time.perf_counter()
            for i in range(ops):
                cache.put(f"{name}-{i}", payload)
            put_us = 1e6 * (_time.perf_counter() - start) / ops
            start = _time.perf_counter()
            for i in range(ops):
                got = cache.get(f"{name}-{i}")
                assert got is not None and got["v"] == 1
            get_us = 1e6 * (_time.perf_counter() - start) / ops
            rows.append(f"{name:<8} {put_us:>12.1f} {get_us:>12.1f}")
            data.append(
                {"backend": name, "put_us": put_us, "get_us": get_us}
            )
            cache.close()
        emit_table(
            "micro_cache_latency",
            f"{'backend':<8} {'put (us)':>12} {'get (us)':>12}",
            rows,
            data=data,
        )
        # sanity, not a perf assertion: every backend round-trips
        assert {row["backend"] for row in data} == set(backends)
    finally:
        server.stop()
