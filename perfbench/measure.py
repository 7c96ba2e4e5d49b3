"""Metric declarations, the percentile rule, failure accounting and the
machine-speed yardstick.

Nothing here imports the program under test. ``run.py`` and the tests
share it, and the tests check that the names declared here are exactly
the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import math
import re
import statistics
import time
from dataclasses import dataclass, field

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: End-to-end metrics, reported by every untraced run: (name, unit).
#: ``fail_frac`` is printed in the table beside them but is not one of
#: them: it is 0 on a healthy run, and a metric whose median is 0 has no
#: relative spread. The JSON line carries it as ``failed``/``attempted``.
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics, reported by every traced run: (name, unit).
#: Times and counts are per pass of the traced run (one pass = one
#: ``run_experiment`` call, one steal drain, or one 1M-job stream); a
#: layer a workload never reaches reads 0.
PER_LAYER = (
    ("experiment.requests_s", "s/pass"),
    ("workloads.instances", "count/pass"),
    ("experiment.aggregate_s", "s/pass"),
    ("experiment.fingerprint_s", "s/pass"),
    ("runner.request_key_s", "s/pass"),
    ("runner.request_key_calls", "count/pass"),
    ("runner.eval_p50_ms", "ms"),
    ("runner.eval_p90_ms", "ms"),
    ("runner.cells_computed", "count/pass"),
    ("runner.pool_wait_s", "s/pass"),
    ("cache.get_s", "s/pass"),
    ("cache.get_calls", "count/pass"),
    ("cache.hit_ratio", "1"),
    ("cache.put_s", "s/pass"),
    ("cache.put_calls", "count/pass"),
    ("cache.put_bytes", "B/pass"),
    ("transport.decode_s", "s/pass"),
    ("transport.wire_bytes_per_cell", "B"),
    ("serialize.encode_s", "s/pass"),
    ("serialize.payload_bytes_per_cell", "B"),
    ("algo.pd_s", "s/pass"),
    ("algo.cll_s", "s/pass"),
    ("certificate.pd_s", "s/pass"),
    ("certificate.cll_s", "s/pass"),
    ("certificate.worst_ratio_over_bound", "1"),
    ("epochs.arrive_s", "s/pass"),
    ("epochs.chunk_p50_ms", "ms"),
    ("epochs.chunk_p90_ms", "ms"),
    ("epochs.screen_reject_frac", "1"),
    ("waterfill.calls", "count/pass"),
    ("waterfill.s", "s/pass"),
    ("kernels.window_builds", "count/pass"),
    ("kernels.total_at_speed_calls", "count/pass"),
    ("kernels.total_at_speed_per_fill", "1"),
    ("grid.refinements", "count/pass"),
    ("energy.streaming_cost_s", "s/pass"),
    ("remote.claim_calls", "count/pass"),
    ("remote.claim_s", "s/pass"),
    ("remote.done_calls", "count/pass"),
    ("remote.done_s", "s/pass"),
    ("remote.get_many_calls", "count/pass"),
    ("remote.get_many_s", "s/pass"),
    ("server.requests", "count/pass"),
    ("server.batch_requests", "count/pass"),
    ("server.deflate_bodies_out", "count/pass"),
    ("server.record_hit_ratio", "1"),
    ("setup.import_s", "s"),
    ("setup.fill_s", "s"),
    ("setup.instance_s", "s"),
    ("trace.overhead_frac", "1"),
)

#: Percentiles the tail rule may pick from, ascending.
TAIL_LADDER = (90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def check_names(metrics) -> None:
    """Raise ``ValueError`` unless every (name, unit) pair is well formed
    and every name is used once."""
    seen: set[str] = set()
    for name, unit in metrics:
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if not UNIT_RE.match(unit):
            raise ValueError(f"bad unit {unit!r} for metric {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)


def _rank(count: int, pct: float) -> int:
    # Rounded first, so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """Samples ranked after the nearest-rank ``pct`` percentile."""
    return count - _rank(count, pct)


def tail_percentile(samples) -> tuple[float, float] | None:
    """``(pct, value)`` of the highest ladder percentile that has at
    least :data:`TAIL_MIN_BEYOND` samples beyond it, or ``None`` when
    even the lowest rung lacks them."""
    count = len(samples)
    best = None
    for pct in TAIL_LADDER:
        if beyond(count, pct) >= TAIL_MIN_BEYOND:
            best = (pct, percentile(samples, pct))
    return best


def reportable(samples, pct: float) -> float | None:
    """The ``pct`` percentile if the tail rule admits it, else ``None``."""
    if pct <= 50.0:
        return percentile(samples, pct) if samples else None
    if beyond(len(samples), pct) < TAIL_MIN_BEYOND:
        return None
    return percentile(samples, pct)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    @property
    def fail_frac(self) -> float:
        if self.attempted < 1:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted


# ----------------------------------------------------------------------
# Machine-speed yardstick
# ----------------------------------------------------------------------
#: CPU seconds :func:`yardstick_kernel` takes between workload units on
#: the 2-core reference box in its fast phase. Only ratios to it matter.
YARDSTICK_NOMINAL_S = 0.001

_YARDSTICK_DATA = [((i * 7919) % 1009) / 1009.0 for i in range(4096)]


def yardstick_kernel() -> float:
    """A fixed slice of interpreter work: float arithmetic, dict stores
    and list sorts, as the workloads' Python loops do."""
    acc = 0.0
    table = {}
    for i, v in enumerate(_YARDSTICK_DATA):
        acc += v * v
        table[i & 511] = v
    for _ in range(3):
        acc += sum(sorted(_YARDSTICK_DATA)[:64])
    return acc + len(table)


class Yardstick:
    """How much slower than nominal the machine runs, sampled in-run.

    The host the benchmark runs on alternates between fast and slow
    phases of seconds to minutes; identical passes differ by up to 40%.
    A sample times the fixed :func:`yardstick_kernel` in thread CPU
    time, which excludes waiting for a core or for the GIL but includes
    the host's slowdown of the core itself. The kernel touches nothing
    of the program under test, so a change to the program moves the
    workload's time but not the yardstick's. Workloads sample at their
    natural unit boundaries (each chunk, each record, each pass), so the
    mean sample weights the slowdown by work done. Time spent sampling
    is tracked in :attr:`spent` so passes can leave it out of their wall.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_ignored) -> None:
        wall = time.perf_counter()
        # The untimed first call pulls the kernel's data back into the
        # caches the workload just evicted, so the timed second call
        # measures the core, not the workload's memory footprint.
        yardstick_kernel()
        start = time.thread_time()
        yardstick_kernel()
        self.samples.append(time.thread_time() - start)
        self.spent += time.perf_counter() - wall

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int = 0) -> float:
        """Mean sample since ``since`` over the nominal kernel time."""
        window = self.samples[since:]
        if not window:
            raise ValueError("no yardstick sample in this window")
        return statistics.fmean(window) / YARDSTICK_NOMINAL_S
