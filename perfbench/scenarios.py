"""The four benchmark workloads: set-up, one timed pass, output checks.

Every workload drives the program through the calls its users make —
``run_experiment`` over a ``BatchRunner``, ``PDScheduler.arrive_many``,
``BatchRunner.run_stolen`` against a ``CacheServer`` — and passes none
of the execution options the roadmap plans to delete (``batch=``,
``batch_mode``, ``RunRequest.batch``, ``BatchRunner(transport=)``,
``HttpCache(keep_alive=, compress=)``). PD's epoch engine is asked for
only while ``PDScheduler`` still takes a ``batch`` argument.

All inputs derive from the workload seed; the program sees only the
generated instances.
"""

from __future__ import annotations

import inspect
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import repro.engine.experiment as experiment
from repro import BatchRunner, ExperimentSpec, PDScheduler, run_experiment
from repro.engine.cache import DirectoryCache
from repro.engine.remote import HttpCache, HttpClaimTable
from repro.io.server import CacheServer
from repro.model.job_arrays import JobArrays
from repro.workloads import slotted_instance

from measure import Tally, Yardstick

#: The benchmark's default workload seed; at this seed ``pd-stream`` is
#: the committed ``pd-1m`` point (slotted, seed 0).
DEFAULT_SEED = 0

# The paper's PD-vs-CLL head-to-head, in the shape of bench_e3: three
# workload families x alpha x m, PD and CLL, CLL skipped where m > 1.
SWEEP_WORKLOADS = ("poisson", "heavy-tail", "tight")
SWEEP_GRID = {"alpha": [2.0, 3.0], "m": [1, 4]}
SWEEP_ALGORITHMS = ("pd", "cll")
SWEEP_N = 200
CELLS_PER_SEED = 18
COLD_SEEDS_PER_PASS = 2
POOL_WORKERS = 2  # one per core of the 2-core reference box

# The committed pd-1m tier: 1M slotted jobs on m=4, alpha=3.
STREAM_N = 1_000_000
STREAM_SLOTS = 1000
STREAM_M = 4
STREAM_ALPHA = 3.0
STREAM_CHUNK = 8192
STREAM_COST_SEED0 = 4387338.738799715  # BENCH_pd-1m.json, n=1e6
# Loose enough for the planned exact water-fill (costs within 1e-9).
STREAM_COST_RTOL = 1e-7

# The CI steal step's client settings.
LEASE_TTL = 60.0
CLAIM_BATCH = 4


def generator_seed(seed: int) -> int:
    """The workload seed as a non-negative generator seed."""
    return seed % 2**31


def sweep_spec(seeds) -> ExperimentSpec:
    return ExperimentSpec(
        name="perfbench",
        workloads=list(SWEEP_WORKLOADS),
        grid=SWEEP_GRID,
        algorithms=SWEEP_ALGORITHMS,
        skip_incapable=True,
        n=SWEEP_N,
        seeds=tuple(seeds),
    )


@dataclass
class PassResult:
    """One timed pass: its wall time and the job results it delivered."""

    wall: float
    jobs: int
    #: ``wall_time`` of each freshly computed cell, in ms.
    eval_ms: list[float] = field(default_factory=list)
    #: PD certified ratio over its alpha^alpha bound, per PD record.
    pd_ratio_over_bound: list[float] = field(default_factory=list)


def _report(tally: Tally, what: str, count: int) -> None:
    traceback.print_exc(file=sys.stderr)
    tally.fail(what, count)


def record_problem(record, reference=None) -> str | None:
    """Why a run record fails the output checks, or ``None``."""
    alpha = float(record.tag["params"]["alpha"])
    if record.algorithm == "pd" and not record.certified_ratio <= alpha**alpha * (
        1.0 + 1e-9
    ):
        return f"PD ratio {record.certified_ratio} above alpha^alpha"
    if record.algorithm == "cll" and not (
        math.isfinite(record.certified_ratio) and math.isfinite(record.dual_g)
    ):
        return f"CLL certificate not finite ({record.certified_ratio})"
    if not math.isclose(
        record.cost, record.energy + record.lost_value, rel_tol=1e-9, abs_tol=1e-9
    ):
        return f"cost {record.cost} != energy + lost value"
    if reference is not None:
        expected = reference.get(record.key)
        if expected is None or replace(record, cached=expected.cached) != expected:
            return f"record {record.key[:12]} differs from the cold record"
    return None


class Scenario:
    """One workload. ``setup`` returns its phases in seconds; each
    ``run_pass`` is one timed unit and tallies its own checks."""

    name = ""
    #: Passes are identical units that repeat until the time is up;
    #: a workload whose single pass is the whole job sets 1.
    max_passes: int | None = None
    #: Cells evaluate in this process, so traced passes install the
    #: inline hooks. Sweeps evaluate in pool workers (or not at all).
    inline = False
    #: The traced run adds one in-process (workers=1) pass, so layers
    #: that otherwise run inside pool workers get spans too.
    traced_serial = False
    #: What one operation is, and the workload's shape, for the table.
    op_name = "cells"
    shape = ""

    def __init__(self, work: Path, seed: int, tally: Tally,
                 ruler: Yardstick | None = None) -> None:
        self.work = work
        self.seed = seed
        self.base = generator_seed(seed) * 1000
        self.tally = tally
        self.ruler = ruler if ruler is not None else Yardstick()

    def clock(self):
        """Start timing a pass: the returned function reads the wall
        seconds since, less the time spent taking yardstick samples."""
        start, spent = time.perf_counter(), self.ruler.spent
        return lambda: time.perf_counter() - start - (self.ruler.spent - spent)

    def setup(self) -> dict[str, float]:
        return {}

    def run_pass(self, slot: int, rec=None, serial: bool = False) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- shared sweep checks --------------------------------------------------
    def check_sweep(self, records, expected: int, result: PassResult, *,
                    fresh: bool, reference=None) -> None:
        if len(records) != expected:
            self.tally.fail(f"{len(records)} records, expected {expected}", expected)
            return
        for record in records:
            problem = record_problem(record, reference)
            if problem is None and record.cached == fresh:
                problem = f"record {record.key[:12]} cached={record.cached}"
            if problem is not None:
                self.tally.fail(problem)
            if not record.cached and math.isfinite(record.wall_time):
                result.eval_ms.append(record.wall_time * 1e3)
            if record.algorithm == "pd":
                alpha = float(record.tag["params"]["alpha"])
                result.pd_ratio_over_bound.append(record.certified_ratio / alpha**alpha)

    def fill(self, phases: dict[str, float]):
        """Cold-fill a fresh directory cache with this workload's seed."""
        self.cache_dir = self.work / "warm-cache"
        self.spec = sweep_spec([self.base])
        elapsed = self.clock()
        runner = BatchRunner(workers=POOL_WORKERS, cache=DirectoryCache(self.cache_dir))
        cells = run_experiment(self.spec, runner, progress=self.ruler.sample)
        phases["fill"] = elapsed()
        records = [r for cell in cells for r in cell.records]
        self.tally.attempt(CELLS_PER_SEED)
        self.check_sweep(records, CELLS_PER_SEED, PassResult(0.0, 0), fresh=True)
        self.reference = {r.key: r for r in records}


def _jobs(records) -> int:
    return sum(len(r.schedule["finished"]) for r in records)


class SweepCold(Scenario):
    """PD vs CLL through the process pool into a fresh directory cache."""

    name = "sweep-cold"
    traced_serial = True
    shape = (
        f"closed loop, 1 client, {POOL_WORKERS} pool workers, fresh cache per "
        f"pass, {COLD_SEEDS_PER_PASS * CELLS_PER_SEED} cells of n={SWEEP_N} per pass"
    )

    def run_pass(self, slot, rec=None, serial=False):
        seeds = [self.base + COLD_SEEDS_PER_PASS * slot + i
                 for i in range(COLD_SEEDS_PER_PASS)]
        expected = CELLS_PER_SEED * len(seeds)
        self.tally.attempt(expected)
        cache_dir = self.work / f"cold-{slot}-{'serial' if serial else 'pool'}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        runner = BatchRunner(
            workers=1 if serial else POOL_WORKERS, cache=DirectoryCache(cache_dir)
        )
        spec = sweep_spec(seeds)
        elapsed = self.clock()
        try:
            cells = run_experiment(spec, runner, progress=self.ruler.sample)
        except Exception:
            _report(self.tally, f"cold pass {slot} raised", expected)
            return PassResult(elapsed(), 0)
        finally:
            wall = elapsed()
            shutil.rmtree(cache_dir, ignore_errors=True)
        records = [r for cell in cells for r in cell.records]
        result = PassResult(wall, _jobs(records))
        if rec is not None:
            rec.count("runner.cells_computed", runner.stats.computed)
        self.check_sweep(records, expected, result, fresh=True)
        return result


class SweepWarm(Scenario):
    """The same shape re-run against the filled cache: nothing computes."""

    name = "sweep-warm"
    shape = (
        f"closed loop, 1 client, warm directory cache, "
        f"{CELLS_PER_SEED} cells of n={SWEEP_N} per pass"
    )

    def setup(self):
        phases: dict[str, float] = {}
        self.fill(phases)
        self.cache = DirectoryCache(self.cache_dir)
        return phases

    def run_pass(self, slot, rec=None, serial=False):
        self.tally.attempt(CELLS_PER_SEED)
        runner = BatchRunner(workers=POOL_WORKERS, cache=self.cache)
        self.ruler.sample()
        elapsed = self.clock()
        try:
            cells = run_experiment(self.spec, runner)
        except Exception:
            _report(self.tally, f"warm pass {slot} raised", CELLS_PER_SEED)
            return PassResult(elapsed(), 0)
        wall = elapsed()
        records = [r for cell in cells for r in cell.records]
        result = PassResult(wall, _jobs(records))
        if rec is not None:
            rec.count("runner.cells_computed", runner.stats.computed)
        if runner.stats.computed:
            self.tally.fail(f"warm pass computed {runner.stats.computed} cells")
        self.check_sweep(records, CELLS_PER_SEED, result, fresh=False,
                         reference=self.reference)
        return result


class StealWarm(Scenario):
    """The warm passes drained through the HTTP cache fabric by one
    serial stealing worker, as the CI steal step runs it."""

    name = "steal-warm"
    shape = (
        f"closed loop, 1 serial stealing worker and an in-process cache server "
        f"on one core, claim batch {CLAIM_BATCH}, {CELLS_PER_SEED} cells of "
        f"n={SWEEP_N} per pass"
    )

    def setup(self):
        phases: dict[str, float] = {}
        self.fill(phases)
        # Client and server threads share one core from here on: each
        # request then hands off within the core instead of waking the
        # other one, whose latency the hypervisor decides. Threads the
        # server starts inherit the mask; close() restores it.
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        start = time.perf_counter()
        self.server = CacheServer(DirectoryCache(self.cache_dir)).start()
        phases["server"] = time.perf_counter() - start
        self.sessions = 0
        return phases

    def run_pass(self, slot, rec=None, serial=False):
        self.tally.attempt(CELLS_PER_SEED)
        url = self.server.url
        stats = getattr(self.server, "stats_counters", None)
        before = stats.snapshot() if rec is not None and stats is not None else None
        self.ruler.sample()
        elapsed = self.clock()
        try:
            requests = self.spec.requests()
            # A drained claim table stays drained, so every pass is a
            # fresh claim session (the CLI's --claim-session label).
            self.sessions += 1
            claims = HttpClaimTable(
                url,
                f"{self.spec.fingerprint(requests)}-{self.sessions}",
                len(requests),
                lease_ttl=LEASE_TTL,
            )
            cache = HttpCache(url)
            runner = BatchRunner(workers=1, cache=cache, claim_batch=CLAIM_BATCH)
            try:
                pairs = runner.run_stolen(requests, claims)
            finally:
                claims.close()
                cache.close()
            records = [record for _, record in pairs]
            experiment.aggregate_records(records)
        except Exception:
            _report(self.tally, f"steal pass {slot} raised", CELLS_PER_SEED)
            return PassResult(elapsed(), 0)
        wall = elapsed()
        result = PassResult(wall, _jobs(records))
        if before is not None:
            after = stats.snapshot()
            for key in after:
                rec.count(f"server.{key}", after[key] - before.get(key, 0))
            rec.count("runner.cells_computed", runner.stats.computed)
        if runner.stats.computed:
            self.tally.fail(f"steal pass computed {runner.stats.computed} cells")
        self.check_sweep(records, CELLS_PER_SEED, result, fresh=False,
                         reference=self.reference)
        return result

    def close(self):
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None
        cpus = getattr(self, "cpus", None)
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
            self.cpus = None


class PdStream(Scenario):
    """The 1M-job slotted stream through PD in fixed chunks, engine-free."""

    name = "pd-stream"
    max_passes = 1
    inline = True
    op_name = "chunks"
    shape = (
        f"closed loop, 1 process, {STREAM_N} slotted jobs, m={STREAM_M}, "
        f"chunks of {STREAM_CHUNK}"
    )

    def setup(self):
        elapsed = self.clock()
        instance = slotted_instance(
            STREAM_N,
            slots=STREAM_SLOTS,
            m=STREAM_M,
            alpha=STREAM_ALPHA,
            seed=generator_seed(self.seed),
        )
        arrays = instance.sorted_by_release().arrays
        self.chunks = [
            JobArrays(
                releases=arrays.releases[lo : lo + STREAM_CHUNK],
                deadlines=arrays.deadlines[lo : lo + STREAM_CHUNK],
                workloads=arrays.workloads[lo : lo + STREAM_CHUNK],
                values=arrays.values[lo : lo + STREAM_CHUNK],
            )
            for lo in range(0, arrays.n, STREAM_CHUNK)
        ]
        self.ruler.sample()
        return {"instance": elapsed()}

    def run_pass(self, slot, rec=None, serial=False):
        chunks = self.chunks
        self.tally.attempt(len(chunks))
        options = (
            {"batch": "epoch"}
            if "batch" in inspect.signature(PDScheduler).parameters
            else {}
        )
        done = jobs = 0
        elapsed = self.clock()
        try:
            sched = PDScheduler(m=STREAM_M, alpha=STREAM_ALPHA, **options)
            for index, chunk in enumerate(chunks):
                self.ruler.sample()
                if rec is None:
                    sched.arrive_many(chunk)
                else:
                    rec.span("epochs.arrive", sched.arrive_many, chunk, cell=index)
                    rec.count("epochs.arrivals", chunk.n)
                done += 1
                jobs += chunk.n
            if rec is None:
                cost = sched.streaming_cost()
            else:
                cost = rec.span("energy.streaming_cost", sched.streaming_cost)
        except Exception:
            _report(self.tally, f"stream failed after {done} chunks", len(chunks) - done)
            return PassResult(elapsed(), jobs)
        wall = elapsed()
        energy = sched.streaming_energy()
        lost = sched.streaming_lost_value()
        if not math.isclose(cost, energy + lost, rel_tol=1e-12):
            self.tally.fail(f"cost {cost} != energy {energy} + lost {lost}", len(chunks))
        elif self.seed == DEFAULT_SEED and not math.isclose(
            cost, STREAM_COST_SEED0, rel_tol=STREAM_COST_RTOL
        ):
            self.tally.fail(
                f"1M cost {cost!r} != committed pd-1m cost {STREAM_COST_SEED0!r}",
                len(chunks),
            )
        return PassResult(wall, jobs)


SCENARIOS = {cls.name: cls for cls in (SweepCold, SweepWarm, PdStream, StealWarm)}
