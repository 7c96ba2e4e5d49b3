"""Bit-parity suite for the incremental kernel layer (``repro.perf``).

The kernels promise that speed is an execution strategy, never a result
change: the incremental PD scheduler, the batched window evaluator, the
vectorized YDS scan, the inlined energy loop, and the vectorized
certificate helpers must produce **bitwise identical** outputs to the
historical implementations — same schedules, same costs, same
certificates, and therefore same cache keys (the engine's record
payloads hash identically, so every pre-kernel cache entry stays
valid). Each test here runs old and new side by side and compares with
exact equality, never tolerances.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.certificates import dual_certificate
from repro.chen.interval_power import SortedLoads
from repro.classical.execution import schedule_from_segments
from repro.classical.oa import _PlanJob, oa_segments, run_oa
from repro.classical.yds import yds
from repro.core.pd import PDScheduler, run_pd
from repro.core.waterfill import waterfill_job
from repro.engine.runner import RECORD_VERSION, request_key
from repro.errors import InvalidParameterError
from repro.io.serialize import schedule_to_dict, stable_hash
from repro.model.intervals import Grid
from repro.model.job import Instance
from repro.perf.kernels import (
    _SETTLE_MARGIN,
    IntervalLoads,
    WindowKernel,
    _opening_level,
    _opening_speed,
)
from repro.perf.epochs import arrive_epochs
from repro.perf.reference import (
    _refine,
    oa_segments_reference,
    run_pd_reference,
    yds_reference,
)
from repro.types import left_sum
from repro.workloads import (
    heavy_tail_instance,
    poisson_instance,
    uniform_instance,
)

#: (family, n, m) — includes multiprocessor and heavy-tail shapes.
FAMILIES = [
    (poisson_instance, 40, 1),
    (poisson_instance, 40, 4),
    (heavy_tail_instance, 32, 2),
    (uniform_instance, 24, 3),
]


def degenerate_single_interval(n: int = 12, m: int = 2) -> Instance:
    """Every job shares one window: the grid never refines past one
    atomic interval — the degenerate shape the split-copy path never
    sees and the insertion path sees constantly."""
    rng = np.random.default_rng(5)
    jobs = [
        (0.0, 4.0, float(w), float(v))
        for w, v in zip(
            rng.exponential(1.0, n) + 1e-3, rng.uniform(0.05, 8.0, n)
        )
    ]
    return Instance.from_tuples(jobs, m=m, alpha=3.0)


def assert_pd_parity(instance: Instance) -> None:
    new = run_pd(instance)
    old = run_pd_reference(instance)
    assert np.array_equal(new.schedule.loads, old.schedule.loads)
    assert np.array_equal(new.planned_loads, old.planned_loads)
    assert np.array_equal(new.lambdas, old.lambdas)
    assert np.array_equal(new.schedule.finished, old.schedule.finished)
    assert new.decisions == old.decisions
    assert new.schedule.energy == old.schedule.energy
    assert new.cost == old.cost
    cert_new, cert_old = dual_certificate(new), dual_certificate(old)
    assert cert_new.g == cert_old.g
    assert cert_new.ratio == cert_old.ratio
    assert cert_new.contributors == cert_old.contributors
    assert np.array_equal(cert_new.s_hat, cert_old.s_hat)


class TestPDParity:
    @pytest.mark.parametrize("family,n,m", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_families_bitwise_identical(self, family, n, m, seed):
        assert_pd_parity(family(n, m=m, alpha=3.0, seed=seed))

    def test_degenerate_single_interval_grid(self):
        assert_pd_parity(degenerate_single_interval())

    def test_classical_infinite_values(self):
        base = poisson_instance(24, m=1, alpha=3.0, seed=2)
        inst = Instance.classical(
            [(j.release, j.deadline, j.workload) for j in base.jobs],
            m=1,
            alpha=3.0,
        )
        assert_pd_parity(inst)

    def test_sweep_cells_share_cache_identity(self):
        """The engine contract behind 'same cache keys': the record
        version is pinned, request keys depend only on inputs, and
        the serialized schedule payload — the record body that gets
        content-hashed — is byte-identical old vs new."""
        # 5 since records pack their columns as little-endian bytes (4
        # dropped the embedded instance and moved keys to the instance
        # digest, 3 was the exact water-fill's bump); kernels alone must
        # never bump it (a bump cold-starts every cache).
        assert RECORD_VERSION == 5
        inst = poisson_instance(30, m=2, alpha=3.0, seed=1)
        assert request_key("pd", inst) == request_key("pd", inst)
        new = run_pd(inst)
        old = run_pd_reference(inst)
        assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
            schedule_to_dict(old.schedule)
        )


#: Offsets around a grid boundary: on it, inside the grid's 1e-12 snap
#: tolerance, on its edge, and just beyond it.
_BOUNDARY_OFFSETS = [0.0, 3e-13, -3e-13, 1e-12, -1e-12, 2.5e-12, -2.5e-12]


@st.composite
def boundary_instances(draw):
    """Small instances aimed at the kernels' fragile replications: window
    endpoints within +-tolerance of grid boundaries (the snap test that
    decides whether an arrival refines the grid), m > n, and grids of a
    single atomic interval."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=9))
    points = [1.0 + 0.5 * i for i in range(draw(st.integers(2, 6)))]
    single = draw(st.booleans())
    offset = st.sampled_from(_BOUNDARY_OFFSETS)
    jobs = []
    for _ in range(n):
        if single:
            lo, hi = 0, len(points) - 1
        else:
            lo = draw(st.integers(0, len(points) - 2))
            hi = draw(st.integers(lo + 1, len(points) - 1))
        jobs.append(
            (
                points[lo] + draw(offset),
                points[hi] + draw(offset),
                draw(st.floats(min_value=0.05, max_value=5.0)),
                draw(st.floats(min_value=1e-3, max_value=50.0)),
            )
        )
    return Instance.from_tuples(jobs, m=m, alpha=draw(st.sampled_from([2.0, 3.0])))


#: Grid starts ``lo`` where ``lo - (lo - 1e-12)`` rounds above 1e-12: a
#: release 1e-12 before ``lo`` passes the release-order tolerance yet is
#: past the snap tolerance of the grid's left end, so it extends the span.
_LEFT_EXTENDABLE = [0.1, 1.5, 2.0, 3.0, 7.0]


@st.composite
def span_extending_arrivals(draw):
    """Arrival sequences, fed in the drawn order, in which one later job
    extends the grid on both sides at once: its release sits 1e-12 before
    the grid's left end (allowed by the release-order tolerance) and its
    deadline past the right end. Other arrivals split the span or
    extend it on the right only."""
    lo = draw(st.sampled_from(_LEFT_EXTENDABLE))
    work = st.floats(min_value=0.05, max_value=5.0)
    value = st.floats(min_value=1e-3, max_value=50.0)
    hi = lo + draw(st.floats(min_value=0.5, max_value=3.0))
    jobs = [(lo, hi, draw(work), draw(value))]
    before = draw(st.integers(0, 3))
    for i in range(before + 1 + draw(st.integers(0, 3))):
        if i == before:
            release = lo - 1e-12
            hi += draw(st.floats(min_value=0.01, max_value=2.0))
            deadline = hi
        else:
            release = lo
            deadline = draw(
                st.sampled_from([hi, hi + 1e-12, hi + 0.75, lo + 0.25])
            )
            hi = max(hi, deadline)
        jobs.append((release, deadline, draw(work), draw(value)))
    m = draw(st.integers(min_value=1, max_value=5))
    return m, draw(st.sampled_from([2.0, 3.0])), jobs


class TestPDParityProperty:
    """``IntervalLoads``/``WindowKernel`` PD, per arrival and in epochs,
    against ``run_pd_reference`` on generated instances, bit for bit."""

    @given(instance=boundary_instances())
    @settings(max_examples=40, deadline=None)
    def test_generated_instances_bitwise_identical(self, instance):
        assert_pd_parity(instance)
        ordered = instance.sorted_by_release()
        sched = PDScheduler(m=ordered.m, alpha=ordered.alpha)
        arrive_epochs(sched, ordered.arrays, epoch_size=3)
        epoch = sched.finish()
        old = run_pd_reference(instance)
        assert epoch.decisions == old.decisions
        assert np.array_equal(epoch.schedule.loads, old.schedule.loads)
        assert np.array_equal(epoch.planned_loads, old.planned_loads)

    @given(case=span_extending_arrivals())
    @settings(max_examples=30, deadline=None)
    def test_span_extended_on_both_sides_at_once(self, case):
        from repro.model.job import Job
        from repro.model.job_arrays import JobArrays
        from repro.perf.reference import PDSchedulerReference

        m, alpha, rows = case
        new = PDScheduler(m=m, alpha=alpha)
        old = PDSchedulerReference(m=m, alpha=alpha)
        spans = []
        for row in rows:
            job = Job(*row)
            assert new.arrive(job) == old.arrive(job)
            spans.append(new._grid.span)
            assert np.array_equal(new._grid.boundaries, old._grid.boundaries)
            assert np.array_equal(new._grid.lengths, old._grid.lengths)
        # The strategy's promise: some arrival moved both span ends.
        assert any(
            a[0] > b[0] and a[1] < b[1] for a, b in zip(spans, spans[1:])
        )
        fresh, ref = new.finish(), old.finish()
        assert fresh.decisions == ref.decisions
        assert np.array_equal(fresh.schedule.loads, ref.schedule.loads)
        assert np.array_equal(fresh.planned_loads, ref.planned_loads)
        assert fresh.schedule.energy == ref.schedule.energy

        epoch = PDScheduler(m=m, alpha=alpha)
        arrive_epochs(epoch, JobArrays(*map(list, zip(*rows))), epoch_size=2)
        result = epoch.finish()
        assert result.decisions == ref.decisions
        assert np.array_equal(result.schedule.loads, ref.schedule.loads)
        assert np.array_equal(result.planned_loads, ref.planned_loads)


#: A value no job here is rejected at, and one every job is.
_ACCEPT, _REJECT = 1e6, 1e-9


@st.composite
def refine_streams(draw):
    """Release-ordered arrivals that take PD's grid refinement through
    every branch, in this order: ``m + 1`` accepted jobs on one window
    (a store holding at least m loads), a release 1e-12 left of the span,
    two fresh points inside that full window, a rejected job wholly right
    of the span (two points beyond it, and an empty store holding x̌), two
    points inside that empty window, and a deadline right of the span;
    then random arrivals of the same kinds."""
    m = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from([2.0, 3.0]))
    lo = draw(st.sampled_from(_LEFT_EXTENDABLE))
    hi = lo + draw(st.floats(1.0, 3.0))
    work = st.floats(0.05, 3.0)
    value = st.sampled_from([_ACCEPT, _REJECT, 0.5, 5.0])
    inner = st.tuples(st.floats(0.1, 0.45), st.floats(0.55, 0.9))
    rows = [(lo, hi, draw(work), _ACCEPT) for _ in range(m + 1)]
    rows.append((lo - 1e-12, hi, draw(work), draw(value)))
    bounds = [lo - 1e-12, lo, hi]
    t = lo

    def inside(a, b, job_value):
        nonlocal t
        a = max(a, t)
        u, v = draw(inner)
        rows.append((a + (b - a) * u, a + (b - a) * v, draw(work), job_value))
        bounds.extend(rows[-1][:2])
        bounds.sort()
        t = rows[-1][0]

    def beyond(job_value):
        nonlocal t
        r = bounds[-1] + draw(st.floats(0.1, 1.0))
        rows.append((r, r + draw(st.floats(0.5, 2.0)), draw(work), job_value))
        bounds.extend(rows[-1][:2])
        t = r

    def right(job_value):
        d = bounds[-1] + draw(st.floats(0.1, 1.0))
        rows.append((t, d, draw(work), job_value))
        bounds.append(d)

    inside(lo, hi, draw(value))
    beyond(_REJECT)
    inside(bounds[-2], bounds[-1], draw(value))
    right(draw(value))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["inside", "beyond", "right", "on-grid"]))
        # Only intervals wide enough that fresh points stay fresh.
        open_ = [(a, b) for a, b in zip(bounds, bounds[1:]) if b - max(a, t) > 1e-3]
        if kind == "inside" and open_:
            inside(*draw(st.sampled_from(open_)), draw(value))
        elif kind == "right":
            right(draw(value))
        elif kind == "on-grid" and bounds[-1] > t:
            ends = [b for b in bounds if b > t]
            rows.append((t, draw(st.sampled_from(ends)), draw(work), draw(value)))
        else:
            beyond(draw(value))
    return m, alpha, rows


def _refine_events(before: list[float], after: list[float]) -> set[str]:
    """Which refinement branches turned boundary list ``before`` into
    ``after``."""
    events = set()
    per_interval: dict[int, int] = {}
    for p in sorted(set(after) - set(before)):
        if p < before[0]:
            events.add("left")
        elif p > before[-1]:
            events.add("right")
        else:
            k = bisect_left(before, p) - 1
            per_interval[k] = per_interval.get(k, 0) + 1
    if any(count >= 2 for count in per_interval.values()):
        events.add("two in one interval")
    return events


class TestRefineInPlace:
    """PD's in-place grid refinement against the reference's dense
    remap, on streams that reach every branch of it."""

    @given(case=refine_streams(), epoch_size=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_every_branch_bitwise_identical(self, case, epoch_size):
        from unittest import mock

        from repro.model.job import Job
        from repro.model.job_arrays import JobArrays
        from repro.perf.reference import PDSchedulerReference

        m, alpha, rows = case
        new = PDScheduler(m=m, alpha=alpha)
        old = PDSchedulerReference(m=m, alpha=alpha)
        events: set[str] = set()
        split = IntervalLoads.split

        def recording_split(store, fraction):
            events.add("split empty" if not store.loads else f"split {len(store)}")
            return split(store, fraction)

        with mock.patch.object(IntervalLoads, "split", recording_split):
            for row in rows:
                before = list(new._bounds)
                job = Job(*row)
                assert new.arrive(job) == old.arrive(job)
                if before:
                    events |= _refine_events(before, new._bounds)
                assert new._bounds == old._grid.boundaries.tolist()
                assert new._lengths == old._grid.lengths.tolist()
        assert {"left", "right", "two in one interval", "split empty"} <= events
        assert any(f"split {p}" in events for p in range(m, len(rows)))

        ref = old.finish()
        for sched in (new, PDScheduler(m=m, alpha=alpha)):
            if sched is not new:
                arrive_epochs(
                    sched, JobArrays(*map(list, zip(*rows))), epoch_size=epoch_size
                )
            result = sched.finish()
            assert result.decisions == ref.decisions
            assert result.schedule.loads.tobytes() == ref.schedule.loads.tobytes()
            assert result.planned_loads.tobytes() == ref.planned_loads.tobytes()
            assert result.schedule.energy == ref.schedule.energy

    @pytest.mark.parametrize("epochs", [False, True])
    @pytest.mark.parametrize(
        "points",
        [
            (2.25, math.nan),
            (math.nan, 2.25),
            (math.inf, math.inf),
            (-math.inf, -math.inf),
        ],
    )
    def test_refused_point_leaves_every_list_unchanged(self, points, epochs):
        from repro.model.job_arrays import JobArrays

        # The last arrival refines nothing, so the epoch layer fills it
        # in a block and starts keeping opening speeds.
        rows = [
            (1.0, 3.0, 1.0, _ACCEPT),
            (1.0, 2.0, 0.5, _ACCEPT),
            (1.5, 4.0, 1.0, _REJECT),
            (1.5, 3.0, 0.2, _ACCEPT),
        ]
        sched = PDScheduler(m=1, alpha=3.0)
        if epochs:
            arrive_epochs(sched, JobArrays(*map(list, zip(*rows))), epoch_size=2)
        else:
            for row in rows:
                sched._arrive_row(*row)

        def snapshot():
            return (
                list(sched._bounds),
                list(sched._lengths),
                [(s.loads[:], s.ids[:], s.suffix[:]) for s in sched._states],
                [entries[:] for entries in sched._planned],
                None if sched._open is None else list(sched._open),
            )

        before = snapshot()
        stores = list(sched._states)
        assert (sched._open is not None) == epochs
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            sched._refine_grid(*points)
        assert snapshot() == before
        assert all(a is b for a, b in zip(sched._states, stores))


def _store_load_at_speed(
    store: IntervalLoads, speed: float, m: int, length: float
) -> float:
    """The scalar water-level query of one store: a one-interval
    ``WindowKernel``'s load at ``speed``."""
    return float(WindowKernel([store], [length], m).loads_at_speed(speed)[0])


class TestKernelPrimitives:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_interval_loads_matches_sorted_loads(self, m):
        rng = np.random.default_rng(9)
        store = IntervalLoads()
        inserted: list[float] = []
        length = 0.75
        for job_id in range(40):
            load = float(rng.exponential(1.0) + 1e-6)
            store.insert(job_id, load)
            inserted.append(load)
            reference = SortedLoads(np.array(inserted), m, length)
            for speed in (0.0, 0.3, 1.0, 2.7, float(rng.uniform(0, 5))):
                assert _store_load_at_speed(
                    store, speed, m, length
                ) == reference.max_load_at_speed(speed)

    def test_interval_loads_split_matches_rescaled_sort(self):
        rng = np.random.default_rng(4)
        store = IntervalLoads()
        loads = rng.exponential(1.0, 25) + 1e-6
        for job_id, load in enumerate(loads):
            store.insert(job_id, float(load))
        fraction = 0.37
        child = store.split(fraction)
        reference = SortedLoads(loads * fraction, 3, 0.5)
        for speed in np.linspace(0.0, 4.0, 23):
            assert _store_load_at_speed(
                child, float(speed), 3, 0.5
            ) == reference.max_load_at_speed(float(speed))

    @pytest.mark.parametrize("k", [1, 3, 31, 32, 40])
    def test_window_kernel_matches_python_sum(self, k):
        """The kernel's scalar loop must equal a left-to-right sum over
        SortedLoads bit for bit, at every window width."""
        rng = np.random.default_rng(k)
        m = 3
        stores, caches, lengths = [], [], []
        for _ in range(k):
            p = int(rng.integers(0, 9))
            loads = rng.exponential(1.0, p) + 1e-6
            length = float(rng.uniform(0.1, 2.0))
            store = IntervalLoads()
            for job_id, load in enumerate(loads):
                store.insert(job_id, float(load))
            stores.append(store)
            caches.append(SortedLoads(loads, m, length))
            lengths.append(length)
        kernel = WindowKernel(stores, lengths, m)
        for speed in [0.0, *np.linspace(0.01, 6.0, 37)]:
            speed = float(speed)
            expected_total = float(
                left_sum(c.max_load_at_speed(speed) for c in caches)
            )
            expected_loads = np.array(
                [c.max_load_at_speed(speed) for c in caches]
            )
            assert kernel.total_at_speed(speed) == expected_total
            assert np.array_equal(kernel.loads_at_speed(speed), expected_loads)

    def test_store_from_column_matches_insertion(self):
        """A store built from a dense load column (zeros and ties
        included, as the offline solver holds them) equals inserting its
        positive loads in id order, list for list, and prices a job
        identically."""
        rng = np.random.default_rng(7)
        m = 2
        columns = rng.exponential(1.0, (12, 5)) * (rng.random((12, 5)) < 0.6)
        columns[3] = columns[8]
        lengths = [float(v) for v in rng.uniform(0.2, 1.5, 5)]
        built, inserted = [], []
        for k, length in enumerate(lengths):
            column = columns[:, k]
            store = IntervalLoads()
            for job_id, load in enumerate(column.tolist()):
                if load > 0.0:
                    store.insert(job_id, load)
            from_column = IntervalLoads.from_column(column)
            assert from_column.loads == store.loads
            assert from_column.neg == store.neg
            assert from_column.ids == store.ids
            assert from_column.suffix == store.suffix
            reference = SortedLoads(column, m, length)
            for speed in (0.0, 0.2, 0.9, 3.1):
                assert _store_load_at_speed(
                    from_column, speed, m, length
                ) == reference.max_load_at_speed(speed)
            built.append(from_column)
            inserted.append(store)
        from repro.model.power import PolynomialPower

        power = PolynomialPower(3.0)
        for workload, value in [(0.7, 2.0), (3.0, 0.4), (1.2, np.inf)]:
            kwargs = dict(
                workload=workload,
                value=value,
                delta=power.optimal_delta,
                power=power,
            )
            a = waterfill_job(WindowKernel(built, lengths, m), **kwargs)
            b = waterfill_job(WindowKernel(inserted, lengths, m), **kwargs)
            assert (a.accepted, a.lam, a.speed) == (b.accepted, b.lam, b.speed)
            assert np.array_equal(a.loads, b.loads)

    def test_interval_loads_rejects_nonpositive(self):
        store = IntervalLoads()
        with pytest.raises(Exception, match="> 0"):
            store.insert(0, 0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -math.inf, math.nan])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_window_kernel_rejects_bad_lengths(self, bad, at):
        """A non-positive or NaN length fails wherever it sits in the
        window (a NaN past the first would slip by ``min``)."""
        lengths = [0.5, 1.0, 2.0]
        lengths[at] = bad
        stores = [IntervalLoads() for _ in lengths]
        with pytest.raises(InvalidParameterError, match="interval length"):
            WindowKernel(stores, lengths, 2)


@st.composite
def opening_cases(draw):
    """One interval's store near its opening speed: 0..3m loads drawn
    from a small pool of magnitudes in 1e-300..1e300 (so ties are
    common), a length, and one more load to insert."""
    m = draw(st.integers(1, 9))
    exponents = st.floats(-300.0, 300.0, allow_nan=False)
    pool = draw(st.lists(exponents, min_size=1, max_size=4))
    loads = draw(st.lists(st.sampled_from(pool), max_size=3 * m))
    length = 10.0 ** draw(st.floats(-12.0, 12.0))
    extra = draw(st.sampled_from(pool) | exponents)
    return m, [10.0**e for e in loads], length, 10.0**extra


def _kernel_opens(store: IntervalLoads, speed: float, m: int, length: float) -> bool:
    """The per-interval test of ``WindowKernel`` and the epoch screen."""
    target = speed * length
    d = bisect_left(store.neg, -target)
    return d < m and target * (m - d) - store.suffix[d] > 0.0


class TestOpeningSpeedProperty:
    """The zero-work settle rule ``s * _SETTLE_MARGIN < _opening_speed``
    must never call an interval closed that the kernel's own test
    opens, and the opening speed must never fall under an insert
    (the epoch path settles against block-start speeds)."""

    @given(case=opening_cases())
    @settings(max_examples=80, deadline=None)
    def test_settle_rule_is_sound_and_monotone(self, case):
        m, loads, length, extra = case
        store = IntervalLoads()
        for job_id, load in enumerate(loads):
            store.insert(job_id, load)
        open_speed = _opening_speed(store, length, m)
        assert open_speed >= 0.0
        if len(loads) < m:
            assert open_speed == 0.0
        speeds = [0.0, open_speed, open_speed / _SETTLE_MARGIN]
        for base in (open_speed, open_speed / _SETTLE_MARGIN):
            up = down = base
            for _ in range(3):
                up = math.nextafter(up, math.inf)
                down = math.nextafter(down, 0.0)
                speeds += [up, down]
        speeds += [open_speed * (1 - 1e-9), open_speed * (1 + 1e-9)]
        for speed in speeds:
            if speed * _SETTLE_MARGIN < open_speed:
                assert not _kernel_opens(store, speed, m, length)
                assert _store_load_at_speed(store, speed, m, length) == 0.0
        if 0.0 < open_speed < math.inf:
            # Not vacuous: a little above the opening speed, it opens.
            assert (
                _store_load_at_speed(store, open_speed * (1 + 1e-6), m, length)
                > 0.0
            )

        level = _opening_level(store.suffix, m)
        store.insert(len(loads), extra)
        assert _opening_level(store.suffix, m) >= level
        assert _opening_speed(store, length, m) >= open_speed

    def test_opening_speed_under_the_floor_reads_zero(self):
        """Near the subnormal range roundings stop being relative, so
        a tiny opening speed reads 0: the interval never settles."""
        store = IntervalLoads()
        store.insert(0, 1e-300)
        assert _opening_level(store.suffix, 1) == 1e-300
        assert _opening_speed(store, 1.0, 1) == 1e-300
        assert _opening_speed(store, 1e12, 1) == 0.0


@st.composite
def store_upkeep(draw):
    """A random interleaving of a store's changes and level reads.

    Inserts take ascending ids and draw from a small pool of loads, so
    ties are common; splits scale by positive fractions; level reads
    ask for m in 1..5, so a level kept across a change would be read.
    """
    pool = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    op = st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(pool) | st.floats(1e-3, 1e3)),
        st.tuples(st.just("split"), st.floats(1e-3, 1.0)),
        st.tuples(st.just("levels"), st.integers(1, 5)),
    )
    return draw(st.lists(op, max_size=40))


class TestStoreUpkeepProperty:
    """A store kept up by ``insert`` and ``split`` equals, bit for bit,
    the store ``from_column`` builds from scratch over the dense column
    the same changes produce, and so do its kept levels."""

    @staticmethod
    def assert_matches_column(
        store: IntervalLoads, column: list[float], first_m: int
    ) -> None:
        dense = np.array(column, dtype=np.float64)
        fresh = IntervalLoads.from_column(dense)
        assert store.loads == fresh.loads
        assert store.neg == fresh.neg
        assert store.suffix == fresh.suffix
        # ``from_column`` orders equal loads by ascending id; a split can
        # round two distinct loads to one value and keep their order.
        assert sorted(zip(store.neg, store.ids)) == list(zip(fresh.neg, fresh.ids))
        # The last m read comes first: its level is the one kept. Each
        # m is checked against a store that never read another m.
        for m in (first_m, 1, 2, 3, 4, 5):
            assert store.levels(m) == IntervalLoads.from_column(dense).levels(m)

    @given(ops=store_upkeep())
    @settings(max_examples=80, deadline=None)
    def test_upkeep_matches_a_fresh_store(self, ops):
        store = IntervalLoads()
        column: list[float] = []
        last_m = 1
        for kind, arg in ops:
            if kind == "insert":
                store.insert(len(column), arg)
                column.append(arg)
            elif kind == "split":
                store = store.split(arg)
                column = [z * arg for z in column]
            else:
                store.levels(arg)
                last_m = arg
                continue
            self.assert_matches_column(store, column, last_m)
            last_m = 5

    def test_insert_keeps_the_suffix_tail(self):
        """An insert at position q re-sums only ``suffix[0..q]``; the
        tail keeps its floats, shifted one place."""
        store = IntervalLoads()
        for job_id, load in enumerate([5.0, 3.0, 0.1, 0.7, 2.0]):
            store.insert(job_id, load)
        tail = list(store.suffix[2:])
        store.insert(5, 2.5)
        assert store.loads == [5.0, 3.0, 2.5, 2.0, 0.7, 0.1]
        assert store.suffix[3:] == tail
        acc, head = 0.0, []
        for load in reversed(store.loads):
            acc += load
            head.append(acc)
        assert store.suffix[:3] == head[::-1][:3]


class TestGridRefineParity:
    def _reference_refine(self, grid: Grid, new_points):
        """Transcription of the historical O(N log N) refine loop."""
        existing = grid.boundaries.tolist()
        eps = 1e-12
        fresh = [
            p
            for p in map(float, new_points)
            if not any(abs(p - b) <= eps for b in existing)
        ]
        merged: list[float] = []
        for p in sorted(set(fresh) | set(existing)):
            if not merged or p - merged[-1] > eps:
                merged.append(p)
        new = Grid(np.array(merged))
        parent = np.empty(new.size, dtype=np.int64)
        fraction = np.empty(new.size, dtype=np.float64)
        old_lo, old_hi = grid.span
        for k in range(new.size):
            a, b = new.interval(k)
            if a < old_lo - eps or b > old_hi + eps:
                parent[k] = -1
                fraction[k] = 1.0
                continue
            p = grid.locate(a)
            parent[k] = p
            fraction[k] = (b - a) / grid.length(p)
        return new, parent, fraction

    @pytest.mark.parametrize("seed", range(8))
    def test_random_refinements_bitwise_identical(self, seed):
        rng = np.random.default_rng(seed)
        boundaries = np.sort(rng.uniform(0.0, 10.0, 7))
        boundaries[0], boundaries[-1] = 0.0, 10.0
        grid = Grid(boundaries)
        points = rng.uniform(-2.0, 12.0, 5).tolist()
        points.append(float(boundaries[2]))  # exact boundary: must snap
        refinement = _refine(grid, points)
        ref_grid, ref_parent, ref_fraction = self._reference_refine(
            grid, points
        )
        assert np.array_equal(refinement.grid.boundaries, ref_grid.boundaries)
        assert np.array_equal(refinement.parent, ref_parent)
        assert np.array_equal(refinement.fraction, ref_fraction)


class TestYdsOaParity:
    def classical(self, n, seed, family=poisson_instance):
        inst = family(n, m=1, alpha=3.0, seed=seed)
        return Instance.classical(
            [(j.release, j.deadline, j.workload) for j in inst.jobs],
            m=1,
            alpha=3.0,
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "family", [poisson_instance, uniform_instance, heavy_tail_instance]
    )
    def test_yds_fast_scan_equals_reference(self, seed, family):
        inst = self.classical(18, seed, family)
        fast = yds(inst)
        slow = yds_reference(inst)
        assert np.array_equal(fast.schedule.loads, slow.schedule.loads)
        assert np.array_equal(fast.job_speeds, slow.job_speeds)
        assert fast.groups == slow.groups
        assert fast.segments == slow.segments
        assert fast.energy == slow.energy

    def test_yds_exact_intensity_ties(self):
        """Symmetric windows with exactly equal critical intensities:
        the fast scan must keep the reference's first-wins tie rule."""
        inst = Instance.classical(
            [
                (0.0, 2.0, 1.0),
                (2.0, 4.0, 1.0),
                (4.0, 6.0, 1.0),
                (0.0, 6.0, 1.0),
                (1.0, 3.0, 1.0),
            ],
            m=1,
            alpha=3.0,
        )
        fast, slow = yds(inst), yds_reference(inst)
        assert fast.groups == slow.groups
        assert np.array_equal(fast.schedule.loads, slow.schedule.loads)

    def test_yds_fully_frozen_windows_are_not_misread(self):
        """Laminar (nested-window) instances freeze whole sub-windows in
        early rounds; removal dust in the float workload buckets must
        not make an emptied, fully-frozen window look occupied (which
        would raise a spurious SolverError). Regression test."""
        inst = Instance.classical(
            [
                (0.0, 8.0, 1.7),
                (0.0, 4.0, 2.3),
                (1.0, 3.0, 1.9),
                (1.5, 2.5, 0.6),
                (4.0, 8.0, 0.9),
                (5.0, 7.0, 1.1),
            ],
            m=1,
            alpha=3.0,
        )
        fast, slow = yds(inst), yds_reference(inst)
        assert fast.groups == slow.groups
        assert np.array_equal(fast.schedule.loads, slow.schedule.loads)

    def test_yds_rejects_unknown_scan(self):
        """``yds`` has one scan; the literal one is ``yds_reference``."""
        inst = self.classical(4, 0)
        with pytest.raises(TypeError, match="scan"):
            yds(inst, scan="reference")

    @pytest.mark.parametrize("seed", range(3))
    def test_oa_on_reference_plans_is_unchanged(self, seed, monkeypatch):
        """Three layers of OA parity at once: the lazy-prefix replanner
        vs the historical from-scratch replan, with the latter's YDS
        plans additionally pinned to the reference scan. Not one
        executed segment may differ across the stack."""
        import repro.classical.oa as oa_module

        inst = self.classical(24, seed)
        fast = run_oa(inst)
        monkeypatch.setattr(oa_module, "yds", yds_reference)
        _, slow = oa_segments_reference(inst)
        assert fast.segments == tuple(slow)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "family", [poisson_instance, uniform_instance, heavy_tail_instance]
    )
    def test_oa_incremental_replan_equals_reference(self, seed, family):
        """The OA replanner (lazy YDS prefix per epoch) must reproduce
        the from-scratch replan bit for bit on every existing
        differential case, schedule and payload hash included."""
        inst = self.classical(18, seed, family)
        ordered, exec_ref = oa_segments_reference(inst)
        assert oa_segments(inst)[1] == exec_ref
        fast = run_oa(inst)
        slow = schedule_from_segments(
            ordered, exec_ref, np.ones(ordered.n, dtype=bool)
        )
        assert fast.segments == tuple(exec_ref)
        assert np.array_equal(fast.schedule.loads, slow.loads)
        assert fast.schedule.grid.same_as(slow.grid)
        assert fast.energy == slow.energy
        assert stable_hash(schedule_to_dict(fast.schedule)) == stable_hash(
            schedule_to_dict(slow)
        )

    def test_oa_incremental_slotted_ties(self):
        """Slotted instances maximize release ties and epoch reuse — the
        shape the lazy replanner is built for."""
        from repro.workloads import slotted_instance

        inst = slotted_instance(300, slots=60, m=1, alpha=3.0, seed=3)
        assert oa_segments(inst)[1] == oa_segments_reference(inst)[1]

    def test_oa_rejects_unknown_replan(self):
        """OA has one loop: ``replan`` is no longer a parameter."""
        inst = self.classical(4, 0)
        with pytest.raises(TypeError, match="replan"):
            run_oa(inst, replan="turbo")


@st.composite
def plan_views(draw):
    """Common-release plan views as OA and CLL build them: every job
    released at ``now`` with a deadline past ``now + 1e-12``. Deadlines
    come from a small pool (duplicates) plus offsets within +-1e-12
    (near-duplicates straddling the scan's deadline tolerance). In tie
    mode the jobs due at each distinct deadline split the work
    ``rate * (gap to the previous deadline)`` unevenly (so summation
    order shows in the last ulp), and every window has the
    intensity ``rate`` up to rounding; at large rates that rounding is
    of the order of ``_EPS`` itself (ties within ``_EPS``)."""
    now = draw(st.sampled_from([0.0, 1.0, 3.7, 4096.0]))
    pool = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=6.0), min_size=1, max_size=8
        )
    )
    jitter = st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 4e-13, -4e-13, 2e-12])
    deadlines = [
        now + draw(st.sampled_from(pool)) + draw(jitter)
        for _ in range(draw(st.integers(min_value=1, max_value=40)))
    ]
    if draw(st.booleans()):
        rate = draw(
            st.sampled_from([1.0, 1e3, 2.5e4, 3e5, 7e6])
            | st.floats(min_value=0.1, max_value=1e6)
        )
        weights = [draw(st.floats(min_value=0.1, max_value=1.0)) for _ in deadlines]
        distinct = sorted(set(deadlines))
        gaps = dict(zip(distinct, np.diff([now, *distinct]).tolist()))
        share = dict.fromkeys(distinct, 0.0)
        for d, weight in zip(deadlines, weights):
            share[d] += weight
        workloads = [
            rate * gaps[d] * weight / share[d]
            for d, weight in zip(deadlines, weights)
        ]
    else:
        workloads = [
            draw(st.floats(min_value=1e-6, max_value=10.0)) for _ in deadlines
        ]
    return [_PlanJob(now, d, w) for d, w in zip(deadlines, workloads)]


def _window_or_error(scan, view, remaining, events, frozen):
    from repro.errors import SolverError

    try:
        g, a, b, inside = scan(view, remaining, events, frozen)
    except SolverError as exc:
        return ("error", str(exc))
    return (g.hex(), a.hex(), b.hex(), inside)


class TestPlanWindowProperty:
    """OA/CLL's one-pass plan scan on its float frontier against YDS's
    vectorized ``_critical_window`` on the ``IntervalSet`` algebra, on
    generated common-release views, round after round (so later rounds
    see the frozen prefix of earlier ones): ``(g, a, b, inside)``
    bitwise equal, float for float, and the frozen set always the one
    block ``[now, front]`` that the frontier stands for."""

    @given(view=plan_views())
    @settings(max_examples=150, deadline=None)
    def test_rounds_bitwise_identical(self, view):
        from repro.classical.oa import _plan_window
        from repro.classical.timeline import IntervalSet
        from repro.classical.yds import _critical_window

        remaining = set(range(len(view)))
        now = front = view[0].release
        frozen = IntervalSet.empty()
        while remaining:
            events = sorted(
                {view[j].release for j in remaining}
                | {view[j].deadline for j in remaining}
            )
            fast = _window_or_error(_plan_window, view, remaining, events, front)
            slow = _window_or_error(
                _critical_window, view, remaining, events, frozen
            )
            assert fast == slow
            if fast[0] == "error":
                break
            _, a, b, inside = _plan_window(view, remaining, events, front)
            frozen = frozen.union(IntervalSet.span(a, b).subtract(frozen))
            front = b
            assert frozen.parts == ((now, front),)
            remaining -= set(inside)

    def test_broken_structure_raises(self):
        from repro.classical.oa import _plan_window
        from repro.errors import SolverError

        view = [_PlanJob(0.0, 2.0, 1.0), _PlanJob(0.5, 3.0, 1.0)]
        with pytest.raises(SolverError, match="common-release"):
            _plan_window(view, {0, 1}, [0.0, 0.5, 2.0, 3.0], 0.0)


class TestBatchedEnergyParity:
    """The all-columns energy kernel vs the retained per-column loop."""

    def _pd_schedules(self):
        for family, n, m in FAMILIES:
            for alpha in (2.0, 3.0):
                inst = family(n, m=m, alpha=alpha, seed=9)
                yield run_pd(inst).schedule

    def test_pd_schedules_bitwise_identical(self):
        from repro.perf.reference import schedule_energy_reference

        for schedule in self._pd_schedules():
            assert schedule.energy == schedule_energy_reference(schedule)

    def test_classical_schedules_bitwise_identical(self):
        from repro.perf.reference import schedule_energy_reference

        for n, seed in ((24, 0), (50, 1), (80, 2)):
            inst = Instance.classical(
                [
                    (j.release, j.deadline, j.workload)
                    for j in poisson_instance(n, m=1, alpha=3.0, seed=seed).jobs
                ],
                m=1,
                alpha=3.0,
            )
            for schedule in (run_oa(inst).schedule, yds(inst).schedule):
                assert schedule.energy == schedule_energy_reference(schedule)

    def test_degenerate_and_empty_columns(self):
        from repro.perf.energy import schedule_energy
        from repro.perf.reference import schedule_energy_reference

        sched = run_pd(degenerate_single_interval()).schedule
        assert sched.energy == schedule_energy_reference(sched)
        # all-zero matrix: exactly 0.0 either way
        empty = np.zeros((3, 4))
        assert (
            schedule_energy(empty, np.ones(4), 2, sched.instance.power) == 0.0
        )

    def test_stores_energy_matches_reference_loop(self):
        """``stores_energy`` off the live ``IntervalLoads`` states ==
        the historical per-column loop over the dense schedule, bit for
        bit — the kernel/reference differential pair ``repro lint``
        (RPR3xx) tracks by name."""
        from repro.core.pd import PDScheduler
        from repro.perf.energy import stores_energy
        from repro.perf.reference import schedule_energy_reference

        for family, n, m in FAMILIES:
            inst = family(n, m=m, alpha=3.0, seed=11)
            sched = PDScheduler(m=m, alpha=3.0)
            for job in inst.sorted_by_release().jobs:
                sched.arrive(job)
            live = stores_energy(
                sched._states, sched._grid.lengths, sched.m, sched.power
            )
            assert live == schedule_energy_reference(sched.finish().schedule)

    def test_streaming_stores_match_dense_finish(self):
        """PDScheduler.streaming_* off the live stores == the dense
        Schedule's cached properties, bit for bit."""
        from repro.core.pd import PDScheduler

        for family, n, m in FAMILIES:
            inst = family(n, m=m, alpha=3.0, seed=4)
            sched = PDScheduler(m=m, alpha=3.0)
            for job in inst.sorted_by_release().jobs:
                sched.arrive(job)
            energy = sched.streaming_energy()
            lost = sched.streaming_lost_value()
            cost = sched.streaming_cost()
            result = sched.finish()
            assert energy == result.schedule.energy
            assert lost == result.schedule.lost_value
            assert cost == result.schedule.cost


@st.composite
def load_matrices(draw):
    """Dense ``(n, N)`` load matrices built column by column from the
    shapes the energy kernels special-case: all-zero columns, columns
    whose total stays under the 1e-12 emptiness gate (single tiny loads
    included), single-load columns, and multi-load columns with exact
    ties and entries under the 1e-15 partition tolerance mixed in; ``m``
    is drawn independently of ``n``, so often ``m > n``.

    Column totals are kept clear of the gate itself: ``stores_energy``
    sums a column's nonzeros sequentially where the dense loop sums the
    zero-padded column pairwise, and the two gate tests can part within
    one rounding step of 1e-12 (``repro.perf.energy``'s documented
    caveat)."""
    n = draw(st.integers(min_value=1, max_value=7))
    big_n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=9))
    big = st.sampled_from([0.5, 1.25, 2.0]) | st.floats(
        min_value=1e-6, max_value=10.0
    )
    tiny = st.floats(min_value=1e-18, max_value=0.9e-12 / n)
    loads = np.zeros((n, big_n))
    for k in range(big_n):
        kind = draw(st.sampled_from(["zero", "tiny", "single", "multi"]))
        if kind == "zero":
            continue
        if kind == "single":
            loads[draw(st.integers(0, n - 1)), k] = draw(big)
            continue
        for j in range(n):
            if draw(st.booleans()):
                loads[j, k] = draw(tiny if kind == "tiny" else big | tiny)
        if kind == "multi" and loads[:, k].sum() <= 1e-9:
            loads[draw(st.integers(0, n - 1)), k] = draw(big)
    lengths = [draw(st.floats(min_value=0.05, max_value=3.0)) for _ in range(big_n)]
    return loads, np.cumsum([0.0, *lengths]), m, draw(st.sampled_from([2.0, 3.0]))


class TestEnergyParityProperty:
    """``schedule_energy`` and ``stores_energy`` against the per-column
    reference loop on generated load matrices, bit for bit."""

    @given(case=load_matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_reference_loop(self, case):
        from repro.perf.energy import schedule_energy, stores_energy
        from repro.perf.reference import schedule_energy_reference
        from repro.model.schedule import Schedule

        loads, boundaries, m, alpha = case
        grid = Grid(boundaries)
        end = float(boundaries[-1])
        instance = Instance.from_tuples(
            [(0.0, end, 1.0, 1.0)] * loads.shape[0], m=m, alpha=alpha
        )
        schedule = Schedule(
            instance=instance,
            grid=grid,
            loads=loads,
            finished=np.ones(loads.shape[0], dtype=bool),
        )
        expected = schedule_energy_reference(schedule)
        power = instance.power
        assert schedule_energy(loads, grid.lengths, m, power) == expected
        assert schedule.energy == expected
        states = [IntervalLoads.from_column(loads[:, k]) for k in range(grid.size)]
        assert stores_energy(states, grid.lengths, m, power) == expected
        assert stores_energy(states, grid.lengths.tolist(), m, power) == expected

    @given(case=load_matrices(), general=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_energy_with_power_matches_column_loop(self, case, general):
        """``energy_with_power`` on the batched kernel == its former
        per-column ``interval_energy`` loop over the zero-padded
        columns, bit for bit, for a sum of powers and a polynomial."""
        from repro.chen.interval_power import interval_energy
        from repro.general import SumPower, energy_with_power
        from repro.model.power import PolynomialPower
        from repro.model.schedule import Schedule

        loads, boundaries, m, alpha = case
        power = (
            SumPower([1.0, 0.5], [alpha, 1.0]) if general else PolynomialPower(alpha)
        )
        grid = Grid(boundaries)
        instance = Instance.from_tuples(
            [(0.0, float(boundaries[-1]), 1.0, 1.0)] * loads.shape[0],
            m=m,
            alpha=alpha,
        )
        schedule = Schedule(
            instance=instance,
            grid=grid,
            loads=loads,
            finished=np.ones(loads.shape[0], dtype=bool),
        )
        expected = 0.0
        for k in range(grid.size):
            col = schedule.loads[:, k]
            if float(col.sum()) <= 1e-12:
                continue
            expected += interval_energy(col, m, float(grid.lengths[k]), power)
        assert energy_with_power(schedule, power) == expected


def _literal_phi(first, stop, size, s_hat, m):
    """Lemma 5(c) read literally: per interval, rescan every job in
    ``(-s_hat, id)`` order and keep the first ``m`` available ones with
    ``s_hat > 0``."""
    order_all = np.lexsort((np.arange(len(s_hat)), -s_hat))
    expected = []
    for k in range(size):
        picked = []
        for j in order_all:
            if len(picked) == m:
                break
            if first[j] <= k < stop[j] and s_hat[j] > 0.0:
                picked.append(int(j))
        expected.append(tuple(picked))
    return tuple(expected)


@st.composite
def phi_cases(draw):
    """Job windows on a grid of up to 64 intervals (empty windows and
    whole-grid ones included), ``s_hat`` drawn from a small pool so ties
    are common, zeros mixed in, and ``m`` often larger than a window
    holds."""
    size = draw(st.integers(min_value=1, max_value=64))
    n = draw(st.integers(min_value=0, max_value=40))
    first, stop = [], []
    for _ in range(n):
        lo = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=size)))
        first.append(lo)
        stop.append(
            draw(st.one_of(st.just(size), st.integers(min_value=lo, max_value=size)))
        )
    pool = draw(
        st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=3)
    )
    s_hat = [draw(st.sampled_from([0.0, *pool])) for _ in range(n)]
    m = draw(st.integers(min_value=1, max_value=8))
    return (
        np.array(first, dtype=np.int64),
        np.array(stop, dtype=np.int64),
        size,
        np.array(s_hat, dtype=np.float64),
        m,
    )


class TestCertificateHelpersParity:
    def test_contributing_jobs_matches_literal_rescan(self):
        from repro.analysis.certificates import contributing_jobs

        rng = np.random.default_rng(3)
        n, big_n, m = 30, 17, 3
        first = rng.integers(0, big_n - 1, n)
        stop = np.minimum(big_n, first + rng.integers(1, 6, n))
        s_hat = rng.exponential(1.0, n)
        s_hat[rng.random(n) < 0.2] = 0.0
        expected = _literal_phi(first, stop, big_n, s_hat, m)
        assert contributing_jobs((first, stop), big_n, s_hat, m) == expected

    @given(case=phi_cases())
    @settings(max_examples=60, deadline=None)
    def test_contributing_jobs_window_pass_matches_literal_rescan(self, case):
        from repro.analysis.certificates import contributing_jobs

        first, stop, size, s_hat, m = case
        expected = _literal_phi(first, stop, size, s_hat, m)
        assert contributing_jobs((first, stop), size, s_hat, m) == expected

    def test_pool_level_matches_literal_scan(self):
        from repro.chen.interval_power import _LOAD_EPS, pool_level

        rng = np.random.default_rng(8)
        for m in (1, 2, 4, 9):
            for _ in range(30):
                p = int(rng.integers(0, 12))
                loads = rng.exponential(1.0, p)
                loads[rng.random(p) < 0.3] = 0.0
                arr = np.sort(loads)[::-1]
                suffix = np.concatenate(
                    (np.cumsum(arr[::-1])[::-1], [0.0])
                ) if p else np.zeros(1)
                expected = None
                for d in range(0, min(p, m - 1) + 1):
                    level = float(suffix[d]) / (m - d)
                    upper_ok = d == 0 or float(arr[d - 1]) >= level - _LOAD_EPS
                    lower_ok = d >= p or float(arr[d]) <= level + _LOAD_EPS
                    if upper_ok and lower_ok:
                        expected = max(level, 0.0)
                        break
                assert expected is not None
                assert pool_level(loads, m) == expected
