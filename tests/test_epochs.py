"""Differential suite for the arrival-epoch layer.

``repro.perf.epochs`` replays PD's scalar core in vectorized blocks —
and promises the replay is invisible: same decisions, same stores, same
planned loads, same payload hashes, same cache keys, and no bump of
:data:`repro.engine.runner.RECORD_VERSION`. Every test here runs the
epoch layer (:func:`repro.perf.epochs.arrive_epochs`, which
``PDScheduler.arrive_many`` runs) against the row loop (``run_pd``, or
the per-arrival twin :func:`repro.perf.reference.arrive_epochs_reference`
— one scalar ``arrive()`` per job) and compares with exact equality,
never tolerances. OA's batched bookkeeping loop gets the same treatment
against its from-scratch oracle,
:func:`repro.perf.reference.oa_segments_reference`.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.classical.oa as oa_module
import repro.core.pd as pd_module
import repro.perf.epochs as epochs
from repro.classical.execution import schedule_from_segments
from repro.classical.oa import oa_segments, run_oa
from repro.core.pd import PDScheduler, run_pd
from repro.core.waterfill import price_cap, waterfill_job
from repro.engine.experiment import ExperimentSpec
from repro.engine.runner import (
    RECORD_VERSION,
    RunRequest,
    evaluate_request,
)
from repro.errors import InvalidParameterError
from repro.general.powers import SumPower
from repro.io.serialize import schedule_to_dict, stable_hash
from repro.model.job import Instance, Job
from repro.model.job_arrays import JobArrays
from repro.model.power import PolynomialPower
from repro.perf.epochs import DEFAULT_EPOCH_SIZE, arrive_epochs
from repro.perf.kernels import _opening_speed
from repro.perf.reference import (
    arrive_epochs_reference,
    oa_segments_reference,
    run_pd_reference,
)
from repro.workloads import (
    diurnal_instance,
    heavy_tail_instance,
    slotted_instance,
)

#: (family, n, m) across the workload shapes the epoch layer must not
#: distort: slot-aligned streams (wide blocks, heavy screening),
#: heavy-tail elephants (grid churn), and the datacenter mix (dense
#: distinct releases — blocks split at nearly every refinement).
FAMILIES = [
    (slotted_instance, 300, 1),
    (slotted_instance, 300, 4),
    (heavy_tail_instance, 120, 1),
    (heavy_tail_instance, 120, 4),
    (diurnal_instance, 150, 1),
    (diurnal_instance, 150, 4),
]


def degenerate_single_interval(n: int = 16, m: int = 2) -> Instance:
    """Every job shares one window: the grid never refines past one
    atomic interval, so after the bootstrap arrival every block runs at
    full width against a single store."""
    rng = np.random.default_rng(5)
    jobs = [
        (0.0, 4.0, float(w), float(v))
        for w, v in zip(
            rng.exponential(1.0, n) + 1e-3, rng.uniform(0.05, 8.0, n)
        )
    ]
    return Instance.from_tuples(jobs, m=m, alpha=3.0)


def tie_at_epoch_boundary(n: int = 24) -> Instance:
    """Byte-identical jobs in one shared window: every price computation
    ties exactly, so any ordering slip between the batched and the
    sequential path would flip which job the tie-break admits. With
    ``epoch_size=7`` the tie pairs straddle block boundaries."""
    jobs = [(0.0, 3.0, 1.0, 2.5)] * n
    return Instance.from_tuples(jobs, m=2, alpha=3.0)


def run_epochs(instance: Instance, epoch_size: int = DEFAULT_EPOCH_SIZE):
    """PD on ``instance`` through the epoch layer, finished."""
    ordered = instance.sorted_by_release()
    sched = PDScheduler(m=ordered.m, alpha=ordered.alpha)
    arrive_epochs(sched, ordered.arrays, epoch_size=epoch_size)
    return sched.finish()


def assert_epoch_parity(instance: Instance, **epoch_kwargs) -> None:
    """Full-result bitwise comparison of the epoch layer vs ``run_pd``'s
    row loop. Job names, which only ``arrive()`` carries, are dropped."""
    instance = Instance.from_arrays(
        instance.arrays, m=instance.m, alpha=instance.alpha
    )
    new = run_epochs(instance, **epoch_kwargs)
    old = run_pd(instance)
    assert np.array_equal(new.schedule.loads, old.schedule.loads)
    assert np.array_equal(new.planned_loads, old.planned_loads)
    assert np.array_equal(new.lambdas, old.lambdas)
    assert np.array_equal(new.schedule.finished, old.schedule.finished)
    assert new.decisions == old.decisions
    assert new.schedule.instance.jobs == old.schedule.instance.jobs
    assert new.schedule.energy == old.schedule.energy
    assert new.cost == old.cost
    # The record body that gets content-hashed is byte-identical, so
    # cached records answer for either feed.
    assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
        schedule_to_dict(old.schedule)
    )


class TestPDEpochParity:
    @pytest.mark.parametrize("family,n,m", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_families_bitwise_identical(self, family, n, m, seed):
        assert_epoch_parity(family(n, m=m, alpha=3.0, seed=seed))

    def test_degenerate_single_interval_grid(self):
        assert_epoch_parity(degenerate_single_interval())

    def test_exact_price_ties_across_epoch_boundaries(self):
        assert_epoch_parity(tie_at_epoch_boundary(), epoch_size=7)

    @pytest.mark.parametrize("epoch_size", [1, 7, 300])
    def test_epoch_size_invariant(self, epoch_size):
        """The block length is pure tuning: size 1 (every job scalar),
        a prime that misaligns with everything, and n (one block)."""
        inst = slotted_instance(300, slots=40, m=4, alpha=3.0, seed=2)
        assert_epoch_parity(inst, epoch_size=epoch_size)

    def test_scheduler_state_identical(self):
        """Not just the results — the live stores themselves: loads,
        insertion-order ids, flushed suffixes, planned lists."""
        inst = slotted_instance(400, slots=60, m=4, alpha=3.0, seed=1)
        arrays = inst.sorted_by_release().arrays
        fast = PDScheduler(m=4, alpha=3.0)
        arrive_epochs(fast, arrays, epoch_size=64)
        slow = PDScheduler(m=4, alpha=3.0)
        arrive_epochs_reference(slow, arrays)
        assert np.array_equal(fast._grid.boundaries, slow._grid.boundaries)
        for fs, ss in zip(fast._states, slow._states):
            assert fs.loads == ss.loads
            assert fs.ids == ss.ids
            assert fs.suffix == ss.suffix
        assert fast._planned == slow._planned
        assert_opening_speeds_current(fast)
        assert fast.streaming_cost() == slow.streaming_cost()
        assert fast.streaming_energy() == slow.streaming_energy()
        assert fast.streaming_lost_value() == slow.streaming_lost_value()
        assert np.array_equal(
            fast.finish().schedule.loads, slow.finish().schedule.loads
        )

    def test_named_jobs_survive_epoch_runs(self):
        """Named jobs fed through ``arrive()`` keep their names, also
        when a columnar block runs between them."""
        jobs = [
            Job(0.0, 2.0, 1.0, 3.0, "first"),
            Job(0.5, 2.5, 0.5, 0.001, "junk"),
            Job(1.0, 3.0, 1.5, 5.0, "big"),
        ]
        sched = PDScheduler(m=1, alpha=3.0)
        sched.arrive(jobs[0])
        sched.arrive_many(Instance((jobs[1],)).arrays)
        sched.arrive(jobs[2])
        new = sched.finish()
        old = run_pd(Instance(tuple(jobs), m=1, alpha=3.0))
        assert [j.name for j in new.schedule.instance.jobs] == [
            "first",
            None,
            "big",
        ]
        assert [j.name for j in old.schedule.instance.jobs] == [
            "first",
            "junk",
            "big",
        ]
        assert new.decisions == old.decisions


def assert_opening_speeds_current(sched: PDScheduler) -> None:
    """The epoch path's per-interval opening speeds equal a fresh
    recomputation from the final stores."""
    if sched._open is None:
        return
    assert sched._open == [
        _opening_speed(state, length, sched.m)
        for state, length in zip(sched._states, sched._lengths, strict=True)
    ]


def assert_scheduler_parity(instance: Instance, epoch_size: int, **kwargs) -> None:
    """Feed ``instance`` to an epoch scheduler and to the per-arrival
    twin, then compare the live stores and the finished results bit for
    bit. ``kwargs`` go to both ``PDScheduler`` constructors."""
    arrays = instance.sorted_by_release().arrays
    fast = PDScheduler(m=instance.m, alpha=instance.alpha, **kwargs)
    arrive_epochs(fast, arrays, epoch_size=epoch_size)
    slow = PDScheduler(m=instance.m, alpha=instance.alpha, **kwargs)
    arrive_epochs_reference(slow, arrays)
    assert np.array_equal(fast._grid.boundaries, slow._grid.boundaries)
    for fs, ss in zip(fast._states, slow._states, strict=True):
        assert fs.loads == ss.loads
        assert fs.ids == ss.ids
        assert fs.suffix == ss.suffix
    assert fast._planned == slow._planned
    assert_opening_speeds_current(fast)
    new, old = fast.finish(), slow.finish()
    assert new.decisions == old.decisions
    assert np.array_equal(new.schedule.loads, old.schedule.loads)
    assert np.array_equal(new.planned_loads, old.planned_loads)
    assert new.cost == old.cost


class TestZeroWorkScreen:
    """The zero-work settle is the only cheap-reject path: an arrival
    whose price cap lies below the opening speed of every interval of
    its window is settled without a ``WindowKernel`` or a water-fill,
    against the live opening speeds (accepts earlier in the same block
    included). Any other arrival is filled, and a fill whose cap opens
    no interval returns the same zero-work reject."""

    @pytest.mark.parametrize("m", [1, 4])
    def test_waterfill_only_sees_jobs_that_place_work(self, m, monkeypatch):
        zero_work = []

        def recording_waterfill(kernel, **kwargs):
            outcome = waterfill_job(kernel, **kwargs)
            if not outcome.accepted and outcome.planned_work == 0.0:
                zero_work.append(outcome)
            return outcome

        monkeypatch.setattr(epochs, "waterfill_job", recording_waterfill)
        inst = slotted_instance(2000, slots=50, m=m, alpha=3.0, seed=2)
        assert_scheduler_parity(inst, DEFAULT_EPOCH_SIZE)
        assert zero_work == []

    @pytest.mark.parametrize("epoch_size", [1, 7, 300])
    def test_custom_power_bitwise_identical(self, epoch_size):
        """Custom power functions take the same screen: the cap comes
        from their own ``derivative_inverse``, as in the water-fill."""
        inst = slotted_instance(300, slots=40, m=4, alpha=3.0, seed=2)
        assert_scheduler_parity(
            inst,
            epoch_size,
            power=SumPower([1.0, 0.5], [3.0, 1.0]),
            delta=3.0**-2,
        )

    def test_settled_arrivals_place_no_work(self, monkeypatch):
        """On a 20k-job slotted stream, every fill inside a block places
        work, and every arrival that plans work on the per-arrival path
        went through a fill (in a block or in the scalar core)."""
        inst = slotted_instance(20_000, slots=200, m=4, alpha=3.0, seed=3)
        arrays = inst.sorted_by_release().arrays
        slow = PDScheduler(m=4, alpha=3.0)
        arrive_epochs_reference(slow, arrays)
        filled = set()
        block_fills = []

        def recording(in_block):
            def recording_waterfill(kernel, **kwargs):
                outcome = waterfill_job(kernel, **kwargs)
                filled.add((kwargs["workload"], kwargs["value"]))
                if in_block:
                    block_fills.append(outcome.planned_work)
                return outcome

            return recording_waterfill

        monkeypatch.setattr(epochs, "waterfill_job", recording(True))
        monkeypatch.setattr(pd_module, "waterfill_job", recording(False))
        fast = PDScheduler(m=4, alpha=3.0)
        arrive_epochs(fast, arrays)
        decisions = fast.finish().decisions
        assert decisions == slow.finish().decisions
        assert block_fills and all(work > 0.0 for work in block_fills)
        workloads = arrays.workloads.tolist()
        values = arrays.values.tolist()
        for i, decision in enumerate(decisions):
            if decision.planned_work > 0.0:
                assert (workloads[i], values[i]) in filled

    def test_price_caps_equal_the_scalar_inverse(self):
        """The batched caps are ``derivative_inverse`` float for float,
        at the overflow edge and at 0 too; NaN leaves a cap to the
        scalar call."""
        power = PolynomialPower(1.01)
        delta = power.optimal_delta
        values = np.array([0.0, 1e-300, 0.3, 2.5, 5e3, 1e308, 7.0, 1e-320])
        workloads = np.array([1.0, 1e10, 0.7, 1.3, 1.0, 1e-10, 1e-3, 1e3])
        caps = epochs._price_caps(power, values, workloads, delta).tolist()
        expected = [
            power.derivative_inverse(v / (delta * w))
            for v, w in zip(values.tolist(), workloads.tolist())
        ]
        # Row 5's quotient overflows: the batch leaves it to the scalar
        # price_cap, whose log form lands past the overflow edge too.
        assert np.isnan(caps[5])
        assert price_cap(power, 1e308, 1e-10, delta) == expected[5] == np.inf
        assert caps[:5] + caps[6:] == expected[:5] + expected[6:]
        assert 0.0 in caps and np.inf in caps
        cubic = PolynomialPower(3.0)
        rng = np.random.default_rng(0)
        values = rng.uniform(0.05, 8.0, 500) * 10.0 ** rng.uniform(-12, 12, 500)
        workloads = rng.exponential(1.0, 500) + 1e-3
        caps = epochs._price_caps(cubic, values, workloads, 1 / 9).tolist()
        assert caps == [
            cubic.derivative_inverse(v / ((1 / 9) * w))
            for v, w in zip(values.tolist(), workloads.tolist())
        ]
        # A positive marginal whose quotient by alpha underflows makes
        # the scalar raise; the batch leaves it to the scalar.
        tiny = epochs._price_caps(cubic, np.array([5e-324]), np.array([9.0]), 1 / 9)
        assert np.isnan(tiny).all()
        assert np.isnan(
            epochs._price_caps(SumPower([1.0], [3.0]), values, workloads, 0.5)
        ).all()


def hostile_caps(alpha: float) -> Instance:
    """A slotted stream salted with arrivals whose price caps are 0
    (value 0), infinite (alpha near 1 maps a large marginal past the
    ``exp`` edge), or overflowing (``value / (delta * workload)`` is
    itself ``inf``). Each shares the window of an ordinary job that
    arrives before it, so it runs in a block rather than refining."""
    base = slotted_instance(60, slots=6, span_max=3, m=2, alpha=alpha, seed=8)
    jobs = [(j.release, j.deadline, j.workload, j.value) for j in base.jobs]
    for release, deadline, _, _ in jobs[::6]:
        jobs += [
            (release, deadline, 0.8, 0.0),
            (release, deadline, 1.0, 5e3),
            (release, deadline, 1e-10, 1e308),
        ]
    return Instance.from_tuples(jobs, m=2, alpha=alpha)


class TestExtremeCaps:
    @pytest.mark.parametrize("alpha", [1.01, 3.0])
    @pytest.mark.parametrize("epoch_size", [1, 7, None])
    def test_zero_infinite_and_overflowing_caps(self, alpha, epoch_size):
        instance = hostile_caps(alpha)
        assert_scheduler_parity(instance, epoch_size or instance.n)


#: The whole positive float range, subnormals included.
_POSITIVE = st.floats(
    min_value=5e-324, max_value=1.8e308, allow_nan=False, allow_infinity=False
)


class TestSubnormalCaps:
    """Valid jobs whose cap arithmetic under- or overflows get a cap
    instead of a raw Python error."""

    @pytest.mark.parametrize(
        "rows",
        [
            # delta * workload underflows to 0: ZeroDivisionError before.
            [(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 5e-324, 1)],
            # value / (delta * workload) / alpha underflows: math domain
            # error before.
            [(0, 1, 9, 5e-324)],
        ],
    )
    @pytest.mark.parametrize("feed", ["arrival", "epoch"])
    def test_run_pd_prices_subnormal_jobs(self, rows, feed):
        """``arrival`` runs ``run_pd``'s row loop, ``epoch`` the epoch
        layer."""
        instance = Instance.from_tuples(rows, m=1, alpha=3.0)
        result = run_pd(instance) if feed == "arrival" else run_epochs(instance)
        last = result.decisions[-1]
        assert not last.accepted and last.planned_speed > 0.0
        assert math.isfinite(last.planned_speed)
        assert result.decisions == run_pd_reference(instance).decisions
        assert_scheduler_parity(instance, instance.n)

    @given(
        values=st.lists(_POSITIVE, min_size=1, max_size=8),
        workloads=st.lists(_POSITIVE, min_size=8, max_size=8),
        delta=_POSITIVE,
        alpha=st.sampled_from([1.01, 1.5, 2.0, 3.0, 7.5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_caps_over_the_whole_float_range(
        self, values, workloads, delta, alpha
    ):
        power = PolynomialPower(alpha)
        workloads = workloads[: len(values)]
        batched = epochs._price_caps(
            power, np.array(values), np.array(workloads), delta
        ).tolist()
        for value, workload, cap in zip(values, workloads, batched):
            scalar = price_cap(power, value, workload, delta)
            assert scalar >= 0.0
            try:
                before = power.derivative_inverse(value / (delta * workload))
            except (ZeroDivisionError, ValueError):
                before = None
            if before is not None and math.isfinite(before):
                assert scalar == before
            if math.isnan(cap):
                # Left to the scalar: exactly the rows that raised or
                # whose quotient overflowed.
                assert before is None or before == math.inf
            else:
                assert cap == scalar


@st.composite
def shared_window_streams(draw):
    """Release-ordered streams packed into a few unit slots.

    Many jobs share each window, so accepts raise water levels in the
    middle of a block; jobs are drawn from a small template pool, so
    exact duplicates (identical prices) are common.
    """
    slots = draw(st.integers(1, 4))
    window = st.tuples(st.integers(0, slots - 1), st.integers(1, slots)).filter(
        lambda ab: ab[0] < ab[1]
    )
    template = st.tuples(
        window,
        st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),
        st.floats(0.05, 12.0, allow_nan=False, allow_infinity=False),
    )
    pool = draw(st.lists(template, min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    jobs = sorted(
        (float(a), float(b), w, w * ratio) for (a, b), w, ratio in picks
    )
    m = draw(st.integers(1, 5))
    alpha = draw(st.sampled_from([2.0, 3.0]))
    return Instance.from_tuples(jobs, m=m, alpha=alpha)


class TestEpochDifferentialProperty:
    @given(
        instance=shared_window_streams(),
        epoch_size=st.sampled_from([1, 2, 3, 7, None]),
    )
    @example(
        instance=Instance.from_tuples([(0.0, 1.0, 1.0, 2.0)] * 2, m=5, alpha=3.0),
        epoch_size=None,
    )
    @settings(max_examples=60, deadline=None)
    def test_epochs_match_per_arrival_twin(self, instance, epoch_size):
        """``None`` draws one block spanning the whole stream."""
        assert_scheduler_parity(instance, epoch_size or instance.n)


@st.composite
def tie_groups(draw):
    """Groups of byte-identical jobs in shared windows.

    Every price inside a group ties exactly, so an ordering slip
    between the batched and the per-arrival feed would flip which job
    the tie-break admits. Groups of 2-9 jobs, fed in blocks of 1, 7 or
    the whole stream, put tie pairs on both sides of block boundaries.
    """
    slots = draw(st.integers(1, 4))
    window = st.tuples(st.integers(0, slots - 1), st.integers(1, slots)).filter(
        lambda ab: ab[0] < ab[1]
    )
    group = st.tuples(
        window,
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        st.floats(0.05, 8.0, allow_nan=False, allow_infinity=False),
        st.integers(2, 9),
    )
    jobs = []
    for (a, b), w, ratio, count in draw(st.lists(group, min_size=1, max_size=5)):
        jobs += [(float(a), float(b), w, w * ratio)] * count
    m = draw(st.integers(1, 4))
    return Instance.from_tuples(jobs, m=m, alpha=3.0)


class TestTiesAtEpochBoundaries:
    @given(instance=tie_groups(), epoch_size=st.sampled_from([1, 7, None]))
    @example(instance=tie_at_epoch_boundary(), epoch_size=7)
    @settings(max_examples=40, deadline=None)
    def test_tie_groups_match_the_row_by_row_feed(self, instance, epoch_size):
        """``arrive_many``'s epoch layer against one ``arrive()`` per
        row: stores, decisions and results bitwise. ``None`` draws one
        block spanning the whole stream."""
        assert_scheduler_parity(instance, epoch_size or instance.n)


class TestInterleavedFeeds:
    @pytest.mark.parametrize("epoch_size", [1, 7, None])
    def test_interleaved_arrive_and_arrive_many_match_reference(self, epoch_size):
        """One scheduler fed ``arrive()``, then a block, then
        ``arrive()`` again equals the dense oracle on the concatenation:
        decisions, loads, planned loads and the payload hash."""
        ordered = slotted_instance(90, slots=12, m=2, alpha=3.0, seed=5)
        ordered = ordered.sorted_by_release()
        arrays = ordered.arrays
        block = JobArrays(
            releases=arrays.releases[20:70],
            deadlines=arrays.deadlines[20:70],
            workloads=arrays.workloads[20:70],
            values=arrays.values[20:70],
        )
        sched = PDScheduler(m=2, alpha=3.0)
        for job in ordered.jobs[:20]:
            sched.arrive(job)
        arrive_epochs(sched, block, epoch_size=epoch_size or block.n)
        for job in ordered.jobs[70:]:
            sched.arrive(job)
        assert_opening_speeds_current(sched)
        new = sched.finish()
        old = run_pd_reference(ordered)
        assert new.decisions == old.decisions
        assert np.array_equal(new.schedule.loads, old.schedule.loads)
        assert np.array_equal(new.planned_loads, old.planned_loads)
        assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
            schedule_to_dict(old.schedule)
        )
        assert sched.streaming_lost_value() == old.schedule.lost_value


class TestEpochErrors:
    def test_epoch_size_must_be_positive(self):
        sched = PDScheduler(m=1, alpha=3.0)
        arrays = slotted_instance(5, slots=3, seed=0).sorted_by_release().arrays
        with pytest.raises(InvalidParameterError, match="epoch_size"):
            arrive_epochs(sched, arrays, epoch_size=0)

    def test_default_epoch_size_is_sane(self):
        assert DEFAULT_EPOCH_SIZE >= 1

    def test_release_order_checked_across_calls(self):
        """A release-order violation across an ``arrive()`` /
        ``arrive_many()`` boundary raises the canonical error."""
        late = Instance.from_tuples([(2.0, 3.0, 1.0, 1.0)]).arrays
        early = Instance.from_tuples([(0.5, 3.0, 1.0, 1.0)]).arrays
        sched = PDScheduler(m=1, alpha=3.0)
        sched.arrive(late.job(0))
        with pytest.raises(InvalidParameterError, match="release order"):
            sched.arrive_many(early)
        other = PDScheduler(m=1, alpha=3.0)
        other.arrive_many(late)
        with pytest.raises(InvalidParameterError, match="release order"):
            other.arrive(early.job(0))
        assert sched._count == other._count == 1

    def test_release_order_violation_processes_prefix_first(self):
        """Mid-block violations must leave the scheduler exactly where
        the sequential loop would: valid prefix processed, then raise."""
        arrays = JobArrays(
            releases=np.array([0.0, 1.0, 2.0, 0.5]),
            deadlines=np.array([2.0, 3.0, 4.0, 2.5]),
            workloads=np.ones(4),
            values=np.full(4, 2.0),
        )
        fast = PDScheduler(m=1, alpha=3.0)
        with pytest.raises(InvalidParameterError, match="release order"):
            arrive_epochs(fast, arrays, epoch_size=8)
        slow = PDScheduler(m=1, alpha=3.0)
        with pytest.raises(InvalidParameterError, match="release order"):
            arrive_epochs_reference(slow, arrays)
        assert fast._count == 3
        for fs, ss in zip(fast._states, slow._states):
            assert fs.loads == ss.loads
        assert fast.finish().decisions == slow.finish().decisions

    def test_invalid_batch_mode_rejected(self):
        """No entry point takes an execution option any more: PD and OA
        each run one path."""
        inst = slotted_instance(4, slots=2, seed=0)
        sched = PDScheduler(m=1, alpha=3.0)
        calls = [
            lambda: PDScheduler(m=1, alpha=3.0, batch="epoch"),
            lambda: run_pd(inst, batch="epoch"),
            lambda: run_pd(inst, epoch_size=8),
            lambda: sched.arrive_many(inst.arrays, epoch_size=8),
            lambda: oa_segments(inst, replan="reference"),
            lambda: oa_segments(inst, batch="epoch"),
            lambda: run_oa(inst, batch="epoch"),
            lambda: RunRequest("pd", inst, batch="epoch"),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
        import repro.perf

        assert not hasattr(repro.perf, "batch_mode")
        assert not hasattr(repro.perf, "current_batch_mode")


def oa_reference_schedule(inst: Instance):
    ordered, executed = oa_segments_reference(inst)
    return schedule_from_segments(ordered, executed, np.ones(ordered.n, dtype=bool))


#: Offsets that put times within the 1e-12 event tolerance of each
#: other, on both sides of it.
_JITTER = [0.0, 0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12]


@st.composite
def oa_streams(draw):
    """Single-processor streams for OA's differential: releases from a
    small pool (exact ties) plus near-ties within 1e-12, deadlines from
    a pool plus offsets within +-1e-12 (near-duplicates straddling the
    event tolerance), and workloads from a pool that includes values at
    and just above the 1e-9 work tolerance."""
    releases = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])
    rows = []
    for release in sorted(draw(st.lists(releases, min_size=1, max_size=14))):
        if release > 0.0:
            release += draw(st.sampled_from(_JITTER))
        deadline = draw(
            st.sampled_from([d for d in (2.0, 3.0, 4.5, 6.0) if d > release + 0.5])
        ) + draw(st.sampled_from(_JITTER))
        workload = draw(
            st.sampled_from([1e-9, 1e-9 * (1 + 1e-7), 2e-9, 0.3, 1.0, 2.5])
        )
        rows.append((release, deadline, workload, 1.0))
    return Instance.from_tuples(rows, m=1, alpha=draw(st.sampled_from([2.0, 3.0])))


def oa_outcome(segments_fn, inst: Instance):
    """The executed segments, or the error raised, of one OA path."""
    try:
        return segments_fn(inst)[1]
    except InvalidParameterError as err:
        return repr(err)


#: (family, n) of the m=1 instances OA's batched loop is checked on.
OA_FAMILIES = [
    (slotted_instance, 250),
    (heavy_tail_instance, 120),
    (diurnal_instance, 150),
]


def finish_reports(inst: Instance) -> Counter:
    """How often ``oa_segments`` hears each job finish, per job id."""
    real = oa_module._execute_plan_prefix
    reports: Counter = Counter()

    def counting(plan, *, on_finish, **kwargs):
        def report(job: int) -> None:
            reports[job] += 1
            on_finish(job)

        real(plan, on_finish=report, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oa_module, "_execute_plan_prefix", counting)
        oa_outcome(oa_segments, inst)
    return reports


class TestOAEpochParity:
    @given(inst=oa_streams())
    @settings(max_examples=40, deadline=None)
    def test_generated_streams_match_from_scratch_replan(self, inst):
        assert oa_outcome(oa_segments, inst) == oa_outcome(
            oa_segments_reference, inst
        )

    @pytest.mark.parametrize("seed", [0, 7])
    def test_segments_bitwise_identical(self, seed):
        for family, n in OA_FAMILIES:
            inst = family(n, m=1, alpha=3.0, seed=seed)
            _, old = oa_segments_reference(inst)
            _, new = oa_segments(inst)
            assert new == old

    @given(inst=oa_streams())
    @settings(max_examples=40, deadline=None)
    def test_generated_streams_report_each_finish_at_most_once(self, inst):
        """The unfinished-job counter takes one decrement per finish: a
        plan job runs as one EDF segment per epoch, and a finished job
        is tombstoned before the next epoch plans."""
        assert max(finish_reports(inst).values(), default=0) <= 1

    @pytest.mark.parametrize("seed", [0, 7])
    def test_family_jobs_report_their_finish_exactly_once(self, seed):
        for family, n in OA_FAMILIES:
            inst = family(n, m=1, alpha=3.0, seed=seed)
            working = np.flatnonzero(
                inst.sorted_by_release().workloads > oa_module._WORK_TOL
            )
            reports = finish_reports(inst)
            assert sorted(reports) == working.tolist()
            assert set(reports.values()) == {1}

    def test_run_oa_schedule_identical(self):
        inst = slotted_instance(150, slots=25, m=1, alpha=3.0, seed=3)
        old = oa_reference_schedule(inst)
        new = run_oa(inst)
        assert np.array_equal(new.schedule.loads, old.loads)
        assert new.segments == tuple(oa_segments_reference(inst)[1])
        assert new.energy == old.energy
        assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
            schedule_to_dict(old)
        )


class TestEngineCacheIdentity:
    def test_record_version_pinned(self):
        # The feeds change HOW results are computed, never WHAT — a
        # version bump here would cold-start every cache for nothing.
        # (5 packs the record's columns as little-endian bytes; 4 was the
        # record-layout and key bump, results, not inputs, and the
        # instance digest; 3 was the exact water-fill's.)
        assert RECORD_VERSION == 5

    @pytest.mark.parametrize("algorithm", ["pd", "oa"])
    def test_evaluate_request_payload_identical(self, algorithm):
        """A record's schedule is the one the other feed (PD) or the
        from-scratch oracle (OA) computes."""
        inst = slotted_instance(40, slots=8, m=1, alpha=3.0, seed=2)
        payload = evaluate_request(RunRequest(algorithm, inst))
        if algorithm == "pd":
            other = run_epochs(inst).schedule
        else:
            other = oa_reference_schedule(inst)
        assert payload["schedule"] == schedule_to_dict(other)
        assert payload["cost"] == float(other.cost)

    def test_experiment_spec_rejects_unknown_batch_mode(self):
        with pytest.raises(TypeError, match="batch_mode"):
            ExperimentSpec(name="t", family="poisson", batch_mode="epoch")
