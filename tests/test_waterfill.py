"""Tests for the exact water-filling step of PD."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.certificates import dual_certificate
from repro.chen.interval_power import job_speeds
from repro.core.waterfill import waterfill_job
from repro.errors import InvalidParameterError
from repro.model.power import PolynomialPower
from repro.perf.kernels import IntervalLoads, WindowKernel
from repro.perf.reference import waterfill_job_reference
from repro.workloads import WORKLOADS

POWER = PolynomialPower(3.0)
DELTA = POWER.optimal_delta


def kernel_for(loads_per_interval, m=1, lengths=None):
    """A ``WindowKernel`` with one interval per load list (zeros skipped),
    filled by insertion in id order as PD fills its live stores."""
    lengths = lengths or [1.0] * len(loads_per_interval)
    stores = []
    for loads in loads_per_interval:
        store = IntervalLoads()
        for job_id, load in enumerate(loads):
            if load > 0.0:
                store.insert(job_id, load)
        stores.append(store)
    return WindowKernel(stores, lengths, m)


class TestAcceptance:
    def test_empty_machine_single_interval(self):
        out = waterfill_job(
            kernel_for([[]]), workload=2.0, value=np.inf, delta=DELTA, power=POWER
        )
        assert out.accepted
        np.testing.assert_allclose(out.loads, [2.0])
        assert out.speed == pytest.approx(2.0)
        assert out.lam == pytest.approx(DELTA * 2.0 * POWER.derivative(2.0))

    def test_spreads_evenly_over_identical_intervals(self):
        out = waterfill_job(
            kernel_for([[], [], []]),
            workload=3.0,
            value=np.inf,
            delta=DELTA,
            power=POWER,
        )
        assert out.accepted
        np.testing.assert_allclose(out.loads, [1.0, 1.0, 1.0], rtol=1e-9)

    def test_prefers_cheaper_interval(self):
        # Interval 0 already carries load 2, interval 1 is empty: new work
        # should flow to interval 1 until marginals equalize.
        out = waterfill_job(
            kernel_for([[2.0], []]),
            workload=1.0,
            value=np.inf,
            delta=DELTA,
            power=POWER,
        )
        assert out.accepted
        assert out.loads[1] > out.loads[0]
        assert out.loads.sum() == pytest.approx(1.0)

    def test_marginals_equalized_on_support(self):
        existing = [1.5, 0.3, 4.0]
        out = waterfill_job(
            kernel_for([[load] for load in existing]),
            workload=2.0,
            value=np.inf,
            delta=DELTA,
            power=POWER,
        )
        assert out.accepted
        # Recompute realized speeds per interval; the marginal price
        # delta*w*P'(s) must be equal on every interval receiving load
        # and no lower on the others.
        speeds = []
        for base, z in zip(existing, out.loads):
            s = job_speeds(np.array([base, z]), 1, 1.0)[1] if z > 1e-12 else None
            speeds.append(s)
        priced = [s for s in speeds if s is not None]
        assert max(priced) - min(priced) < 1e-6

    def test_respects_interval_lengths(self):
        # A longer interval absorbs proportionally more load at the same
        # speed.
        out = waterfill_job(
            kernel_for([[], []], lengths=[1.0, 3.0]),
            workload=4.0,
            value=np.inf,
            delta=DELTA,
            power=POWER,
        )
        assert out.accepted
        np.testing.assert_allclose(out.loads, [1.0, 3.0], rtol=1e-8)

    def test_multiprocessor_pool_entry(self):
        # m=2 with one heavy job: the new job gets the second processor
        # almost for free until it reaches the pool level.
        out = waterfill_job(
            kernel_for([[10.0]], m=2),
            workload=1.0,
            value=np.inf,
            delta=DELTA,
            power=POWER,
        )
        assert out.accepted
        assert out.speed == pytest.approx(1.0)  # alone on processor 2

    def test_workload_exactly_placed(self):
        out = waterfill_job(
            kernel_for([[0.5], [1.0], [2.0], [0.1]]),
            workload=3.3,
            value=np.inf,
            delta=DELTA,
            power=POWER,
        )
        assert out.accepted
        assert out.loads.sum() == pytest.approx(3.3, rel=1e-9)


class TestRejection:
    def test_low_value_rejected(self):
        # Placing workload 1 on an empty unit interval costs ~1 energy;
        # value far below that must be rejected.
        out = waterfill_job(
            kernel_for([[]]), workload=1.0, value=1e-6, delta=DELTA, power=POWER
        )
        assert not out.accepted
        assert out.lam == pytest.approx(1e-6)
        assert out.planned_work < 1.0

    def test_rejection_keeps_planned_loads(self):
        out = waterfill_job(
            kernel_for([[], []]), workload=5.0, value=0.01, delta=DELTA, power=POWER
        )
        assert not out.accepted
        assert out.loads.shape == (2,)
        assert 0.0 < out.planned_work < 5.0

    def test_zero_value_rejects_instantly(self):
        out = waterfill_job(
            kernel_for([[]]), workload=1.0, value=0.0, delta=DELTA, power=POWER
        )
        assert not out.accepted
        assert out.planned_work == 0.0

    def test_no_intervals_rejects(self):
        out = waterfill_job(
            kernel_for([]), workload=1.0, value=10.0, delta=DELTA, power=POWER
        )
        assert not out.accepted
        assert out.lam == 10.0

    def test_borderline_value_accepted(self):
        # Energy to place workload 1 alone is exactly 1; with the optimal
        # delta the job is accepted iff planned energy <= alpha^(alpha-2)v,
        # i.e. v >= 1/3 for alpha = 3.
        threshold = 1.0 / POWER.rejection_energy_factor
        accept = waterfill_job(
            kernel_for([[]]),
            workload=1.0,
            value=threshold * 1.01,
            delta=DELTA,
            power=POWER,
        )
        reject = waterfill_job(
            kernel_for([[]]),
            workload=1.0,
            value=threshold * 0.99,
            delta=DELTA,
            power=POWER,
        )
        assert accept.accepted
        assert not reject.accepted


class TestValidationAndProperties:
    def test_bad_workload(self):
        with pytest.raises(InvalidParameterError):
            waterfill_job(
                kernel_for([[]]), workload=0.0, value=1.0, delta=DELTA, power=POWER
            )

    def test_bad_delta(self):
        with pytest.raises(InvalidParameterError):
            waterfill_job(
                kernel_for([[]]), workload=1.0, value=1.0, delta=0.0, power=POWER
            )

    @pytest.mark.parametrize("workload", [np.nan, np.inf, -np.inf, -1.0])
    def test_hostile_workload_raises(self, workload):
        with pytest.raises(InvalidParameterError, match="workload"):
            waterfill_job(
                kernel_for([[0.5]]),
                workload=workload,
                value=1.0,
                delta=DELTA,
                power=POWER,
            )

    @pytest.mark.parametrize("value", [np.nan, -1.0, -np.inf])
    def test_hostile_value_raises(self, value):
        with pytest.raises(InvalidParameterError, match="value"):
            waterfill_job(
                kernel_for([[0.5]]),
                workload=1.0,
                value=value,
                delta=DELTA,
                power=POWER,
            )

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -1.0])
    def test_hostile_delta_raises(self, delta):
        with pytest.raises(InvalidParameterError, match="delta"):
            waterfill_job(
                kernel_for([[0.5]]),
                workload=1.0,
                value=1.0,
                delta=delta,
                power=POWER,
            )

    @given(
        existing=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=4),
            min_size=1,
            max_size=5,
        ),
        workload=st.floats(min_value=0.05, max_value=10.0),
        m=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_accepted_loads_sum_to_workload(self, existing, workload, m):
        out = waterfill_job(
            kernel_for(existing, m=m),
            workload=workload,
            value=np.inf,
            delta=DELTA,
            power=POWER,
        )
        assert out.accepted
        assert out.loads.sum() == pytest.approx(workload, rel=1e-8)
        assert np.all(out.loads >= -1e-12)

    @given(
        workload=st.floats(min_value=0.05, max_value=5.0),
        value=st.floats(min_value=1e-4, max_value=1e4),
    )
    @settings(max_examples=150, deadline=None)
    def test_lambda_never_exceeds_value(self, workload, value):
        out = waterfill_job(
            kernel_for([[0.7], [0.1]]),
            workload=workload,
            value=value,
            delta=DELTA,
            power=POWER,
        )
        assert out.lam <= value * (1.0 + 1e-9)

    @given(v1=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_acceptance_monotone_in_value(self, v1):
        """If a job is accepted at value v it stays accepted at 2v."""
        kwargs = dict(workload=1.3, delta=DELTA, power=POWER)
        a = waterfill_job(kernel_for([[1.0], []]), value=v1, **kwargs)
        b = waterfill_job(kernel_for([[1.0], []]), value=2 * v1, **kwargs)
        if a.accepted:
            assert b.accepted


@st.composite
def windows(draw):
    """A job window with the shapes the clearing-speed solve branches on:
    empty intervals, exactly m - 1 loads (a free processor), at least m
    loads, and tied loads."""
    m = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=40))
    size = st.floats(min_value=1e-2, max_value=1e2)
    rows, lengths = [], []
    for _ in range(k):
        p = draw(
            st.sampled_from([0, m - 1, m, m + 1])
            | st.integers(min_value=0, max_value=2 * m + 2)
        )
        loads = draw(st.lists(size, min_size=p, max_size=p))
        if p >= 2 and draw(st.booleans()):
            loads[1] = loads[0]
        rows.append(loads)
        lengths.append(draw(size))
    return m, rows, lengths


class TestClearingSpeedProperty:
    """The closed-form solve against the bisecting oracle it replaced:
    accepted fills place their workload to within 1e-11 and price near
    the oracle's speed; rejections are the oracle's bit for bit."""

    @given(
        window=windows(),
        workload=st.floats(min_value=1e-2, max_value=1e2),
        value=st.floats(min_value=1e-3, max_value=1e4) | st.just(np.inf),
        alpha=st.sampled_from([2.0, 3.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_within_tolerance(
        self, window, workload, value, alpha
    ):
        m, rows, lengths = window
        power = PolynomialPower(alpha)
        kwargs = dict(
            workload=workload, value=value, delta=power.optimal_delta, power=power
        )
        new = waterfill_job(kernel_for(rows, m, lengths), **kwargs)
        old = waterfill_job_reference(kernel_for(rows, m, lengths), **kwargs)
        assert new.accepted == old.accepted
        if new.accepted:
            placed = sum(new.loads.tolist())
            assert abs(placed - workload) <= 1e-11 * workload
            assert new.speed == pytest.approx(old.speed, rel=1e-10)
        else:
            assert new.speed == old.speed
            assert new.lam == old.lam
            assert np.array_equal(new.loads, old.loads)


class TestOracleRunParity:
    """``run_pd`` on the exact water-fill against ``run_pd`` with the
    bisecting oracle patched in, on every registered family: the same
    decisions, costs within 1e-9 relative, and the Theorem 3
    certificate within ``alpha**alpha``."""

    @pytest.mark.parametrize("family", WORKLOADS.names())
    def test_every_family(self, family, monkeypatch):
        from repro.core import pd

        for m in (1, 4):
            instance = WORKLOADS.build(family, 120, seed=0, m=m, alpha=3.0)
            new = pd.run_pd(instance)
            with monkeypatch.context() as patch:
                patch.setattr(pd, "waterfill_job", waterfill_job_reference)
                old = pd.run_pd(instance)
            assert np.array_equal(new.accepted_mask, old.accepted_mask)
            assert new.cost == pytest.approx(old.cost, rel=1e-9)
            certificate = dual_certificate(new)
            assert certificate.ratio <= certificate.bound
