"""Differential tests: CLL on the lazy OA planner vs its full-replan twin.

:func:`repro.core.cll.run_cll` admits with YDS rounds generated only up
to the candidate's round and executes through OA's lazy prefix planner,
reusing the last admission's rounds when their inputs match.
:func:`repro.perf.reference.run_cll_reference` is the historical loop
with two full ``oa_plan`` replans per release epoch. Wherever the
reference returns, the two must agree bit for bit: grid, loads,
``finished``, planned speeds, admission thresholds, cost, and the
registry certificate's ``g``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.cll as cll
from repro.classical.oa import run_oa
from repro.core.cll import run_cll
from repro.engine.registry import REGISTRY
from repro.errors import InvalidParameterError
from repro.model.job import Instance
from repro.perf.reference import run_cll_reference
from repro.workloads import named_families

_FAMILIES = sorted(named_families())


def assert_bitwise_equal(fast, slow) -> None:
    a, b = fast.schedule, slow.schedule
    assert np.array_equal(a.grid.boundaries, b.grid.boundaries)
    assert np.array_equal(a.loads, b.loads)
    assert np.array_equal(a.finished, b.finished)
    assert np.array_equal(fast.planned_speeds, slow.planned_speeds)
    assert np.array_equal(fast.admission_thresholds, slow.admission_thresholds)
    assert fast.cost == slow.cost


def certificate_g(result) -> float:
    return REGISTRY.info("cll").certificate(result).g


def count_plans(monkeypatch) -> list[int]:
    """Count the lazy plans ``run_cll`` builds (admission + execution)."""
    built = [0]
    base = cll._LazyPlan

    class Counting(base):
        __slots__ = ()

        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(cll, "_LazyPlan", Counting)
    return built


class TestFamilyParity:
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_bitwise_parity(self, family, alpha):
        generate = named_families()[family]
        for n in (1, 2, 20, 200):
            for seed in (0, 1):
                inst = generate(n, m=1, alpha=alpha, seed=seed)
                fast, slow = run_cll(inst), run_cll_reference(inst)
                assert_bitwise_equal(fast, slow)
                assert certificate_g(fast) == certificate_g(slow)


class TestRoundReuse:
    def test_admitted_last_candidate_reuses_rounds(self, monkeypatch):
        built = count_plans(monkeypatch)
        # One epoch, both candidates admitted: the execution plan has the
        # second admission's inputs, so no third plan is built.
        inst = Instance.from_tuples(
            [(0.0, 2.0, 1.0, 50.0), (0.0, 3.0, 1.0, 50.0)], m=1, alpha=3.0
        )
        fast = run_cll(inst)
        assert fast.accepted_mask.all()
        assert built[0] == 2
        assert_bitwise_equal(fast, run_cll_reference(inst))

    def test_rejected_last_candidate_replans(self, monkeypatch):
        built = count_plans(monkeypatch)
        inst = Instance.from_tuples(
            [(0.0, 2.0, 1.0, 50.0), (0.0, 3.0, 1.0, 1e-6)], m=1, alpha=3.0
        )
        fast = run_cll(inst)
        assert fast.accepted_mask.tolist() == [True, False]
        assert built[0] == 3
        assert_bitwise_equal(fast, run_cll_reference(inst))

    def test_rounds_past_the_candidate_are_generated_for_execution(
        self, monkeypatch
    ):
        built = count_plans(monkeypatch)
        # At epoch 1 the admitted candidate is frozen in the first round,
        # [1, 2], but the next arrival is at 5: execution continues the
        # reused plan into job 0's round, which admission never generated.
        inst = Instance.from_tuples(
            [(0.0, 10.0, 1.0, 50.0), (1.0, 2.0, 3.0, 50.0), (5.0, 6.0, 1.0, 9.0)],
            m=1,
            alpha=3.0,
        )
        fast = run_cll(inst)
        assert fast.accepted_mask.all()
        assert built[0] == 3
        grid = fast.schedule.grid
        after = grid.boundaries[:-1] >= 2.0
        assert fast.schedule.loads[0, after].sum() > 0.0
        assert_bitwise_equal(fast, run_cll_reference(inst))


class TestNearEpochReleases:
    PINNED = [
        (1.0, 3.0, 2.0, 50.0),
        (1.0 + 4e-13, 2.5, 1.0, 0.2),
        (2.0, 4.0, 1.0, 30.0),
    ]

    def test_both_epochs_admit_both_early_jobs(self, monkeypatch):
        tested: list[tuple[float, float]] = []
        admits = cll.cll_admits

        def recording(*, workload, value, planned_speed, alpha):
            tested.append((workload, value))
            return admits(
                workload=workload,
                value=value,
                planned_speed=planned_speed,
                alpha=alpha,
            )

        monkeypatch.setattr(cll, "cll_admits", recording)
        inst = Instance.from_tuples(self.PINNED, m=1, alpha=3.0)
        fast = run_cll(inst)
        # Epochs 1.0 and 1.0000000000004 each test jobs 0 and 1.
        assert tested == [
            (2.0, 50.0),
            (1.0, 0.2),
            (2.0, 50.0),
            (1.0, 0.2),
            (1.0, 30.0),
        ]
        assert fast.accepted_mask.tolist() == [True, False, True]
        slow = run_cll_reference(inst)
        assert_bitwise_equal(fast, slow)
        assert certificate_g(fast) == certificate_g(slow)


    def test_late_admission_executes_in_admission_order(self, monkeypatch):
        # Job 0's deadline passes between the epochs 1.0 and
        # 1.0000000000004, which lowers job 1's planned speed: rejected at
        # the first epoch, admitted at the second, after job 2. Execution
        # then lists job 2 before job 1, as the twin's dict order does.
        orders: list[list[int]] = []
        execute = cll._execute_plan_prefix

        def recording(plan, **kwargs):
            orders.append(list(plan.alive))
            return execute(plan, **kwargs)

        monkeypatch.setattr(cll, "_execute_plan_prefix", recording)
        inst = Instance.from_tuples(
            [
                (1.0, 1.0 + 1.2e-12, 10.0, 1e40),
                (1.0 + 4e-13, 1.0 + 3e-12, 1.0, 7e22),
                (1.0 + 4e-13, 5.0, 1.0, 1e30),
            ],
            m=1,
            alpha=3.0,
        )
        fast = run_cll(inst)
        assert orders == [[0, 2], [2, 1]]
        slow = run_cll_reference(inst)
        assert_bitwise_equal(fast, slow)
        assert certificate_g(fast) == certificate_g(slow)


class TestPlanlessArrivals:
    """A job whose workload is within the work tolerance has nothing to
    plan. OA, PD, YDS and qOA finish it at zero cost; CLL plans it at
    speed 0. The reference twin raises instead when nothing else is
    alive — the one place the two differ."""

    CASES = [
        [(0.0, 1.0, 1e-10, 5.0)],
        [(0.0, 1.0, 1e-10, 5.0), (2.0, 3.0, 1.0, 5.0)],
    ]

    @pytest.mark.parametrize("rows", CASES)
    def test_planless_job_is_admitted_at_speed_zero(self, rows):
        inst = Instance.from_tuples(rows, m=1, alpha=3.0)
        result = run_cll(inst)
        assert result.accepted_mask.all()
        assert result.planned_speeds[0] == 0.0
        assert result.cost == run_oa(inst).cost
        with pytest.raises(InvalidParameterError, match="no remaining work"):
            run_cll_reference(inst)

    def test_planless_job_beside_live_work_matches_reference(self):
        # Arrival order is (release, deadline): the planless job comes
        # second, when the first is already alive.
        inst = Instance.from_tuples(
            [(0.0, 2.0, 1.0, 50.0), (0.0, 3.0, 1e-10, 5.0)], m=1, alpha=3.0
        )
        fast = run_cll(inst)
        assert fast.accepted_mask.all()
        assert fast.planned_speeds[1] == 0.0
        assert_bitwise_equal(fast, run_cll_reference(inst))


@st.composite
def cll_instances(draw):
    """Small profitable instances aimed at CLL's fragile bookkeeping:
    same-release bursts, tied deadlines, releases within the epoch
    tolerance of each other, zero and huge values, and workloads at and
    just above the work tolerance."""
    anchors = draw(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), min_size=1, max_size=3)
    )
    deadline_pool = draw(
        st.lists(st.sampled_from([1.0, 2.5, 4.0, 6.0]), min_size=1, max_size=3)
    )
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        release = draw(st.sampled_from(anchors)) + draw(
            st.sampled_from([0.0, 0.0, 4e-13, 8e-13, 1.5e-12])
        )
        tied = [d for d in deadline_pool if d > release]
        if tied and draw(st.booleans()):
            deadline = draw(st.sampled_from(tied))
        else:
            deadline = release + draw(
                st.sampled_from([0.25, 1.0, 3.0])
                | st.floats(0.01, 5.0, allow_nan=False, allow_infinity=False)
            )
        workload = draw(
            st.sampled_from([1e-9, 1.0000001e-9, 2e-9, 1e-6, 1e6])
            | st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False)
        )
        value = draw(
            st.sampled_from([0.0, 1e30])
            | st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
        )
        rows.append((release, deadline, workload, value))
    alpha = draw(st.sampled_from([2.0, 3.0]))
    return Instance.from_tuples(rows, m=1, alpha=alpha)


class TestCLLDifferentialProperty:
    @given(inst=cll_instances())
    @example(inst=Instance.from_tuples(TestNearEpochReleases.PINNED, m=1, alpha=3.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_wherever_it_returns(self, inst):
        try:
            slow = run_cll_reference(inst)
        except InvalidParameterError as err:
            # The twin's one deliberate divergence: a planless arrival
            # with nothing else alive. run_cll plans it at speed 0.
            assert "no remaining work" in str(err)
            run_cll(inst)
            return
        fast = run_cll(inst)
        assert_bitwise_equal(fast, slow)
        assert certificate_g(fast) == certificate_g(slow)
