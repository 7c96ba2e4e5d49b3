"""Tests for admission-policy comparators (:mod:`repro.core.policies`).

The policies share PD's placement engine, so the tests concentrate on
admission semantics, grid re-expression correctness (energy must not
change when a sub-run is mapped onto the full grid), and the dominance
relations the decomposition predicts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import run_pd, solve_exact
from repro.core.policies import (
    run_accept_all,
    run_oracle_admission,
    run_reject_all,
    run_solo_threshold,
    run_with_admission,
)
from repro.engine import REGISTRY
from repro.errors import InvalidParameterError
from repro.model.job import Instance
from repro.workloads.random_instances import poisson_instance

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@pytest.fixture
def spread_instance() -> Instance:
    """Values straddling the admission threshold so policies diverge."""
    return Instance.from_tuples(
        [
            (0.0, 2.0, 1.0, 10.0),   # clearly worth finishing
            (0.0, 1.0, 2.0, 0.1),    # tight and nearly worthless
            (1.0, 3.0, 1.0, 5.0),    # worth it
            (1.5, 2.0, 1.5, 0.5),    # tight, marginal
            (2.0, 4.0, 0.5, 0.01),   # tiny value
        ],
        m=1,
        alpha=3.0,
    )


class TestBasicPolicies:
    def test_reject_all_cost_is_total_value(self, spread_instance):
        r = run_reject_all(spread_instance)
        assert r.admitted_ids == ()
        assert r.cost == pytest.approx(spread_instance.total_value)
        assert r.schedule.energy == 0.0

    def test_accept_all_finishes_everything(self, spread_instance):
        r = run_accept_all(spread_instance)
        r.schedule.validate()
        assert r.schedule.finished.all()
        assert r.schedule.lost_value == 0.0

    def test_solo_threshold_respects_rule(self, spread_instance):
        from repro.model.power import optimal_constant_speed_energy

        r = run_solo_threshold(spread_instance)
        ordered = spread_instance.sorted_by_release()
        c = ordered.alpha ** (ordered.alpha - 2.0)
        for j in range(ordered.n):
            solo = optimal_constant_speed_energy(
                ordered.alpha, ordered[j].workload, ordered[j].span
            )
            assert (j in r.admitted_ids) == (solo <= c * ordered[j].value)

    def test_solo_threshold_custom_factor(self, spread_instance):
        generous = run_solo_threshold(spread_instance, factor=1e9)
        stingy = run_solo_threshold(spread_instance, factor=1e-9)
        assert len(generous.admitted_ids) == spread_instance.n
        assert stingy.admitted_ids == ()
        with pytest.raises(InvalidParameterError):
            run_solo_threshold(spread_instance, factor=0.0)

    def test_oracle_matches_exact_acceptance(self, spread_instance):
        r = run_oracle_admission(spread_instance)
        sol = solve_exact(spread_instance.sorted_by_release())
        assert r.admitted_ids == tuple(sorted(sol.accepted))

    def test_admitted_id_range_checked(self, spread_instance):
        with pytest.raises(InvalidParameterError):
            run_with_admission(spread_instance, (99,), policy="x")


class TestGridReexpression:
    def test_energy_preserved_under_remap(self, spread_instance):
        """Placing a subset and re-expressing on the full grid must cost
        exactly what the sub-run cost (proportional splitting is
        energy-neutral)."""
        ids = (0, 2)
        r = run_with_admission(spread_instance, ids, policy="subset")
        ordered = spread_instance.sorted_by_release()
        sub = ordered.restrict(ids).with_values([1e30, 1e30])
        assert r.schedule.energy == pytest.approx(
            run_pd(sub).schedule.energy, rel=1e-9
        )
        r.schedule.validate()

    def test_work_conservation(self, spread_instance):
        r = run_with_admission(spread_instance, (0, 2, 3), policy="subset")
        ordered = spread_instance.sorted_by_release()
        done = r.schedule.work_done()
        for j in range(ordered.n):
            want = ordered[j].workload if j in r.admitted_ids else 0.0
            assert done[j] == pytest.approx(want, abs=1e-9)


class TestDominanceRelations:
    def test_every_policy_beats_neither_bound(self, spread_instance):
        """All policies land between the exact optimum and the trivial
        reject-all bound (accept-all may exceed reject-all on hostile
        values, so it is excluded from the upper check)."""
        opt = solve_exact(spread_instance).cost
        reject = run_reject_all(spread_instance).cost
        for fn in (run_solo_threshold, run_oracle_admission):
            cost = fn(spread_instance).cost
            assert opt - 1e-9 <= cost
            assert cost <= reject + 1e-9

    def test_oracle_admission_isolates_placement_regret(self, spread_instance):
        """With the optimal acceptance set, the only remaining gap to OPT
        is placement; it must be small on benign instances and PD (which
        also chooses admission) cannot beat OPT either."""
        opt = solve_exact(spread_instance).cost
        oracle = run_oracle_admission(spread_instance).cost
        pd_cost = run_pd(spread_instance).cost
        assert opt <= oracle + 1e-9
        assert opt <= pd_cost + 1e-9

    @given(seed=st.integers(min_value=0, max_value=12))
    @SETTINGS
    def test_dominance_random(self, seed):
        inst = poisson_instance(6, m=1, alpha=3.0, seed=seed)
        opt = solve_exact(inst).cost
        for name in ("solo-threshold", "oracle-admission", "reject-all"):
            outcome = REGISTRY.run(name, inst)
            assert outcome.cost >= opt - 1e-7
            outcome.schedule.validate()


class TestRegistry:
    def test_policies_available_via_runner(self, spread_instance):
        names = REGISTRY.names()
        for name in (
            "accept-all",
            "reject-all",
            "solo-threshold",
            "oracle-admission",
        ):
            assert name in names
            outcome = REGISTRY.run(name, spread_instance)
            assert outcome.cost >= 0.0
