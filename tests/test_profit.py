"""Tests for the Pruhs–Stein profit substrate (:mod:`repro.profit`).

Checks the profit/loss complementarity identity on every kind of schedule
the library produces, the closed forms of the margin-erosion family, the
impossibility phenomenon (profit ratio ~ 1/margin), and the exactness of
the resource-augmentation change of variables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import run_pd, solve_exact
from repro.errors import InvalidParameterError
from repro.model.job import Instance
from repro.profit import (
    bait_value,
    loss_profit_gap,
    opt_profit_lower_bound,
    optimal_profit,
    pd_energy_closed_form,
    profit_of,
    profit_of_result,
    run_pd_augmented,
    vanishing_margin_instance,
)
from repro.workloads.random_instances import poisson_instance

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Profit accounting and the complementarity identity
# ---------------------------------------------------------------------------
class TestProfitModel:
    def test_breakdown_fields(self, profitable_instance):
        result = run_pd(profitable_instance)
        p = profit_of_result(result)
        assert p.earned_value == pytest.approx(
            float(
                result.schedule.instance.values[result.accepted_mask].sum()
            )
        )
        assert p.energy == pytest.approx(result.schedule.energy)
        assert p.profit == pytest.approx(p.earned_value - p.energy)

    def test_complementarity_identity_pd(self, profitable_instance):
        result = run_pd(profitable_instance)
        assert loss_profit_gap(result.schedule) < 1e-9
        p = profit_of(result.schedule)
        assert p.loss == pytest.approx(result.schedule.cost)

    def test_complementarity_identity_offline(self, profitable_instance):
        sol = solve_exact(profitable_instance)
        assert loss_profit_gap(sol.schedule) < 1e-9

    def test_empty_schedule_profit_zero(self, profitable_instance):
        from repro.model.intervals import grid_for_instance
        from repro.model.schedule import Schedule

        empty = Schedule.empty(
            profitable_instance, grid_for_instance(profitable_instance)
        )
        p = profit_of(empty)
        assert p.profit == 0.0
        assert p.loss == pytest.approx(profitable_instance.total_value)

    def test_optimal_profit_complement_of_exact_cost(self, profitable_instance):
        opt_p = optimal_profit(profitable_instance)
        sol = solve_exact(profitable_instance)
        assert opt_p == pytest.approx(
            profitable_instance.total_value - sol.cost
        )

    def test_optimal_profit_never_negative(self):
        # A single job so expensive that finishing it always loses money.
        inst = Instance.from_tuples([(0.0, 1.0, 10.0, 0.5)], m=1, alpha=3.0)
        assert optimal_profit(inst) >= 0.0

    @given(seed=st.integers(min_value=0, max_value=20))
    @SETTINGS
    def test_identity_random(self, seed):
        inst = poisson_instance(6, m=2, alpha=2.5, seed=seed)
        result = run_pd(inst)
        assert loss_profit_gap(result.schedule) < 1e-9
        # Profit of PD never exceeds the offline optimum.
        assert profit_of_result(result).profit <= optimal_profit(inst) + 1e-7


# ---------------------------------------------------------------------------
# The margin-erosion family (Pruhs–Stein impossibility)
# ---------------------------------------------------------------------------
class TestVanishingMargin:
    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("margin", [0.5, 0.1, 0.01])
    def test_pd_profit_equals_margin(self, alpha, margin):
        inst = vanishing_margin_instance(margin, alpha)
        result = run_pd(inst)
        assert result.accepted_mask.tolist() == [True, True]
        p = profit_of_result(result)
        assert p.energy == pytest.approx(pd_energy_closed_form(alpha), rel=1e-9)
        assert p.profit == pytest.approx(margin, rel=1e-6)

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
    def test_opt_profit_matches_lower_bound(self, alpha):
        margin = 0.05
        inst = vanishing_margin_instance(margin, alpha)
        opt = optimal_profit(inst)
        lb = opt_profit_lower_bound(alpha, margin)
        assert opt >= lb - 1e-7
        # The two explicit strategies are in fact optimal here.
        assert opt == pytest.approx(lb, rel=1e-6)

    def test_ratio_unbounded_as_margin_vanishes(self):
        alpha = 3.0
        ratios = []
        for margin in (0.1, 0.01, 0.001):
            inst = vanishing_margin_instance(margin, alpha)
            pd_profit = profit_of_result(run_pd(inst)).profit
            ratios.append(optimal_profit(inst) / pd_profit)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 1000.0

    def test_bait_clears_threshold(self):
        for alpha in (2.0, 2.25, 2.5, 3.0, 3.5):
            planned = 0.5 ** (alpha - 1.0)
            assert planned <= alpha ** (alpha - 2.0) * bait_value(alpha)

    def test_squeeze_clears_threshold_across_sweep(self):
        for alpha in (2.0, 2.5, 3.0):
            for margin in (0.001, 0.01, 0.1, 0.5):
                inst = vanishing_margin_instance(margin, alpha)
                squeeze = inst.jobs[1]
                planned = 1.5 ** (alpha - 1.0)
                assert planned <= alpha ** (alpha - 2.0) * squeeze.value

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            vanishing_margin_instance(0.0, 3.0)
        with pytest.raises(InvalidParameterError):
            vanishing_margin_instance(-1.0, 3.0)
        with pytest.raises(InvalidParameterError):
            vanishing_margin_instance(0.1, 1.5)  # trap degenerates below 2

    def test_loss_competitiveness_still_fine_on_trap(self):
        """The same runs that are terrible for profit stay comfortably
        inside the paper's loss guarantee — the dichotomy in one test."""
        from repro import dual_certificate

        alpha = 3.0
        inst = vanishing_margin_instance(0.001, alpha)
        result = run_pd(inst)
        cert = dual_certificate(result)
        assert cert.holds
        # Loss ratio sits comfortably inside alpha^alpha = 27 even though
        # the profit ratio on the very same run exceeds 1000.
        loss_ratio = result.cost / solve_exact(inst).cost
        assert loss_ratio < alpha**alpha / 2.0


# ---------------------------------------------------------------------------
# Resource augmentation
# ---------------------------------------------------------------------------
class TestAugmentation:
    def test_epsilon_zero_is_plain_pd(self, profitable_instance):
        plain = run_pd(profitable_instance)
        aug = run_pd_augmented(profitable_instance, 0.0)
        assert aug.energy == pytest.approx(plain.schedule.energy)
        assert aug.earned_value == pytest.approx(
            profit_of_result(plain).earned_value
        )
        assert np.array_equal(aug.inner.accepted_mask, plain.accepted_mask)

    def test_negative_epsilon_rejected(self, profitable_instance):
        with pytest.raises(InvalidParameterError):
            run_pd_augmented(profitable_instance, -0.1)

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
    def test_non_finite_epsilon_rejected_through_the_registry(
        self, epsilon, profitable_instance
    ):
        """Not an error deep in the shrunk instance's job checks: the
        canonical parameter error, naming epsilon."""
        from repro.engine import REGISTRY

        with pytest.raises(InvalidParameterError, match="epsilon"):
            REGISTRY.run(f"pd-aug?epsilon={epsilon}", profitable_instance)
        with pytest.raises(InvalidParameterError, match="epsilon"):
            run_pd_augmented(profitable_instance, float(epsilon))

    def test_energy_closed_form_on_trap(self):
        """Same acceptance => energy scales by (1+eps)**(-alpha) on each
        committed speed... times unchanged durations: total scales by
        (1+eps)**(-alpha) * (1+eps) work change — net (1+eps)**(1-alpha)
        relative to the continuous closed form? No: workloads shrink by
        (1+eps), speeds shrink by (1+eps), power by (1+eps)**alpha. The
        durations are unchanged, so energy scales by (1+eps)**(-alpha)."""
        alpha, eps = 3.0, 0.25
        inst = vanishing_margin_instance(0.01, alpha)
        aug = run_pd_augmented(inst, eps)
        assert aug.inner.accepted_mask.all()
        expected = pd_energy_closed_form(alpha) / (1.0 + eps) ** alpha
        assert aug.energy == pytest.approx(expected, rel=1e-9)

    def test_augmentation_restores_constant_profit_on_trap(self):
        alpha, eps = 3.0, 0.3
        profits = []
        for margin in (0.1, 0.01, 0.001):
            inst = vanishing_margin_instance(margin, alpha)
            profits.append(run_pd_augmented(inst, eps).profit.profit)
        # Profit stays bounded away from zero as the margin vanishes.
        assert all(p > 1.5 for p in profits)
        # And the profit ratio vs the unaugmented optimum stays O(1).
        for margin, p in zip((0.1, 0.01, 0.001), profits):
            opt = optimal_profit(vanishing_margin_instance(margin, alpha))
            assert opt / p < 2.0

    def test_augmented_profit_at_least_plain_on_trap(self):
        inst = vanishing_margin_instance(0.05, 3.0)
        plain = profit_of_result(run_pd(inst)).profit
        for eps in (0.1, 0.2, 0.5, 1.0):
            assert run_pd_augmented(inst, eps).profit.profit > plain

    def test_summary_mentions_epsilon(self, profitable_instance):
        text = run_pd_augmented(profitable_instance, 0.2).summary()
        assert "eps=0.2" in text and "accepted" in text

    @given(
        seed=st.integers(min_value=0, max_value=10),
        eps=st.sampled_from([0.0, 0.1, 0.5]),
    )
    @SETTINGS
    def test_augmented_energy_never_exceeds_plain_for_same_acceptance(
        self, seed, eps
    ):
        inst = poisson_instance(6, m=1, alpha=3.0, seed=seed)
        plain = run_pd(inst)
        aug = run_pd_augmented(inst, eps)
        if np.array_equal(aug.inner.accepted_mask, plain.accepted_mask):
            assert aug.energy <= plain.schedule.energy + 1e-9
        # Either way the inner run still carries its loss certificate.
        from repro import dual_certificate

        assert dual_certificate(aug.inner).holds
