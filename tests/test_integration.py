"""End-to-end integration tests across the whole stack.

Each test exercises several subsystems together: generators -> online
algorithms -> schedules -> realizations -> validators -> certificates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    dual_certificate,
    run_algorithm,
    run_cll,
    run_pd,
    schedule_metrics,
    solve_exact,
    solve_min_energy,
    yds,
)
from repro.analysis import check_proposition7, lemma_bounds
from repro.model.validation import validate_segments
from repro.workloads import (
    diurnal_instance,
    heavy_tail_instance,
    lower_bound_instance,
    poisson_instance,
)


class TestFullPipeline:
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_pd_pipeline_certified(self, m, alpha):
        inst = poisson_instance(20, m=m, alpha=alpha, seed=99)
        result = run_pd(inst)
        # Schedule level.
        result.schedule.validate()
        # Realization level.
        segments = [
            seg for isched in result.schedule.realize() for seg in isched.segments
        ]
        validate_segments(segments, m=m)
        # Analysis level.
        cert = dual_certificate(result).require()
        assert lemma_bounds(result, cert).holds
        assert check_proposition7(result) == []

    def test_datacenter_day_all_algorithms(self):
        inst = diurnal_instance(30, m=4, alpha=3.0, seed=0)
        pd = run_pd(inst)
        pd.schedule.validate()
        cert = dual_certificate(pd).require()
        metrics = schedule_metrics(pd.schedule)
        assert metrics.cost == pytest.approx(pd.cost)
        assert 0 < metrics.accepted <= inst.n

    def test_profitable_vs_classical_cost_ordering(self):
        """PD with values never pays more than the finish-everything cost
        and never less than the offline optimum."""
        inst = heavy_tail_instance(10, m=1, alpha=2.0, seed=2)
        pd_cost = run_pd(inst).cost
        finish_all = solve_min_energy(inst.sorted_by_release()).energy
        opt = solve_exact(inst.sorted_by_release()).cost
        assert opt <= pd_cost * (1.0 + 1e-9)
        # PD could have chosen to finish everything; its online choice may
        # be worse than the offline finish-all only up to the ratio.
        assert pd_cost <= 2.0**2.0 * opt * (1.0 + 1e-6)
        del finish_all  # ordering vs finish_all is instance-dependent

    def test_single_vs_multi_processor_scaling(self):
        inst = poisson_instance(25, m=1, alpha=3.0, seed=17)
        costs = {}
        for m in [1, 2, 4, 8, 16]:
            result = run_pd(inst.with_machine(m=m))
            dual_certificate(result).require()
            costs[m] = result.cost
        values = [costs[m] for m in [1, 2, 4, 8, 16]]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))

    def test_registry_cross_comparison_classical(self):
        """On a must-finish instance: YDS <= every online algorithm."""
        inst = poisson_instance(8, m=1, alpha=3.0, seed=4).with_values([1e12] * 8)
        opt = run_algorithm("yds", inst).energy
        for name in ["oa", "avr", "bkp", "qoa", "pd"]:
            online = run_algorithm(name, inst).energy
            assert online >= opt * (1.0 - 1e-9), name

    def test_pd_vs_cll_single_processor(self):
        inst = heavy_tail_instance(12, m=1, alpha=3.0, seed=5)
        pd = run_pd(inst)
        cll = run_cll(inst.sorted_by_release())
        # Both carry valid schedules and comparable costs.
        pd.schedule.validate()
        cll.schedule.validate()
        assert pd.cost <= 10 * cll.cost
        assert cll.cost <= 10 * pd.cost

    def test_lower_bound_family_ratio_trajectory(self):
        alpha = 2.0
        ratios = []
        for n in [2, 4, 8, 16]:
            inst = lower_bound_instance(n, alpha)
            ratios.append(run_pd(inst).cost / yds(inst).energy)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] <= alpha**alpha

    def test_work_conservation_end_to_end(self):
        inst = poisson_instance(15, m=2, alpha=2.5, seed=6)
        result = run_pd(inst)
        done = result.schedule.work_done()
        w = result.schedule.instance.workloads
        for j in range(inst.n):
            if result.accepted_mask[j]:
                assert done[j] == pytest.approx(w[j], rel=1e-7)
            else:
                assert done[j] == pytest.approx(0.0, abs=1e-9)

    def test_idempotent_runs(self):
        inst = poisson_instance(10, m=2, alpha=3.0, seed=7)
        r1, r2 = run_pd(inst), run_pd(inst)
        assert r1.cost == r2.cost
        np.testing.assert_array_equal(r1.accepted_mask, r2.accepted_mask)
        np.testing.assert_allclose(r1.lambdas, r2.lambdas)


class TestExtensionCrossCutting:
    """Cross-cutting invariants over the extension layer."""

    def test_profit_loss_complementarity_all_algorithms(self):
        """profit + loss = total value for every registered algorithm's
        schedule — the identity is schedule-level, so no algorithm can
        break it without corrupting its schedule."""
        from repro.core import available_algorithms, run_algorithm
        from repro.profit import loss_profit_gap

        inst = poisson_instance(6, m=1, alpha=3.0, seed=11)
        for name in available_algorithms():
            outcome = run_algorithm(name, inst)
            assert loss_profit_gap(outcome.schedule) < 1e-6, name

    def test_every_registry_algorithm_validates(self):
        from repro.core import available_algorithms, run_algorithm

        from repro.errors import InvalidParameterError

        inst = poisson_instance(5, m=2, alpha=3.0, seed=12)
        single_proc_only = set()
        for name in available_algorithms():
            try:
                outcome = run_algorithm(name, inst)
            except InvalidParameterError:
                single_proc_only.add(name)
                continue
            outcome.schedule.validate(strict_finish=True)
        # Exactly the algorithms documented as single-processor refuse.
        assert single_proc_only == {"cll", "bkp", "qoa", "yds"}

    def test_discrete_roundtrip_of_offline_optimum(self):
        """The discretizer accepts any library schedule, including the
        exact offline optimum's."""
        from repro.discrete import discretize_schedule, SpeedSet
        from repro.offline.optimal import solve_exact

        inst = poisson_instance(5, m=2, alpha=3.0, seed=13)
        sol = solve_exact(inst)
        speeds = sol.schedule.processor_speed_matrix()
        top = float(speeds.max()) if speeds.size else 1.0
        menu = SpeedSet.geometric(max(top * 0.01, 1e-6), top * 1.01, 12)
        disc = discretize_schedule(sol.schedule, menu)
        disc.validate()
        assert disc.energy >= sol.schedule.energy - 1e-9

    def test_flow_oracle_confirms_pd_acceptance_feasible(self):
        """Whatever PD accepts must be feasible at *some* uniform speed;
        the Horn oracle independently confirms it (and the minimal such
        speed is at most PD's own peak)."""
        from repro.offline.flow import (
            check_feasible_at_speed,
            minimal_uniform_speed,
        )

        inst = poisson_instance(7, m=2, alpha=3.0, seed=14)
        result = run_pd(inst)
        accepted = tuple(
            int(j) for j in np.nonzero(result.accepted_mask)[0]
        )
        if not accepted:
            pytest.skip("nothing accepted on this seed")
        ordered = inst.sorted_by_release()
        s_min = minimal_uniform_speed(ordered, accepted=accepted)
        peak = float(result.schedule.processor_speed_matrix().max())
        assert s_min <= peak * (1.0 + 1e-6)
        assert check_feasible_at_speed(
            ordered, s_min * (1 + 1e-9), accepted=accepted
        ).feasible

    def test_preemption_stats_for_all_profit_aware_algorithms(self):
        from repro.analysis import preemption_stats
        from repro.core import run_algorithm

        inst = poisson_instance(6, m=3, alpha=3.0, seed=15)
        for name in ("pd", "accept-all", "oracle-admission"):
            schedule = run_algorithm(name, inst).schedule
            stats = preemption_stats(schedule)
            assert stats.max_migrations_per_interval <= inst.m - 1
