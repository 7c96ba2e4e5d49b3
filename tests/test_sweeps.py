"""The paper's sweeps as ``ExperimentSpec`` grids: what their cells show.

Each test states one property of an experiment (E1's alpha x m ratio
grid, the admission S-curve, the processor-scaling curve, E9's delta
ablation, E12's augmentation curve) on the cells ``run_experiment``
returns.
"""

from __future__ import annotations

import math

import pytest

from repro import ExperimentSpec, run_experiment
from repro.profit import run_pd_augmented, vanishing_margin_instance
from repro.workloads import poisson_instance


def _ratio_grid(n: int, seeds: tuple[int, ...]):
    return run_experiment(
        ExperimentSpec(
            name="ratio-grid",
            family=poisson_instance,
            grid={"alpha": [2.0, 3.0], "m": [1, 2]},
            algorithms=("pd",),
            n=n,
            seeds=seeds,
        )
    )


def _value_x_curve(multipliers, n: int, seeds: tuple[int, ...]):
    return run_experiment(
        ExperimentSpec(
            name="admission-curve",
            family=poisson_instance,
            grid={"value_x": list(multipliers)},
            algorithms=("pd",),
            n=n,
            seeds=seeds,
            family_kwargs={"m": 1, "alpha": 3.0},
        )
    )


def _scaling_curve(instance, ms, algorithm: str = "pd"):
    return run_experiment(
        ExperimentSpec(
            name="processor-scaling",
            base_instance=instance,
            grid={"m": list(ms)},
            algorithms=(algorithm,),
        )
    )


def _augmentation_rows(instance, epsilons):
    """``(epsilon, profit, energy)`` per ``pd-aug?epsilon=...`` cell, the
    profit read from the record by ``total - lost - energy``."""
    cells = run_experiment(
        ExperimentSpec(
            name="augmentation",
            base_instance=instance,
            algorithms=("pd-aug",),
            variants={"epsilon": list(epsilons)},
        )
    )
    total = float(instance.total_value)
    rows = []
    for cell in cells:
        (record,) = cell.records
        profit = total - record.lost_value - record.energy
        rows.append((cell.params["epsilon"], profit, record.energy))
    return rows


class TestRatioSweep:
    def test_grid_shape(self):
        cells = _ratio_grid(n=8, seeds=(0,))
        assert len(cells) == 4
        params = {(c.params["alpha"], c.params["m"]) for c in cells}
        assert params == {(2.0, 1), (2.0, 2), (3.0, 1), (3.0, 2)}

    def test_ratios_within_bounds(self):
        for cell in _ratio_grid(n=10, seeds=(0, 1)):
            bound = cell.params["alpha"] ** cell.params["alpha"]
            assert cell.worst_certified_ratio <= bound * (1 + 1e-7)
            assert cell.runs == 2


class TestAcceptanceCurve:
    def test_monotone_endpoints(self):
        cells = _value_x_curve([1e-4, 1.0, 1e4], n=12, seeds=(0, 1))
        accs = [c.mean_acceptance for c in cells]
        assert accs[0] < 0.3  # near-worthless jobs mostly rejected
        assert accs[-1] > 0.9  # hugely valuable jobs mostly accepted
        assert accs[0] <= accs[1] <= accs[-1] + 1e-9

    def test_params_recorded(self):
        cells = _value_x_curve([0.5], n=6, seeds=(0,))
        assert cells[0].params == {"value_x": 0.5}


class TestProcessorScalingCurve:
    def test_cost_monotone_in_m(self):
        inst = poisson_instance(12, m=1, alpha=3.0, seed=0)
        cells = _scaling_curve(inst, [1, 2, 4])
        costs = [c.mean_cost for c in cells]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(costs, costs[1:]))
        for c in cells:
            assert c.worst_certified_ratio <= 27.0 * (1 + 1e-7)

    def test_non_pd_algorithm_has_nan_ratio(self):
        inst = poisson_instance(6, m=1, alpha=3.0, seed=1).with_values([1e12] * 6)
        cells = _scaling_curve(inst, [1], algorithm="oa")
        assert math.isnan(cells[0].worst_certified_ratio)


class TestExtensionCurves:
    def test_augmentation_curve_on_trap(self):
        inst = vanishing_margin_instance(0.01, 3.0)
        rows = _augmentation_rows(inst, [0.0, 0.2, 0.5])
        profits = [p for _, p, _ in rows]
        energies = [e for _, _, e in rows]
        assert profits == sorted(profits)        # more speed, more profit
        assert energies == sorted(energies, reverse=True)

    def test_augmentation_curve_matches_direct_runs(self):
        inst = vanishing_margin_instance(0.05, 3.0)
        rows = _augmentation_rows(inst, [0.0, 0.3])
        for eps, profit, energy in rows:
            direct = run_pd_augmented(inst, eps)
            assert profit == pytest.approx(direct.profit.profit, abs=1e-12)
            assert energy == direct.energy

    def test_delta_ablation_curve_degrades_away_from_optimum(self):
        alpha = 3.0
        delta_star = alpha ** (1.0 - alpha)
        cells = run_experiment(
            ExperimentSpec(
                name="delta-ablation",
                family=poisson_instance,
                algorithms=("pd",),
                variants={"delta": [0.25 * delta_star, delta_star]},
                n=10,
                seeds=(0, 1),
                family_kwargs={"m": 1, "alpha": alpha},
            )
        )
        assert [c.params["delta"] for c in cells] == [
            0.25 * delta_star, delta_star,
        ]
        # the certified ratio is worse below the paper's optimum
        assert cells[0].worst_certified_ratio > cells[1].worst_certified_ratio
        assert cells[1].worst_certified_ratio <= alpha**alpha * (1 + 1e-7)
