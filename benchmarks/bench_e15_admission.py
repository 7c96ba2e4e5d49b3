"""E15 — ablation of PD's admission rule (dynamic pricing vs alternatives).

PD interleaves admission (reject when the planned marginal energy
exceeds the value) with placement (water-filling against the current
load). This ablation holds the placement engine fixed and swaps the
admission policy, sweeping the value scale of a fixed workload from
"nothing is worth finishing" to "everything is":

* ``accept-all`` — the classical regime (ignore values);
* ``solo-threshold`` — PD's rule evaluated against an *empty* machine
  (static admission, no load awareness);
* ``pd`` — the paper's dynamic rule;
* ``oracle-admission`` — the offline optimal acceptance set, placed
  online (admission regret zero by construction);
* ``exact`` — the offline optimum (lower bound for everything).

Claims checked: the ordering ``exact <= oracle-admission`` holds
everywhere (placement regret only); PD tracks the oracle closely across
the whole sweep; accept-all explodes at low values; solo-threshold
matches PD at the extremes but loses in the middle, where load-aware
pricing matters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import REGISTRY
from repro.workloads import poisson_instance

from helpers import emit_table

ALPHA = 3.0
SCALES = [0.05, 0.3, 1.0, 3.0, 20.0]
POLICIES = ["accept-all", "solo-threshold", "pd", "oracle-admission", "exact"]


def admission_sweep():
    base = poisson_instance(9, m=1, alpha=ALPHA, seed=2)
    rows = []
    for scale in SCALES:
        inst = base.with_values((base.values * scale).tolist())
        costs = {
            name: REGISTRY.run(name, inst).cost for name in POLICIES
        }
        rows.append((scale, costs))
    return rows


@pytest.mark.benchmark(group="e15")
def test_e15_admission_policy_ablation(benchmark):
    data = benchmark.pedantic(admission_sweep, rounds=1, iterations=1)
    emit_table(
        "e15_admission",
        f"{'scale':>7} " + " ".join(f"{p:>15}" for p in POLICIES),
        [
            f"{scale:>7.2f} "
            + " ".join(f"{costs[p]:>15.4f}" for p in POLICIES)
            for scale, costs in data
        ],
    )
    for scale, costs in data:
        # Exact optimum lower-bounds every policy.
        for name in POLICIES[:-1]:
            assert costs[name] >= costs["exact"] - 1e-7, (scale, name)
        # Oracle admission leaves only placement regret: within a small
        # constant of the optimum on these benign instances (measured
        # ~1.8x here — the price of never revisiting committed work),
        # far inside the certified alpha^alpha.
        assert costs["oracle-admission"] <= costs["exact"] * 2.5 + 1e-9
        # PD stays within its certified factor trivially; the sharper
        # empirical claim is that it tracks the oracle closely.
        assert costs["pd"] <= costs["oracle-admission"] * 1.6 + 1e-9

    low = data[0][1]
    high = data[-1][1]
    # With near-worthless jobs accept-all burns energy for nothing and is
    # far worse than PD; with precious jobs everyone accepts everything
    # and the policies converge.
    assert low["accept-all"] > 5.0 * low["pd"]
    assert high["accept-all"] == pytest.approx(high["pd"], rel=0.25)
    benchmark.extra_info["scales"] = SCALES


@pytest.mark.benchmark(group="e15")
def test_e15_load_awareness_matters(benchmark):
    """A stacked burst where the static solo-threshold admits jobs a
    loaded machine should refuse: each job looks cheap alone, but the
    fifth concurrent one is ruinous. Dynamic PD prices against the
    current load and rejects the surplus."""

    def run():
        from repro.model.job import Instance

        # Five identical jobs sharing one tight window; values sized so a
        # lone job is clearly worth finishing but the marginal cost of
        # the k-th concurrent job grows like k^(alpha-1).
        rows = [(0.0, 1.0, 1.0, 4.0)] * 5
        inst = Instance.from_tuples(rows, m=1, alpha=ALPHA)
        return {
            name: REGISTRY.run(name, inst).cost
            for name in ("accept-all", "solo-threshold", "pd", "exact")
        }

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_table(
        "e15_load_awareness",
        f"{'policy':>15} {'cost':>10}",
        [f"{name:>15} {cost:>10.4f}" for name, cost in costs.items()],
    )
    # Solo-threshold admits all five (each is worth it alone) and pays
    # the stacked energy, like accept-all; PD stops admitting when the
    # price exceeds the value.
    assert costs["solo-threshold"] == pytest.approx(costs["accept-all"])
    assert costs["pd"] < 0.6 * costs["solo-threshold"]
    assert costs["pd"] <= ALPHA**ALPHA * costs["exact"] + 1e-9
