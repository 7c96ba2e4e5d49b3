"""E3 — PD vs. Chan–Lam–Li: the improvement the paper claims.

The paper improves the single-processor guarantee from
``alpha^alpha + 2 e alpha`` (CLL) to ``alpha^alpha`` (PD). Two parts:

* the *guarantee* table — the analytic bounds side by side, showing the
  improvement factor the paper states (this is the paper's actual
  contribution; it is about worst cases, not typical ones);
* an *empirical* head-to-head on profitable instance families, verifying
  the two algorithms' realized costs stay within a small factor of each
  other (PD's improvement is in the guarantee; on typical instances both
  behave like OA with an admission filter).

The head-to-head grid is one declarative
:class:`~repro.engine.ExperimentSpec`: the families form a *workload
axis* (registry names resolved through ``repro.workloads``), alpha is a
grid axis, and both algorithms run on every cell — the per-job
acceptance decisions are read back from the records' serialized
schedules, which both algorithms report in arrival order.
"""

from __future__ import annotations

import pytest

from repro.engine import ExperimentSpec, run_experiment
from repro.model.power import PolynomialPower

from helpers import emit_table

ALPHAS = [1.5, 2.0, 2.5, 3.0]
FAMILIES = ["poisson", "heavy-tail", "tight"]
HEAD_TO_HEAD_ALPHAS = [2.0, 3.0]
SEEDS = range(4)


@pytest.mark.benchmark(group="e3")
def test_e3_guarantee_table(benchmark):
    def build():
        powers = [PolynomialPower(a) for a in ALPHAS]
        return [
            (p.alpha, p.competitive_ratio_pd, p.competitive_ratio_cll)
            for p in powers
        ]

    data = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for alpha, pd_bound, cll_bound in data:
        assert pd_bound < cll_bound  # the paper's improvement
        rows.append(
            f"{alpha:>5.1f} {pd_bound:>14.3f} {cll_bound:>16.3f} "
            f"{cll_bound / pd_bound:>12.2f}x"
        )
    emit_table(
        "e3_guarantees",
        f"{'alpha':>5} {'PD: alpha^a':>14} {'CLL: a^a+2ea':>16} {'improvement':>13}",
        rows,
        data=[
            {"alpha": a, "pd_bound": p, "cll_bound": c, "improvement": c / p}
            for a, p, c in data
        ],
    )


def head_to_head():
    spec = ExperimentSpec(
        name="e3_head_to_head",
        workloads=FAMILIES,
        grid={"alpha": HEAD_TO_HEAD_ALPHAS},
        algorithms=("pd", "cll"),
        n=15,
        seeds=tuple(SEEDS),
    )
    cells = run_experiment(spec)

    out = []
    # Cell order: workload slowest, then alpha, algorithms innermost —
    # so cells pair up as (pd, cll) per (family, alpha).
    for pd_cell, cll_cell in zip(cells[0::2], cells[1::2]):
        assert (pd_cell.algorithm, cll_cell.algorithm) == ("pd", "cll")
        assert pd_cell.params["workload"] == cll_cell.params["workload"]
        pd_total = sum(r.cost for r in pd_cell.records)
        cll_total = sum(r.cost for r in cll_cell.records)
        agree = sum(
            a == b
            for pd, cll in zip(pd_cell.records, cll_cell.records)
            for a, b in zip(pd.finished, cll.finished)
        )
        total = sum(len(pd.finished) for pd in pd_cell.records)
        out.append(
            (
                pd_cell.params["workload"],
                pd_cell.params["alpha"],
                pd_total,
                cll_total,
                agree / total,
            )
        )
    return out


@pytest.mark.benchmark(group="e3")
def test_e3_empirical_head_to_head(benchmark):
    data = benchmark.pedantic(head_to_head, rounds=1, iterations=1)
    rows = []
    for name, alpha, pd_cost, cll_cost, agreement in data:
        rows.append(
            f"{name:>11} {alpha:>5.1f} {pd_cost:>12.3f} {cll_cost:>12.3f} "
            f"{pd_cost / cll_cost:>8.3f} {100 * agreement:>9.1f}%"
        )
        # Realized costs are comparable (same policy family) ...
        assert pd_cost <= 3.0 * cll_cost
        assert cll_cost <= 3.0 * pd_cost
        # ... and the admission decisions agree on most jobs (the
        # paper's Section 3 equivalence remark).
        assert agreement >= 0.75
    emit_table(
        "e3_head_to_head",
        f"{'family':>11} {'alpha':>5} {'PD cost':>12} {'CLL cost':>12} "
        f"{'PD/CLL':>8} {'agreement':>10}",
        rows,
        data=[
            {
                "family": name,
                "alpha": alpha,
                "pd_cost": pd_cost,
                "cll_cost": cll_cost,
                "agreement": agreement,
            }
            for name, alpha, pd_cost, cll_cost, agreement in data
        ],
    )
