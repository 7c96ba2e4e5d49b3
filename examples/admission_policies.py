#!/usr/bin/env python
"""Decomposing PD's cost: admission regret vs placement regret.

PD makes two kinds of decisions — *which* jobs to finish, and *where* to
put their work. This example holds the placement engine fixed and swaps
the admission policy to see what each rule costs:

* ``accept-all``        finish everything (classical regime);
* ``solo-threshold``    PD's own rule, but priced against an idle machine;
* ``pd``                the paper's load-aware dynamic rule;
* ``oracle-admission``  the offline optimum's acceptance set, placed online;
* ``exact``             the offline optimum (lower bound on everything).

Run: ``python examples/admission_policies.py``
"""

from __future__ import annotations

from repro.engine import REGISTRY
from repro.model.job import Instance
from repro.workloads import poisson_instance

POLICIES = ["accept-all", "solo-threshold", "pd", "oracle-admission", "exact"]


def show(title: str, inst: Instance) -> None:
    print(title)
    print(f"  {'policy':>17} {'cost':>10} {'energy':>10} {'lost':>8} {'acc':>7}")
    for name in POLICIES:
        out = REGISTRY.run(name, inst)
        s = out.schedule
        print(
            f"  {name:>17} {s.cost:>10.4f} {s.energy:>10.4f} "
            f"{s.lost_value:>8.4f} {int(s.finished.sum()):>4d}/{inst.n}"
        )
    print()


def main() -> None:
    # A value spread: policies diverge when some jobs are marginal.
    base = poisson_instance(9, m=1, alpha=3.0, seed=2)
    show("mixed-value stream (values straddle the threshold):",
         base.with_values((base.values * 0.3).tolist()))

    # The load-awareness trap: five jobs, each worth finishing *alone*,
    # ruinous together. Static admission admits all five; PD prices the
    # k-th concurrent job at its true marginal cost and stops in time.
    trap = Instance.from_tuples(
        [(0.0, 1.0, 1.0, 4.0)] * 5, m=1, alpha=3.0
    )
    show("stacked burst (each job fine alone, ruinous together):", trap)

    print("Reading the tables:")
    print("- 'exact - oracle-admission' gap = pure placement regret")
    print("  (the price of never revisiting committed work).")
    print("- 'oracle-admission - pd' gap = pure admission regret.")
    print("- solo-threshold equals pd until jobs *stack*; then only the")
    print("  load-aware rule stops admitting (the paper's Listing 1).")


if __name__ == "__main__":
    main()
