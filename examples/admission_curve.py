#!/usr/bin/env python
"""The admission S-curve: how PD's accept/reject policy responds to value.

Sweeps a global multiplier on all job values and plots (in ASCII) the
acceptance rate and the cost composition. At low values PD is a bouncer
(reject everything, pay the small values); at high values it is a
classical speed scaler (finish everything, pay energy); in between it
earns the model's whole point — trading the two against each other.

Run: ``python examples/admission_curve.py``
"""

from __future__ import annotations

from repro import ExperimentSpec, run_experiment
from repro.workloads import poisson_instance


def bar(fraction: float, width: int = 30) -> str:
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def main() -> None:
    spec = ExperimentSpec(
        name="admission-curve",
        family=poisson_instance,
        # value_x scales every job value after generation.
        grid={"value_x": [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0]},
        algorithms=("pd",),
        n=25,
        seeds=range(4),
        family_kwargs={"m": 2, "alpha": 3.0},
    )
    cells = run_experiment(spec)
    print("acceptance rate vs value multiplier (25 jobs, m=2, alpha=3):\n")
    print(f"{'value x':>9} {'accepted':>9}  {'':30}  {'mean cost':>11} {'worst ratio':>12}")
    print("-" * 78)
    for cell in cells:
        acc = cell.mean_acceptance
        print(
            f"{cell.params['value_x']:>9g} {100 * acc:>8.1f}%  {bar(acc)}  "
            f"{cell.mean_cost:>11.3f} {cell.worst_certified_ratio:>12.3f}"
        )
    print(
        "\nEvery row is still certified within alpha^alpha = 27 (Theorem 3 "
        "holds across the whole operating range, not just at the extremes)."
    )


if __name__ == "__main__":
    main()
