"""E8 — the multiprocessor claim: PD handles any m at ratio alpha^alpha.

The paper's second headline: PD is the *first* algorithm for profitable
speed scaling on multiple processors, with the same ``alpha**alpha``
guarantee. We sweep m, comparing PD against the offline convex optimum
(finish-the-same-set) and checking:

* the certificate holds for every m (the guarantee is m-independent),
* cost decreases monotonically in m (more parallelism never hurts),
* PD tracks the offline optimum within a small factor far below the
  worst-case bound on benign workloads.

The m-grid is a fixed-instance :class:`ExperimentSpec` on the engine;
the offline comparator is reconstructed per cell from each record's
serialized schedule and the cell's request instance (the record holds
the acceptance set, the request the jobs and machine environment, so
the comparison needs no second PD run).
"""

from __future__ import annotations

import pytest

from repro import solve_min_energy
from repro.engine import BatchRunner, ExperimentSpec, run_experiment
from repro.io.serialize import schedule_from_dict
from repro.workloads import diurnal_instance, poisson_instance

from helpers import emit_table

MS = [1, 2, 4, 8, 16]
ALPHA = 3.0
BOUND = ALPHA**ALPHA


def multiproc_sweep():
    base = poisson_instance(24, m=1, alpha=ALPHA, seed=11)
    spec = ExperimentSpec(
        name="e8_multiproc",
        base_instance=base,
        grid={"m": MS},
        algorithms=("pd",),
    )
    requests = spec.requests()
    out = []
    for request, record in zip(requests, BatchRunner().run(requests)):
        schedule = schedule_from_dict(record.schedule, request.instance)
        # Offline comparator: cheapest way to finish exactly PD's accepted
        # set, plus the same lost value (an upper bound on how much of
        # PD's cost is online overhead rather than acceptance choices).
        accepted = [j for j, fin in enumerate(record.finished) if fin]
        offline = solve_min_energy(schedule.instance, accepted)
        offline_cost = offline.energy + schedule.lost_value
        out.append(
            (request.instance.m, record.cost, offline_cost, record.certified_ratio)
        )
    return out


@pytest.mark.benchmark(group="e8")
def test_e8_processor_sweep(benchmark):
    data = benchmark.pedantic(multiproc_sweep, rounds=1, iterations=1)
    rows = []
    prev_cost = None
    for m, cost, offline_cost, ratio in data:
        rows.append(
            f"{m:>3d} {cost:>12.4f} {offline_cost:>14.4f} "
            f"{cost / offline_cost:>10.3f} {ratio:>9.3f} {BOUND:>8.1f}"
        )
        assert ratio <= BOUND * (1.0 + 1e-7)
        assert cost >= offline_cost * (1.0 - 1e-7)
        if prev_cost is not None:
            assert cost <= prev_cost * (1.0 + 1e-6), "more processors hurt"
        prev_cost = cost
    emit_table(
        "e8_multiproc",
        f"{'m':>3} {'PD cost':>12} {'offline(same)':>14} {'PD/offline':>11} "
        f"{'cert':>9} {'bound':>8}",
        rows,
        data=[
            {
                "m": m,
                "pd_cost": cost,
                "offline_same_set": offline_cost,
                "certified_ratio": ratio,
                "bound": BOUND,
            }
            for m, cost, offline_cost, ratio in data
        ],
    )


@pytest.mark.benchmark(group="e8")
def test_e8_datacenter_cluster(benchmark):
    def run():
        spec = ExperimentSpec(
            name="e8_datacenter",
            family=diurnal_instance,
            grid={"m": [2, 4, 8]},
            algorithms=("pd",),
            n=40,
            seeds=(3,),
            family_kwargs={"alpha": ALPHA},
        )
        return [
            (
                cell.params["m"],
                cell.mean_cost,
                cell.mean_acceptance,
                cell.worst_certified_ratio,
            )
            for cell in run_experiment(spec, BatchRunner())
        ]

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    for _m, _cost, _acc, ratio in data:
        assert ratio <= BOUND * (1.0 + 1e-7)  # the certificate held
    rows = [
        f"{m:>3d} {cost:>12.3f} {100 * acc:>9.1f}% {ratio:>8.3f}"
        for m, cost, acc, ratio in data
    ]
    emit_table(
        "e8_datacenter",
        f"{'m':>3} {'PD cost':>12} {'accepted':>10} {'ratio':>8}",
        rows,
        data=[
            {"m": m, "pd_cost": cost, "accepted": acc, "ratio": ratio}
            for m, cost, acc, ratio in data
        ],
    )
    # More capacity -> (weakly) more accepted jobs on the same trace.
    acc = [a for _, _, a, _ in data]
    assert acc[-1] >= acc[0] - 1e-9
