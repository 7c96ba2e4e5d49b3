"""Public-API contract tests.

The library's ``__all__`` lists form its compatibility surface. This
module touches every exported name at least once *by name* — mostly the
result dataclasses that other tests only reach through their factory
functions — so an accidental rename or dropped field fails loudly here
rather than in a downstream user's code.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro
from repro.model.job import Instance
from repro.workloads.random_instances import poisson_instance

ALL_MODULES = [
    "repro",
    "repro.model",
    "repro.chen",
    "repro.classical",
    "repro.core",
    "repro.offline",
    "repro.analysis",
    "repro.discrete",
    "repro.profit",
    "repro.general",
    "repro.workloads",
    "repro.viz",
    "repro.io",
]


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version_string():
    assert repro.__version__ == "1.1.0"
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


@pytest.fixture(scope="module")
def pd_result():
    return repro.run_pd(poisson_instance(6, m=2, alpha=3.0, seed=21))


class TestResultDataclasses:
    """Every exported result type's documented fields, touched by name."""

    def test_job_decision(self, pd_result):
        from repro.core import JobDecision

        d = pd_result.decisions[0]
        assert isinstance(d, JobDecision)
        assert d.job_id == 0 and d.lam >= 0.0 and d.planned_speed >= 0.0

    def test_run_outcome(self):
        from repro.core import RunOutcome

        out = repro.REGISTRY.run("pd", poisson_instance(4, m=1, alpha=3.0, seed=0))
        assert isinstance(out, RunOutcome)
        assert out.cost == out.schedule.cost and out.name == "pd"

    def test_cll_result(self):
        from repro.core import CLLResult, run_cll

        result = run_cll(poisson_instance(4, m=1, alpha=3.0, seed=1))
        assert isinstance(result, CLLResult)

    def test_waterfill_outcome(self):
        from repro.core import WaterfillOutcome, waterfill_job
        from repro.model.power import PolynomialPower
        from repro.perf import IntervalLoads, WindowKernel

        out = waterfill_job(
            WindowKernel([IntervalLoads.from_column(np.array([0.5]))], [1.0], 1),
            workload=1.0,
            value=100.0,
            delta=1.0 / 9.0,
            power=PolynomialPower(3.0),
        )
        assert isinstance(out, WaterfillOutcome) and out.accepted

    def test_policy_result(self):
        from repro.core import PolicyResult, run_reject_all

        r = run_reject_all(poisson_instance(3, m=1, alpha=3.0, seed=2))
        assert isinstance(r, PolicyResult) and r.inner is None

    def test_offline_solutions(self):
        from repro.offline import ExactSolution, OfflineSolution, solve_exact
        from repro.offline.convex import solve_min_energy

        inst = poisson_instance(4, m=1, alpha=3.0, seed=3)
        exact = solve_exact(inst)
        assert isinstance(exact, ExactSolution)
        assert exact.subsets_solved + exact.subsets_pruned >= 1
        cp = solve_min_energy(inst, tuple(range(inst.n)))
        assert isinstance(cp, OfflineSolution)

    def test_flow_results(self):
        from repro.offline import (
            FlowFeasibility,
            UniformSpeedResult,
            check_feasible_at_speed,
            run_uniform_speed,
        )

        inst = Instance.classical([(0.0, 1.0, 0.5)], m=1, alpha=3.0)
        f = check_feasible_at_speed(inst, 1.0)
        assert isinstance(f, FlowFeasibility) and f.loads().shape == (1, 1)
        u = run_uniform_speed(inst)
        assert isinstance(u, UniformSpeedResult) and u.speed > 0.0

    def test_analysis_reports(self, pd_result):
        from repro.analysis import (
            CategoryReport,
            DualCertificate,
            HindsightDecomposition,
            LemmaBounds,
            PreemptionStats,
            TraceReport,
            build_traces,
            categorize,
            dual_certificate,
            hindsight_decomposition,
            lemma_bounds,
            preemption_stats,
        )

        cert = dual_certificate(pd_result)
        assert isinstance(cert, DualCertificate)
        assert isinstance(categorize(pd_result, cert), CategoryReport)
        assert isinstance(lemma_bounds(pd_result, cert), LemmaBounds)
        assert isinstance(build_traces(pd_result, cert), TraceReport)
        assert isinstance(preemption_stats(pd_result.schedule), PreemptionStats)
        small = poisson_instance(4, m=1, alpha=3.0, seed=4)
        assert isinstance(
            hindsight_decomposition(repro.run_pd(small)), HindsightDecomposition
        )

    def test_discrete_results(self, pd_result):
        from repro.discrete import (
            Bracket,
            DiscretePDResult,
            DiscreteSchedule,
            SpeedSet,
            discretize_schedule,
            menu_covering_schedule,
            run_pd_discrete,
        )

        menu = menu_covering_schedule(pd_result, 6)
        assert isinstance(menu.bracket(menu.min_speed), Bracket)
        d = discretize_schedule(pd_result.schedule, menu)
        assert isinstance(d, DiscreteSchedule)
        r = run_pd_discrete(pd_result.schedule.instance, menu)
        assert isinstance(r, DiscretePDResult)

    def test_profit_results(self, pd_result):
        from repro.profit import (
            AugmentedProfitResult,
            ProfitBreakdown,
            profit_of_result,
            run_pd_augmented,
        )

        p = profit_of_result(pd_result)
        assert isinstance(p, ProfitBreakdown)
        a = run_pd_augmented(pd_result.schedule.instance, 0.1)
        assert isinstance(a, AugmentedProfitResult)

    def test_general_results(self):
        from repro.general import (
            GeneralDualBound,
            GeneralPDResult,
            SumPower,
            general_dual_bound,
            run_pd_general,
        )

        inst = poisson_instance(4, m=1, alpha=3.0, seed=5)
        gen = run_pd_general(inst, SumPower([1.0, 0.1], [3.0, 1.0]), delta=1 / 9)
        assert isinstance(gen, GeneralPDResult)
        assert isinstance(general_dual_bound(gen), GeneralDualBound)

    def test_classical_results(self):
        from repro.classical import OAResult, YdsResult, oa_plan, run_oa, yds

        inst = Instance.classical([(0.0, 2.0, 1.0), (1.0, 3.0, 1.0)], m=1, alpha=3.0)
        assert isinstance(yds(inst), YdsResult)
        assert isinstance(run_oa(inst), OAResult)
        plan = oa_plan(
            now=1.0,
            job_ids=[0, 1],
            remaining={0: 0.5, 1: 1.0},
            deadlines={0: 2.0, 1: 3.0},
            alpha=3.0,
        )
        assert isinstance(plan, YdsResult)

    def test_chen_partition_energy(self):
        from repro.chen import (
            IntervalPartition,
            interval_energy_from_partition,
            partition_loads,
        )
        from repro.model.power import PolynomialPower

        part = partition_loads(np.array([2.0, 0.5, 0.5]), 2)
        assert isinstance(part, IntervalPartition)
        energy = interval_energy_from_partition(part, 1.0, PolynomialPower(3.0))
        assert energy > 0.0

    def test_cost_breakdown(self, pd_result):
        from repro.model import Schedule
        from repro.model.schedule import CostBreakdown

        bd = pd_result.schedule.cost_breakdown()
        assert isinstance(bd, CostBreakdown)
        assert bd.total == pytest.approx(bd.energy + bd.lost_value)
        assert isinstance(pd_result.schedule, Schedule)
