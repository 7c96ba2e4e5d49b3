"""Tests for the workload generators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.classical.yds import yds
from repro.core.pd import run_pd
from repro.engine import ExperimentSpec
from repro.errors import InvalidParameterError
from repro.io.cli import main
from repro.workloads import (
    WORKLOADS,
    agreeable_instance,
    batch_instance,
    diurnal_instance,
    diurnal_intensity,
    heavy_tail_instance,
    laminar_instance,
    lower_bound_instance,
    optimal_cost_closed_form,
    pd_cost_closed_form,
    poisson_instance,
    tight_instance,
    uniform_instance,
)

GENERATORS = [
    lambda seed: poisson_instance(10, seed=seed),
    lambda seed: heavy_tail_instance(10, seed=seed),
    lambda seed: uniform_instance(10, seed=seed),
    lambda seed: diurnal_instance(10, seed=seed),
    lambda seed: agreeable_instance(10, seed=seed),
    lambda seed: laminar_instance(3, seed=seed),
    lambda seed: batch_instance(10, seed=seed),
    lambda seed: tight_instance(10, seed=seed),
]


class TestGeneratorContracts:
    @pytest.mark.parametrize("gen", range(len(GENERATORS)))
    def test_deterministic_given_seed(self, gen):
        a = GENERATORS[gen](seed=123)
        b = GENERATORS[gen](seed=123)
        assert a.jobs == b.jobs

    @pytest.mark.parametrize("gen", range(len(GENERATORS)))
    def test_different_seeds_differ(self, gen):
        a = GENERATORS[gen](seed=1)
        b = GENERATORS[gen](seed=2)
        assert a.jobs != b.jobs

    @pytest.mark.parametrize("gen", range(len(GENERATORS)))
    def test_instances_are_valid_and_runnable(self, gen):
        inst = GENERATORS[gen](seed=0)
        assert inst.n > 0
        result = run_pd(inst)
        result.schedule.validate()

    @pytest.mark.parametrize("gen", range(len(GENERATORS)))
    def test_generator_accepts_generator_object(self, gen):
        rng = np.random.default_rng(7)
        inst = GENERATORS[gen](seed=rng)
        assert inst.n > 0


class TestLowerBoundFamily:
    def test_structure(self):
        inst = lower_bound_instance(5, 3.0)
        assert inst.n == 5
        assert inst.m == 1
        for j, job in enumerate(inst.jobs, start=1):
            assert job.release == j - 1
            assert job.deadline == 5.0
            assert job.workload == pytest.approx((5 - j + 1) ** (-1 / 3))

    def test_bad_n(self):
        with pytest.raises(InvalidParameterError):
            lower_bound_instance(0, 3.0)

    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_closed_forms_match_simulation(self, n, alpha):
        inst = lower_bound_instance(n, alpha)
        assert run_pd(inst).cost == pytest.approx(
            pd_cost_closed_form(n, alpha), rel=1e-7
        )
        assert yds(inst).energy == pytest.approx(
            optimal_cost_closed_form(n, alpha), rel=1e-9
        )

    def test_ratio_grows_with_n(self):
        alpha = 3.0
        ratios = [
            pd_cost_closed_form(n, alpha) / optimal_cost_closed_form(n, alpha)
            for n in [2, 8, 32, 128]
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < alpha**alpha  # approaches but never exceeds


class TestFamilyShapes:
    def test_agreeable_ordering(self):
        inst = agreeable_instance(20, seed=0)
        order = np.argsort(inst.releases, kind="stable")
        deadlines = inst.deadlines[order]
        assert np.all(np.diff(deadlines) >= -1e-12)

    def test_laminar_nesting(self):
        inst = laminar_instance(3, seed=0)
        windows = sorted((j.release, -j.deadline) for j in inst.jobs)
        # Any two windows either nest or are disjoint.
        for a in inst.jobs:
            for b in inst.jobs:
                lo = max(a.release, b.release)
                hi = min(a.deadline, b.deadline)
                if hi <= lo:  # disjoint
                    continue
                nested = (
                    a.release >= b.release - 1e-12 and a.deadline <= b.deadline + 1e-12
                ) or (
                    b.release >= a.release - 1e-12 and b.deadline <= a.deadline + 1e-12
                )
                assert nested

    def test_batch_common_window(self):
        inst = batch_instance(10, deadline=2.0, seed=0)
        assert all(j.release == 0.0 and j.deadline == 2.0 for j in inst.jobs)

    def test_tight_slack(self):
        inst = tight_instance(10, slack=1.3, seed=0)
        for j in inst.jobs:
            assert j.span == pytest.approx(1.3 * j.workload)

    def test_diurnal_intensity_bounds(self):
        ts = np.linspace(0, 48, 200)
        vals = [diurnal_intensity(float(t)) for t in ts]
        assert min(vals) >= 0.15 - 1e-12
        assert max(vals) <= 1.0 + 1e-12

    def test_diurnal_mix(self):
        inst = diurnal_instance(40, seed=0, interactive_fraction=0.5)
        names = [j.name or "" for j in inst.jobs]
        assert any(n.startswith("web") for n in names)
        assert any(n.startswith("batch") for n in names)

    def test_value_ratio_validation(self):
        with pytest.raises(InvalidParameterError):
            poisson_instance(5, value_ratio=(0.0, 1.0), seed=0)
        with pytest.raises(InvalidParameterError):
            poisson_instance(5, value_ratio=(2.0, 1.0), seed=0)


class TestBurstyFamily:
    def test_spike_windows_tightened(self):
        from repro.workloads import bursty_instance

        inst = bursty_instance(8, burstiness=4.0, spike_period=4, seed=0)
        spans = inst.deadlines - inst.releases
        for i in range(inst.n):
            if i % 4 == 3:
                assert spans[i] == pytest.approx(0.5)
            else:
                assert spans[i] == pytest.approx(2.0)

    def test_flat_at_burstiness_one(self):
        from repro.workloads import bursty_instance

        inst = bursty_instance(6, burstiness=1.0, seed=1)
        spans = inst.deadlines - inst.releases
        assert np.allclose(spans, spans[0])

    def test_jobs_are_must_finish(self):
        from repro.workloads import bursty_instance

        inst = bursty_instance(5, seed=2)
        assert (inst.values >= 1e29).all()

    def test_validation(self):
        from repro.errors import InvalidParameterError
        from repro.workloads import bursty_instance

        with pytest.raises(InvalidParameterError):
            bursty_instance(0)
        with pytest.raises(InvalidParameterError):
            bursty_instance(4, burstiness=0.5)
        with pytest.raises(InvalidParameterError):
            bursty_instance(4, spike_period=1)

    def test_uniform_over_yds_grows_with_burstiness(self):
        from repro.classical.yds import yds
        from repro.offline.flow import run_uniform_speed
        from repro.workloads import bursty_instance

        ratios = []
        for b in (1.0, 8.0):
            inst = bursty_instance(8, burstiness=b, seed=3)
            ratios.append(
                run_uniform_speed(inst).energy / yds(inst).energy
            )
        assert ratios[1] > ratios[0]


#: ``(family, knob, value)`` for knob values that build no instance:
#: each once failed with a raw numpy or Python error, or (NaN) got past
#: the checks and failed later on a duration or a deadline.
BAD_KNOBS = [
    ("poisson", "arrival_rate", 0.0),
    ("poisson", "arrival_rate", -1.0),
    ("poisson", "arrival_rate", math.nan),
    ("poisson", "mean_span", -5.0),
    ("poisson", "mean_span", -0.0),
    ("poisson", "mean_span", math.inf),
    ("poisson", "mean_workload", -1.0),
    ("poisson", "mean_workload", math.nan),
    ("heavy-tail", "pareto_shape", 0.0),
    ("heavy-tail", "pareto_shape", -1.0),
    ("heavy-tail", "horizon", -1.0),
    ("heavy-tail", "horizon", 2.4999999999999996),
    ("heavy-tail", "horizon", math.nan),
    ("heavy-tail", "horizon", math.inf),
    ("uniform", "horizon", 0.0),
    ("uniform", "horizon", -1.0),
    ("uniform", "horizon", 0.6666666666666666),
    ("diurnal", "day", 0.0),
    ("diurnal", "day", -1.0),
    ("diurnal", "day", math.nan),
    ("diurnal", "base_rate", 0.0),
    ("diurnal", "base_rate", -1.0),
    ("diurnal", "base_rate", math.nan),
    ("diurnal", "interactive_fraction", 1.5),
    ("bursty", "base_span", -1.0),
    ("bursty", "base_span", 0.0),
    ("bursty", "base_span", math.nan),
    ("bursty", "base_span", math.inf),
    ("bursty", "burstiness", 0.5),
    ("bursty", "burstiness", math.nan),
    ("bursty", "spike_period", 1),
    ("tight", "slack", 0.5),
    ("tight", "slack", math.nan),
    ("tight", "slack", math.inf),
    ("batch", "deadline", 0.0),
    ("batch", "deadline", math.nan),
    ("batch", "deadline", math.inf),
]

#: The edge of each knob's range, which still builds.
EDGE_KNOBS = [
    ("poisson", "arrival_rate", math.inf),
    ("poisson", "mean_span", 0.0),
    ("poisson", "mean_workload", 0.0),
    ("heavy-tail", "pareto_shape", math.inf),
    ("heavy-tail", "horizon", 2.5),
    ("uniform", "horizon", 0.6666666666666667),
    ("diurnal", "day", math.inf),
    ("diurnal", "base_rate", math.inf),
    ("bursty", "burstiness", 1.0),
    ("bursty", "base_span", 1e-300),
    ("tight", "slack", 1.0000000000000002),
    ("batch", "deadline", 1e-3),
]


def _spec(family, knob, value):
    return f"{family}?{knob}={value!r}"


@pytest.mark.parametrize(
    "family,knob,value", BAD_KNOBS, ids=[_spec(*case) for case in BAD_KNOBS]
)
class TestKnobChecks:
    """Each family checks its knobs before its first draw: a value that
    builds no instance is an ``InvalidParameterError`` naming the knob,
    from the registry, from an experiment spec and from the CLI."""

    def test_registry(self, family, knob, value):
        with pytest.raises(InvalidParameterError, match=knob):
            WORKLOADS.build(_spec(family, knob, value), 10, seed=1)

    def test_experiment_spec(self, family, knob, value):
        spec = ExperimentSpec(
            name="knobs",
            workloads=[_spec(family, knob, value)],
            algorithms=("pd",),
            n=10,
            seeds=(1,),
        )
        with pytest.raises(InvalidParameterError, match=knob):
            spec.requests()

    def test_cli_sweep(self, family, knob, value, capsys):
        argv = [
            "sweep", "--workload", _spec(family, knob, value), "-n", "10",
            "--seeds", "1", "--algorithms", "pd",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert knob in err


#: Knobs in range whose jobs' solo energy overflows a float.
OVERFLOW_KNOBS = [
    ("poisson", "mean_workload", 1e300),
    ("batch", "deadline", 1e-300),
] + [
    (family, "alpha", 1e300)
    for family in ("poisson", "heavy-tail", "uniform", "diurnal", "batch", "jitter")
]


@pytest.mark.parametrize(
    "family,knob,value",
    OVERFLOW_KNOBS,
    ids=[_spec(*case) for case in OVERFLOW_KNOBS],
)
class TestSoloEnergyOverflow:
    """A family that values its jobs at a multiple of a solo energy that
    overflows a float fails with ``InvalidParameterError``, not a raw
    ``OverflowError``, from the registry, an experiment spec and the
    CLI."""

    def test_registry(self, family, knob, value):
        with pytest.raises(InvalidParameterError, match="overflows"):
            WORKLOADS.build(_spec(family, knob, value), 10, seed=1)

    def test_experiment_spec(self, family, knob, value):
        spec = ExperimentSpec(
            name="overflow",
            workloads=[_spec(family, knob, value)],
            algorithms=("pd",),
            n=10,
            seeds=(1,),
        )
        with pytest.raises(InvalidParameterError, match="overflows"):
            spec.requests()

    def test_cli_sweep(self, family, knob, value, capsys):
        argv = [
            "sweep", "--workload", _spec(family, knob, value), "-n", "10",
            "--seeds", "1", "--algorithms", "pd",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err


@pytest.mark.parametrize(
    "family,knob,value", EDGE_KNOBS, ids=[_spec(*case) for case in EDGE_KNOBS]
)
def test_knob_range_edges_build(family, knob, value):
    assert WORKLOADS.build(_spec(family, knob, value), 10, seed=1).n >= 1


def test_lower_bound_checks_alpha_first():
    with pytest.raises(InvalidParameterError, match="alpha"):
        lower_bound_instance(5, 0.0)
