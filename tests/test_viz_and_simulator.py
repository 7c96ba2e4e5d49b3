"""Tests for ASCII rendering and the algorithm registry."""

from __future__ import annotations

import pytest

from repro.engine import REGISTRY
from repro.errors import InvalidParameterError
from repro.model.job import Instance
from repro.viz import gantt, interval_gantt, speed_profile
from repro.workloads import batch_instance, poisson_instance


class TestViz:
    def test_gantt_contains_all_processors(self):
        inst = batch_instance(5, m=3, alpha=3.0, seed=0)
        from repro.core.pd import run_pd

        text = gantt(run_pd(inst).schedule)
        assert "CPU 1" in text and "CPU 3" in text

    def test_gantt_idle_schedule(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1e-12)], m=2, alpha=3.0)
        from repro.core.pd import run_pd

        text = gantt(run_pd(inst).schedule)
        assert "CPU 1" in text  # renders even with nothing scheduled

    def test_interval_gantt_empty(self):
        assert "empty" in interval_gantt([])

    def test_speed_profile_shape(self):
        inst = poisson_instance(8, m=1, alpha=3.0, seed=1)
        from repro.core.pd import run_pd

        text = speed_profile(run_pd(inst).schedule, width=40, height=5)
        lines = text.splitlines()
        assert len(lines) == 7  # 5 rows + axis + time labels

    def test_speed_profile_idle(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1e-12)], m=1, alpha=3.0)
        from repro.core.pd import run_pd

        assert "idle" in speed_profile(run_pd(inst).schedule)

    def test_per_processor_profile(self):
        # One dominant job guarantees the fastest rank outruns the second.
        inst = Instance.classical(
            [(0.0, 1.0, 10.0), (0.0, 1.0, 1.0), (0.0, 1.0, 1.0)], m=2, alpha=3.0
        )
        from repro.core.pd import run_pd

        sched = run_pd(inst).schedule
        t0 = speed_profile(sched, processor=0)
        t1 = speed_profile(sched, processor=1)
        assert t0 != t1  # fastest vs second rank differ on this instance


class TestRegistry:
    def test_registered_names(self):
        names = REGISTRY.names()
        assert "pd" in names and "yds" in names and "exact" in names

    def test_unknown_name(self):
        inst = poisson_instance(3, seed=0)
        with pytest.raises(InvalidParameterError):
            REGISTRY.run("nope", inst)

    @pytest.mark.parametrize("name", ["pd", "cll", "yds", "oa", "avr", "bkp", "qoa"])
    def test_single_proc_algorithms_run(self, name):
        inst = poisson_instance(6, m=1, alpha=3.0, seed=3)
        if name in ("yds", "oa", "avr", "bkp", "qoa"):
            inst = inst.with_values([1e12] * inst.n)
        outcome = REGISTRY.run(name, inst)
        assert outcome.cost >= 0.0
        outcome.schedule.validate()

    @pytest.mark.parametrize("name", ["pd", "oa", "avr", "offline-cp"])
    def test_multi_proc_algorithms_run(self, name):
        inst = poisson_instance(6, m=2, alpha=3.0, seed=4)
        if name != "pd":
            inst = inst.with_values([1e12] * inst.n)
        outcome = REGISTRY.run(name, inst)
        outcome.schedule.validate()

    def test_exact_runs_small(self):
        inst = poisson_instance(5, m=1, alpha=2.0, seed=5)
        outcome = REGISTRY.run("exact", inst)
        pd = REGISTRY.run("pd", inst)
        assert outcome.cost <= pd.cost * (1.0 + 1e-9)

    def test_raw_result_exposed(self):
        inst = poisson_instance(4, m=1, alpha=3.0, seed=6)
        outcome = REGISTRY.run("pd", inst)
        from repro.core.pd import PDResult

        assert isinstance(outcome.raw, PDResult)


class TestSegmentGantt:
    def test_renders_discrete_segments(self):
        from repro.discrete import SpeedSet, run_pd_discrete
        from repro.viz import segment_gantt

        inst = Instance.from_tuples(
            [(0.0, 4.0, 1.5, 10.0), (1.0, 3.0, 1.0, 8.0)], m=2, alpha=3.0
        )
        res = run_pd_discrete(inst, SpeedSet([0.25, 0.5, 1.0, 2.0]))
        text = segment_gantt(res.discrete.segments, width=48, m=2)
        assert "CPU 1" in text and "CPU 2" in text
        assert "A" in text and "B" in text

    def test_empty_segments(self):
        from repro.viz import segment_gantt

        assert segment_gantt([]) == "(empty schedule)"

    def test_processor_count_inferred(self):
        from repro.chen.mcnaughton import Segment
        from repro.viz import segment_gantt

        segs = [
            Segment(job=0, processor=2, start=0.0, end=1.0, speed=1.0),
        ]
        text = segment_gantt(segs, width=10)
        assert "CPU 3" in text
