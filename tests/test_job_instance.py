"""Unit tests for jobs and instances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidInstanceError, InvalidJobError, InvalidParameterError
from repro.model.job import Instance, Job


class TestJob:
    def test_basic_construction(self):
        j = Job(1.0, 3.0, 2.0, 5.0, name="x")
        assert j.window == (1.0, 3.0)
        assert j.span == 2.0
        assert j.density == 1.0
        assert j.label() == "x"

    def test_default_label_uses_index(self):
        assert Job(0.0, 1.0, 1.0, 1.0).label(7) == "J7"

    @pytest.mark.parametrize(
        "release,deadline,workload,value",
        [
            (-1.0, 1.0, 1.0, 1.0),  # negative release
            (1.0, 1.0, 1.0, 1.0),  # empty window
            (2.0, 1.0, 1.0, 1.0),  # inverted window
            (0.0, 1.0, 0.0, 1.0),  # zero workload
            (0.0, 1.0, -1.0, 1.0),  # negative workload
            (0.0, 1.0, 1.0, -1.0),  # negative value
            (0.0, float("inf"), 1.0, 1.0),  # infinite deadline
            (float("nan"), 1.0, 1.0, 1.0),  # NaN release
        ],
    )
    def test_invalid_jobs_rejected(self, release, deadline, workload, value):
        with pytest.raises(InvalidJobError):
            Job(release, deadline, workload, value)

    def test_zero_value_allowed(self):
        assert Job(0.0, 1.0, 1.0, 0.0).value == 0.0

    @pytest.mark.parametrize("name", [[1, 2], {"a": 1}, 5, b"x"])
    def test_name_is_a_string_or_none(self, name):
        with pytest.raises(InvalidJobError, match="name"):
            Job(0.0, 1.0, 1.0, 1.0, name=name)
        assert Job(0.0, 1.0, 1.0, 1.0, name="").label() == ""
        assert Job(0.0, 1.0, 1.0, 1.0, name=None).name is None

    def test_with_value(self):
        j = Job(0.0, 1.0, 1.0, 1.0)
        assert j.with_value(9.0).value == 9.0
        assert j.value == 1.0  # original unchanged

    def test_jobs_are_immutable(self):
        j = Job(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            j.workload = 2.0  # type: ignore[misc]


class TestInstance:
    def test_from_tuples_and_arrays(self):
        inst = Instance.from_tuples(
            [(0.0, 2.0, 1.0, 3.0), (1.0, 4.0, 2.0, 5.0)], m=2, alpha=2.5
        )
        assert inst.n == 2
        np.testing.assert_allclose(inst.releases, [0.0, 1.0])
        np.testing.assert_allclose(inst.deadlines, [2.0, 4.0])
        np.testing.assert_allclose(inst.workloads, [1.0, 2.0])
        np.testing.assert_allclose(inst.values, [3.0, 5.0])
        assert inst.total_value == 8.0
        assert inst.horizon == (0.0, 4.0)

    def test_classical_jobs_have_huge_values(self):
        inst = Instance.classical([(0.0, 1.0, 1.0)])
        assert inst[0].value >= 1e29

    def test_event_times_deduplicated_sorted(self):
        inst = Instance.from_tuples(
            [(0.0, 2.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0)]
        )
        np.testing.assert_allclose(inst.event_times(), [0.0, 1.0, 2.0])

    def test_invalid_machine(self):
        with pytest.raises(InvalidParameterError):
            Instance((Job(0, 1, 1, 1),), m=0)
        with pytest.raises(InvalidParameterError):
            Instance((Job(0, 1, 1, 1),), m=1, alpha=1.0)

    def test_sorted_by_release_tiebreak_deadline(self):
        inst = Instance.from_tuples(
            [(0.0, 3.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0), (0.0, 2.0, 1.0, 1.0)]
        )
        ordered = inst.sorted_by_release()
        assert [j.deadline for j in ordered.jobs] == [1.0, 2.0, 3.0]

    def test_arrival_order_matches_sorted(self):
        inst = Instance.from_tuples(
            [(2.0, 3.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0)]
        )
        order = inst.arrival_order()
        assert order == [1, 2, 0]

    def test_restrict(self):
        inst = Instance.from_tuples(
            [(0.0, 1.0, 1.0, 1.0), (1.0, 2.0, 2.0, 2.0), (2.0, 3.0, 3.0, 3.0)]
        )
        sub = inst.restrict([2, 0])
        assert sub.n == 2
        assert sub[0].workload == 3.0
        assert sub[1].workload == 1.0

    def test_with_machine(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0)], m=1, alpha=2.0)
        other = inst.with_machine(m=4)
        assert other.m == 4 and other.alpha == 2.0
        other2 = inst.with_machine(alpha=3.0)
        assert other2.m == 1 and other2.alpha == 3.0

    def test_with_values_length_check(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0)])
        with pytest.raises(InvalidInstanceError):
            inst.with_values([1.0, 2.0])
        assert inst.with_values([7.0])[0].value == 7.0

    def test_scaled(self):
        inst = Instance.from_tuples([(1.0, 3.0, 2.0, 5.0)])
        s = inst.scaled(time=2.0, work=3.0)
        assert s[0].release == 2.0
        assert s[0].deadline == 6.0
        assert s[0].workload == 6.0
        assert s[0].value == 5.0  # values do not scale

    def test_scaled_invalid(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0)])
        with pytest.raises(InvalidParameterError):
            inst.scaled(time=0.0)

    def test_describe_contains_counts(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0)], m=3, alpha=2.0)
        text = inst.describe()
        assert "n=1" in text and "m=3" in text

    def test_iteration_and_indexing(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0), (0.0, 2.0, 2.0, 2.0)])
        assert len(inst) == 2
        assert [j.workload for j in inst] == [1.0, 2.0]
        assert inst[1].workload == 2.0
