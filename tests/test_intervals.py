"""Unit and property tests for the atomic-interval grid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GridMismatchError, InvalidParameterError
from repro.model.intervals import Grid, grid_for_instance
from repro.model.job import Instance, Job
from repro.perf.reference import _refine


def make_grid(*points):
    return Grid.from_points(points)


class TestGridBasics:
    def test_from_points_dedupes_and_sorts(self):
        g = make_grid(3.0, 0.0, 1.0, 1.0 + 1e-15, 3.0)
        np.testing.assert_allclose(g.boundaries, [0.0, 1.0, 3.0])
        assert g.size == 2
        np.testing.assert_allclose(g.lengths, [1.0, 2.0])

    def test_needs_two_boundaries(self):
        with pytest.raises(InvalidParameterError):
            Grid.from_points([1.0])

    def test_interval_and_length(self):
        g = make_grid(0.0, 1.0, 4.0)
        assert g.interval(1) == (1.0, 4.0)
        assert g.length(1) == 3.0
        assert g.span == (0.0, 4.0)

    def test_locate(self):
        g = make_grid(0.0, 1.0, 2.0)
        assert g.locate(0.0) == 0
        assert g.locate(0.99) == 0
        assert g.locate(1.0) == 1  # half-open: boundary belongs to the right
        with pytest.raises(IndexError):
            g.locate(2.0)
        with pytest.raises(IndexError):
            g.locate(-0.5)

    def test_covering_requires_aligned_endpoints(self):
        g = make_grid(0.0, 1.0, 2.0, 3.0)
        assert list(g.covering(1.0, 3.0)) == [1, 2]
        with pytest.raises(GridMismatchError):
            g.covering(0.5, 3.0)

    def test_availability_mask(self):
        g = make_grid(0.0, 1.0, 2.0, 3.0)
        job = Job(1.0, 3.0, 1.0, 1.0)
        np.testing.assert_array_equal(g.availability(job), [False, True, True])

    def test_availability_matrix(self):
        inst = Instance.from_tuples(
            [(0.0, 2.0, 1.0, 1.0), (1.0, 3.0, 1.0, 1.0)]
        )
        g = grid_for_instance(inst)
        mat = g.availability_matrix(inst)
        np.testing.assert_array_equal(
            mat, [[True, True, False], [False, True, True]]
        )

    def test_grid_for_instance_has_at_most_2n_minus_1_intervals(self):
        inst = Instance.from_tuples(
            [(0.0, 5.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0), (3.0, 4.0, 1.0, 1.0)]
        )
        g = grid_for_instance(inst)
        assert g.size <= 2 * inst.n - 1


class TestRefinement:
    """The reference oracle's refinement (:mod:`repro.perf.reference`)."""

    def test_refine_splits_proportionally(self):
        g = make_grid(0.0, 4.0)
        ref = _refine(g, [1.0])
        np.testing.assert_allclose(ref.grid.boundaries, [0.0, 1.0, 4.0])
        np.testing.assert_array_equal(ref.parent, [0, 0])
        np.testing.assert_allclose(ref.fraction, [0.25, 0.75])
        row = ref.split_row(np.array([8.0]))
        np.testing.assert_allclose(row, [2.0, 6.0])

    def test_refine_preserves_row_sums(self):
        g = make_grid(0.0, 2.0, 5.0)
        ref = _refine(g, [0.7, 3.3, 4.9])
        row = np.array([3.0, 10.0])
        split = ref.split_row(row)
        assert split.sum() == pytest.approx(row.sum())

    def test_refine_extends_beyond_span(self):
        g = make_grid(1.0, 2.0)
        ref = _refine(g, [0.0, 3.0])
        np.testing.assert_allclose(ref.grid.boundaries, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ref.parent, [-1, 0, -1])
        row = ref.split_row(np.array([5.0]), fill=0.0)
        np.testing.assert_allclose(row, [0.0, 5.0, 0.0])

    def test_extension_just_past_the_snap_tolerance(self):
        # 2 - 1e-12 and 1.5 + 1e-12 round to floats a few ulps more than
        # 1e-12 away from 2 and 1.5: fresh points, so their intervals
        # extend the span and must not take a share of the load.
        for g, lo, hi in [
            (make_grid(2.0, 2.5), 2.0 - 1e-12, 2.5),
            (make_grid(1.0, 1.5), 1.0, 1.5 + 1e-12),
        ]:
            ref = _refine(g, [lo, hi])
            assert ref.grid.size == 2
            row = ref.split_row(np.array([0.5]), fill=0.0)
            assert row.sum() == 0.5
            assert list(ref.parent).count(-1) == 1

    def test_noop_refinement(self):
        g = make_grid(0.0, 1.0, 2.0)
        ref = _refine(g, [1.0])
        assert ref.grid.same_as(g)

    @given(
        points=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=8
        ).filter(lambda xs: max(xs) - min(xs) > 1e-6),
        new_points=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=5
        ),
    )
    def test_refinement_row_sum_invariant(self, points, new_points):
        """Splitting loads proportionally never changes their total."""
        try:
            g = Grid.from_points(points)
        except InvalidParameterError:
            return  # degenerate point set
        ref = _refine(g, new_points)
        rng = np.random.default_rng(0)
        row = rng.uniform(0.0, 10.0, size=g.size)
        split = ref.split_row(row)
        assert split.sum() == pytest.approx(row.sum(), rel=1e-9)

    @given(
        points=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=8
        ).filter(lambda xs: max(xs) - min(xs) > 1e-6),
    )
    def test_refinement_preserves_speeds(self, points):
        """Proportional splitting keeps per-interval speeds unchanged.

        The paper's Section 3 argument: load/length is invariant under
        the split because both scale with the sub-interval length.
        """
        try:
            g = Grid.from_points(points)
        except InvalidParameterError:
            return
        mids = [(a + b) / 2 for a, b in zip(g.boundaries, g.boundaries[1:])]
        ref = _refine(g, mids)
        row = np.linspace(1.0, 2.0, g.size)
        speeds_before = row / g.lengths
        split = ref.split_row(row)
        speeds_after = split / ref.grid.lengths
        for k_new in range(ref.grid.size):
            parent = ref.parent[k_new]
            if parent >= 0:
                assert speeds_after[k_new] == pytest.approx(
                    speeds_before[parent], rel=1e-9
                )
