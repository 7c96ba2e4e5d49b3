"""Tests for the adversarial instance search (:mod:`repro.analysis.adversary`).

The search is a falsification harness for Theorem 3, so its own tests
focus on: mutations always produce valid instances, the search is
deterministic under a fixed seed, it strictly improves over its seeds
when improvement is findable, and the certificate re-check is wired into
every evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.adversary import (
    mutate_instance,
    search_adversarial,
)
from repro.errors import InvalidParameterError
from repro.model.job import Instance
from repro.workloads import lower_bound_instance, poisson_instance

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


class TestMutations:
    @given(
        seed=st.integers(min_value=0, max_value=30),
        steps=st.integers(min_value=1, max_value=25),
    )
    @SETTINGS
    def test_mutation_chain_always_valid(self, seed, steps):
        rng = np.random.default_rng(seed)
        inst = poisson_instance(4, m=2, alpha=3.0, seed=seed)
        for _ in range(steps):
            inst = mutate_instance(inst, rng)  # Job/Instance validate on init
            assert inst.n >= 1
            assert inst.m == 2 and inst.alpha == 3.0

    def test_mutations_cover_all_operators(self):
        """Over many draws every operator fires: sizes grow and shrink,
        windows and values change."""
        rng = np.random.default_rng(0)
        inst = poisson_instance(4, m=1, alpha=3.0, seed=1)
        sizes, value_changed, window_changed = set(), False, False
        current = inst
        for _ in range(200):
            new = mutate_instance(current, rng)
            sizes.add(new.n)
            if new.n == current.n:
                if not np.array_equal(new.values, current.values):
                    value_changed = True
                if not (
                    np.array_equal(new.releases, current.releases)
                    and np.array_equal(new.deadlines, current.deadlines)
                ):
                    window_changed = True
            current = new
        assert len(sizes) > 2
        assert value_changed and window_changed

    def test_single_job_never_dropped_to_zero(self):
        rng = np.random.default_rng(3)
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0)], m=1, alpha=2.0)
        for _ in range(50):
            inst = mutate_instance(inst, rng)
            assert inst.n >= 1


class TestSearch:
    def _seeds(self, n_seeds=2):
        return [poisson_instance(5, m=1, alpha=3.0, seed=s) for s in range(n_seeds)]

    def test_requires_seeds(self):
        with pytest.raises(InvalidParameterError):
            search_adversarial([], rounds=1)

    def test_deterministic_under_seed(self):
        a = search_adversarial(self._seeds(), rounds=30, rng=7)
        b = search_adversarial(self._seeds(), rounds=30, rng=7)
        assert a.ratio == b.ratio
        assert a.instance.jobs == b.instance.jobs
        assert a.history == b.history

    def test_never_worse_than_best_seed(self):
        from repro.analysis.certificates import dual_certificate
        from repro.core.pd import run_pd

        seeds = self._seeds()
        seed_best = max(
            dual_certificate(run_pd(s)).ratio for s in seeds
        )
        out = search_adversarial(seeds, rounds=40, rng=0)
        assert out.ratio >= seed_best - 1e-12
        assert out.history[-1] == pytest.approx(out.ratio)
        assert out.evaluations >= len(seeds)

    def test_improves_on_easy_landscape(self):
        # Random Poisson seeds sit far from the bound; 60 rounds of
        # hill-climbing reliably finds something strictly harder.
        out = search_adversarial(self._seeds(), rounds=60, rng=0)
        assert len(out.history) >= 2, "search never improved on its seeds"
        assert out.history[-1] > out.history[0]

    def test_ratio_within_theorem_bound(self):
        out = search_adversarial(self._seeds(), rounds=50, rng=2)
        assert out.ratio <= out.bound + 1e-9
        assert out.slack == pytest.approx(out.bound / out.ratio)

    def test_max_jobs_respected(self):
        out = search_adversarial(self._seeds(1), rounds=60, rng=4, max_jobs=6)
        assert out.instance.n <= 6

    def test_optimal_objective_small_instances(self):
        seeds = [poisson_instance(4, m=1, alpha=2.0, seed=9)]
        out = search_adversarial(
            seeds, objective="optimal", rounds=15, rng=5, max_jobs=6
        )
        # True competitive ratio is at least 1 and inside the bound.
        assert 1.0 - 1e-9 <= out.ratio <= out.bound + 1e-9

    def test_lower_bound_family_seed_is_already_hard(self):
        """Seeding with the paper's adversarial staircase starts the
        search at a ratio far above random instances'."""
        staircase = lower_bound_instance(12, 3.0)
        random_seed = poisson_instance(12, m=1, alpha=3.0, seed=0)
        hard = search_adversarial([staircase], rounds=0, rng=0)
        easy = search_adversarial([random_seed], rounds=0, rng=0)
        assert hard.ratio > easy.ratio
