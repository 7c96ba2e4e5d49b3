"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.job import Instance


@pytest.fixture
def simple_single_proc() -> Instance:
    """Four overlapping must-finish jobs on one processor."""
    return Instance.classical(
        [(0.0, 4.0, 2.0), (1.0, 2.0, 1.5), (2.5, 3.5, 0.8), (0.5, 3.0, 1.0)],
        m=1,
        alpha=3.0,
    )


@pytest.fixture
def simple_multi_proc() -> Instance:
    """Same jobs on two processors."""
    return Instance.classical(
        [(0.0, 4.0, 2.0), (1.0, 2.0, 1.5), (2.5, 3.5, 0.8), (0.5, 3.0, 1.0)],
        m=2,
        alpha=3.0,
    )


@pytest.fixture
def profitable_instance() -> Instance:
    """Small instance with a value spread that forces mixed decisions."""
    return Instance.from_tuples(
        [
            (0.0, 2.0, 1.0, 0.8),
            (0.0, 1.0, 1.0, 5.0),
            (1.0, 3.0, 2.0, 0.2),
            (1.5, 4.0, 0.5, 2.0),
        ],
        m=1,
        alpha=2.0,
    )


def numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] = max(xm[i] - h, 0.0)
        g[i] = (f(xp) - f(xm)) / (xp[i] - xm[i])
    return g


def unmemoized_key(algorithm: str, instance: Instance) -> str:
    """The cache-key formula, written out: no memo involved."""
    from repro.engine.registry import REGISTRY
    from repro.engine.runner import RECORD_VERSION
    from repro.io.serialize import SCHEMA_VERSION, instance_to_dict, stable_hash

    info = REGISTRY.info(algorithm)
    payload = {
        "kind": "run-request",
        "schema": SCHEMA_VERSION,
        "record": RECORD_VERSION,
        "algorithm": info.base,
        "instance": instance_to_dict(instance),
    }
    if info.params:
        payload["params"] = dict(info.params)
    return stable_hash(payload)
