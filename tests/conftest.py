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
    """The cache-key formula, written out: no memo involved.

    The instance enters as sha256 over a canonical-JSON header (``m``,
    ``alpha`` and ``n``; for a ``Job`` tuple also each job name and each
    field that is not a float) and then the four job columns as
    little-endian float64 bytes.
    """
    import hashlib

    from repro.engine.registry import REGISTRY
    from repro.engine.runner import RECORD_VERSION
    from repro.io.serialize import SCHEMA_VERSION, canonical_json, stable_hash

    fields = ("release", "deadline", "workload", "value")
    header = {"m": instance.m, "alpha": instance.alpha, "n": instance.n}
    if not instance.columnar:
        names = [[j, job.name] for j, job in enumerate(instance.jobs) if job.name is not None]
        exact = [
            [j, name, getattr(job, name)]
            for j, job in enumerate(instance.jobs)
            for name in fields
            if not isinstance(getattr(job, name), float)
        ]
        if names:
            header["names"] = names
        if exact:
            header["exact"] = exact
    digest = hashlib.sha256(canonical_json(header).encode("utf-8"))
    for name in fields:
        floats = [float(getattr(job, name)) for job in instance.jobs]
        digest.update(np.array(floats, dtype="<f8").tobytes())

    info = REGISTRY.info(algorithm)
    payload = {
        "kind": "run-request",
        "schema": SCHEMA_VERSION,
        "record": RECORD_VERSION,
        "algorithm": info.base,
        "instance": digest.hexdigest(),
    }
    if info.params:
        payload["params"] = dict(info.params)
    return stable_hash(payload)
