"""Shared type aliases and small typed helpers used across :mod:`repro`.

Centralizing the aliases keeps signatures short and consistent: time
points, speeds, workloads, and energies are all plain ``float`` values,
but annotating them with their semantic alias documents intent.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeAlias

import numpy as np
import numpy.typing as npt

__all__ = [
    "Time",
    "Speed",
    "Work",
    "Energy",
    "Value",
    "JobId",
    "ProcId",
    "IntervalIndex",
    "FloatArray",
    "IntArray",
    "BoolArray",
    "SpeedFunction",
    "Seed",
    "as_float_array",
    "as_int_array",
    "left_sum",
]

#: A point in (continuous) time.
Time: TypeAlias = float

#: A processor speed, in units of work per unit time.
Speed: TypeAlias = float

#: An amount of work.
Work: TypeAlias = float

#: An amount of energy (power integrated over time).
Energy: TypeAlias = float

#: A job's value (the loss suffered if it is not finished).
Value: TypeAlias = float

#: Index of a job within an :class:`repro.model.Instance` (0-based).
JobId: TypeAlias = int

#: Index of a processor, ``0 <= i < m``.
ProcId: TypeAlias = int

#: Index of an atomic interval within a grid (0-based).
IntervalIndex: TypeAlias = int

FloatArray: TypeAlias = npt.NDArray[np.float64]
IntArray: TypeAlias = npt.NDArray[np.int64]
BoolArray: TypeAlias = npt.NDArray[np.bool_]

#: A piecewise speed function sampled at arbitrary times.
SpeedFunction: TypeAlias = Callable[[float], float]

#: Anything acceptable to :func:`numpy.random.default_rng`.
Seed: TypeAlias = "int | np.random.Generator | None"


def as_float_array(values: Sequence[float] | FloatArray) -> FloatArray:
    """Return ``values`` as a contiguous 1-D ``float64`` array.

    A no-copy passthrough when the input already satisfies the contract.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    return arr


def as_int_array(values: Sequence[int] | IntArray) -> IntArray:
    """Return ``values`` as a contiguous 1-D ``int64`` array."""
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    return arr


def left_sum(values: Iterable[float]) -> float:
    """Sum floats left to right, rounding after every add.

    This is the builtin ``sum`` of Python 3.10 and 3.11. From 3.12 on,
    ``sum`` compensates float rounding, so ``sum([1e16, 1.0, -1e16])``
    is ``1.0`` there and ``0.0`` before; result floats summed here are
    the same on every interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total
