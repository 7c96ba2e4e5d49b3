"""JSON-round-trippable representations of instances, schedules, results.

A reproduction library lives or dies by whether experiments can be saved,
shared, and replayed. This module defines a stable, versioned JSON schema
for the three object kinds users exchange:

* **instances** — the problem inputs (jobs + machine),
* **schedules** — full solutions (grid + loads + acceptance),
* **run records** — an algorithm name, its schedule, and its certificate,
  which is everything needed to audit a claim offline.

All functions are pure dict <-> object converters; file handling lives in
:func:`save_json` / :func:`load_json`. Unknown schema versions fail loudly
rather than guessing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import InvalidParameterError
from ..model.intervals import Grid
from ..model.job import Instance, Job
from ..model.schedule import Schedule

__all__ = [
    "SCHEMA_VERSION",
    "instance_to_dict",
    "instance_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_json",
    "load_json",
    "canonical_json",
    "stable_hash",
]

SCHEMA_VERSION = 1


def _require_kind(payload: dict, kind: str) -> None:
    if payload.get("schema") != SCHEMA_VERSION:
        raise InvalidParameterError(
            f"unsupported schema version {payload.get('schema')!r}; "
            f"this library writes version {SCHEMA_VERSION}"
        )
    if payload.get("kind") != kind:
        raise InvalidParameterError(
            f"expected a {kind!r} payload, got {payload.get('kind')!r}"
        )


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """Serialize an instance (jobs keep their optional names).

    A columnar instance (:attr:`Instance.columnar`) is read from its
    float64 columns, so no ``Job`` is built; its jobs are nameless and
    all-float, so the rows equal the ones its ``Job`` tuple would give.
    """
    if instance.columnar:
        a = instance.arrays
        jobs = [
            {"release": r, "deadline": d, "workload": w, "value": v}
            for r, d, w, v in zip(
                a.releases.tolist(),
                a.deadlines.tolist(),
                a.workloads.tolist(),
                a.values.tolist(),
            )
        ]
    else:
        jobs = [
            {
                "release": job.release,
                "deadline": job.deadline,
                "workload": job.workload,
                "value": job.value,
                **({"name": job.name} if job.name is not None else {}),
            }
            for job in instance.jobs
        ]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "instance",
        "m": instance.m,
        "alpha": instance.alpha,
        "jobs": jobs,
    }


def _number_field(payload: dict[str, Any], name: str, where: str) -> float:
    """``payload[name]`` as a float; a missing or non-numeric field is an
    :class:`~repro.errors.InvalidParameterError` naming it."""
    value = payload.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = (
            f"must be a number, got {value!r}" if name in payload else "is missing"
        )
        raise InvalidParameterError(f"{where} field {name!r} {problem}")
    return float(value)


def instance_from_dict(payload: dict[str, Any]) -> Instance:
    """Inverse of :func:`instance_to_dict`, with validation.

    The file's shape is checked here: ``jobs`` is a list of objects with
    numeric ``release``, ``deadline``, ``workload`` and ``value``, ``m``
    is a whole number and ``alpha`` a number, each failure an
    :class:`~repro.errors.InvalidParameterError` naming the field.
    :class:`Job` and :class:`Instance` check the ranges, and that a job's
    optional ``name`` is a string.
    """
    _require_kind(payload, "instance")
    rows = payload.get("jobs")
    if not isinstance(rows, list):
        problem = (
            f"must be a list of job objects, got {rows!r}"
            if "jobs" in payload
            else "is missing"
        )
        raise InvalidParameterError(f"instance field 'jobs' {problem}")
    jobs = []
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise InvalidParameterError(
                f"instance job {index} must be an object, got {row!r}"
            )
        where = f"instance job {index}:"
        jobs.append(
            Job(
                release=_number_field(row, "release", where),
                deadline=_number_field(row, "deadline", where),
                workload=_number_field(row, "workload", where),
                value=_number_field(row, "value", where),
                name=row.get("name"),
            )
        )
    m = _number_field(payload, "m", "instance")
    if not m.is_integer():  # a whole float (a file may say 2.0) is fine
        raise InvalidParameterError(
            f"instance field 'm' must be a whole number, got {m!r}"
        )
    return Instance(
        tuple(jobs), m=int(m), alpha=_number_field(payload, "alpha", "instance")
    )


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Serialize a schedule; loads are stored sparsely (job, interval, load)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "schedule",
        "instance": instance_to_dict(schedule.instance),
        "boundaries": schedule.grid.boundaries.tolist(),
        "finished": schedule.finished.tolist(),
        "loads": _sparse_loads(schedule.loads),
        "cost": schedule.cost,
        "energy": schedule.energy,
    }


def _sparse_loads(loads: np.ndarray) -> list[list[Any]]:
    """``[j, k, load]`` for every positive load, in row-major order.

    One ``np.nonzero`` (C order, as ``np.argwhere``) and three ``tolist``
    columns: the same Python ints and floats as indexing each element.
    """
    rows, cols = np.nonzero(loads > 0.0)
    return [
        [j, k, u]
        for j, k, u in zip(rows.tolist(), cols.tolist(), loads[rows, cols].tolist())
    ]


def schedule_from_dict(payload: dict[str, Any]) -> Schedule:
    """Inverse of :func:`schedule_to_dict`; recomputes (and checks) cost."""
    _require_kind(payload, "schedule")
    instance = instance_from_dict(payload["instance"])
    grid = Grid(np.array(payload["boundaries"], dtype=np.float64))
    loads = np.zeros((instance.n, grid.size))
    for j, k, u in payload["loads"]:
        loads[int(j), int(k)] = float(u)
    schedule = Schedule(
        instance=instance,
        grid=grid,
        loads=loads,
        finished=np.array(payload["finished"], dtype=bool),
    )
    stored = float(payload.get("cost", schedule.cost))
    if abs(stored - schedule.cost) > 1e-6 * max(1.0, abs(stored)):
        raise InvalidParameterError(
            f"stored cost {stored} disagrees with recomputed {schedule.cost}; "
            "the payload was produced by an incompatible build or corrupted"
        )
    return schedule


# ----------------------------------------------------------------------
# Stable hashing (content addresses for the engine's result cache)
# ----------------------------------------------------------------------
def canonical_json(payload: dict[str, Any]) -> str:
    """A canonical text form of a payload: sorted keys, no whitespace.

    Floats serialize via ``repr`` (shortest round-tripping form), so two
    payloads hash equal iff they deserialize to bit-identical values.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stable_hash(payload: dict[str, Any]) -> str:
    """Content address of a JSON payload: sha256 of its canonical form.

    This is the engine's cache-key primitive: an (algorithm × instance)
    cell is keyed by the stable hash of the instance's
    :func:`instance_to_dict` form plus the algorithm name, so any change
    to a job, the machine environment, or the schema version changes the
    key, while re-ordering dict keys or re-serializing does not.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def save_json(payload: dict[str, Any], path: str | Path) -> None:
    """Write a payload with stable formatting (diff-friendly)."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a payload produced by :func:`save_json`.

    A path that cannot be read, a file that is not JSON, and JSON that
    is not an object each raise
    :class:`~repro.errors.InvalidParameterError` naming the path.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidParameterError(
            f"cannot read {path} ({exc.strerror or exc})"
        ) from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvalidParameterError(f"{path} is not a JSON file ({exc})") from None
    if not isinstance(payload, dict):
        raise InvalidParameterError(
            f"{path} does not hold a JSON object (got {type(payload).__name__})"
        )
    return payload
