"""JSON-round-trippable representations of instances, schedules, results.

A reproduction library lives or dies by whether experiments can be saved,
shared, and replayed. This module defines a stable, versioned JSON schema
for the three object kinds users exchange:

* **instances** — the problem inputs (jobs + machine),
* **schedules** — a run's results (grid + loads + acceptance) for an
  instance kept elsewhere,
* **run records** — an algorithm name, its schedule, and its certificate,
  which, with the instance the record's key fixes, is everything needed
  to audit a claim offline.

All functions are pure dict <-> object converters; file handling lives in
:func:`save_json` / :func:`load_json`. Unknown schema versions fail loudly
rather than guessing. :func:`instance_digest` is the instance's content
address inside the engine's cache keys.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
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
    "has_schedule_layout",
    "save_json",
    "load_json",
    "canonical_json",
    "stable_hash",
    "instance_digest",
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
#: The three load columns of a schedule payload, in payload order, and
#: the little-endian dtype each is stored in.
_LOAD_COLUMNS = {"interval": "<u4", "job": "<u4", "load": "<f8"}


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Serialize a schedule's results; the instance is not part of it.

    A run record's key already fixes its instance, so the payload keeps
    only what the run decided: the grid ``boundaries`` (CLL's grid
    holds segment cuts the instance does not), the ``finished`` flags,
    the positive loads as three columns (:func:`_load_columns`), and
    ``cost`` and ``energy``. The four numeric columns are base64 text of
    their little-endian bytes (``boundaries`` as ``<f8``), so reading a
    payload back parses four strings instead of a number per value;
    ``finished`` stays a list of bools and ``cost`` and ``energy`` stay
    numbers. :func:`schedule_from_dict` takes the instance from its
    caller.
    """
    return {
        "schema": SCHEMA_VERSION,
        "kind": "schedule",
        "boundaries": _pack(schedule.grid.boundaries, "<f8"),
        "finished": schedule.finished.tolist(),
        "loads": _load_columns(schedule.loads),
        "cost": schedule.cost,
        "energy": schedule.energy,
    }


def _pack(values: np.ndarray, dtype: str) -> str:
    """``values`` as base64 text of their ``dtype`` bytes."""
    packed = np.ascontiguousarray(values, dtype=dtype)
    return base64.b64encode(packed).decode("ascii")


def _load_columns(loads: np.ndarray) -> dict[str, str]:
    """Every positive load as the packed columns ``interval``, ``job``
    and ``load`` (dtypes in :data:`_LOAD_COLUMNS`), interval-major with
    ascending job ids inside each interval: the order
    ``np.nonzero(loads.T > 0.0)`` yields.

    The ids are ``<u4``, so a matrix with ``2**32`` or more jobs or
    intervals raises instead of wrapping.
    """
    if max(loads.shape) >= 2**32:
        raise InvalidParameterError(
            f"a schedule of shape {loads.shape} has more jobs or intervals "
            "than its <u4 load columns can index"
        )
    cols, rows = np.nonzero(loads.T > 0.0)
    values = {"interval": cols, "job": rows, "load": loads[rows, cols]}
    return {name: _pack(values[name], dtype) for name, dtype in _LOAD_COLUMNS.items()}


def _finite_number(value: Any) -> bool:
    """Whether ``value`` is an int or float (not a bool) that a finite
    float64 holds."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _unpack(value: Any, dtype: str, where: str) -> np.ndarray:
    """The ``dtype`` values of a :func:`_pack` text; anything else is an
    :class:`~repro.errors.InvalidParameterError` that starts with
    ``where``, the field's name."""
    if not isinstance(value, str):
        hint = ""
        if isinstance(value, list):
            hint = "record version 4 wrote number lists; "
        raise InvalidParameterError(
            f"{where} must be base64 text of {dtype} values ({hint}got {value!r:.80})"
        )
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise InvalidParameterError(f"{where} is not base64 text ({exc})") from None
    if len(raw) % np.dtype(dtype).itemsize:
        raise InvalidParameterError(
            f"{where} holds {len(raw)} bytes, not a whole number of {dtype} values"
        )
    return np.frombuffer(raw, dtype=dtype)


def _dense_loads(payload: dict[str, Any], n: int, size: int) -> np.ndarray:
    """The ``(n, size)`` load matrix of a payload's load columns, each
    column checked (see :func:`schedule_from_dict`)."""
    columns = payload.get("loads")
    if not isinstance(columns, dict) or sorted(columns) != sorted(_LOAD_COLUMNS):
        raise InvalidParameterError(
            f"schedule field 'loads' must be an object of the columns "
            f"{list(_LOAD_COLUMNS)} (record version 3 wrote a list of "
            f"[job, interval, load] triples), got {columns!r:.80}"
        )
    intervals, jobs, loads = (
        _unpack(columns[name], dtype, f"schedule field 'loads' column {name!r}")
        for name, dtype in _LOAD_COLUMNS.items()
    )
    if not intervals.size == jobs.size == loads.size:
        raise InvalidParameterError(
            "schedule field 'loads' has columns of unequal length "
            f"{dict(interval=intervals.size, job=jobs.size, load=loads.size)}"
        )
    # int64 before any arithmetic: ``interval * n + job`` must not wrap.
    intervals = intervals.astype(np.int64)
    jobs = jobs.astype(np.int64)
    for name, ids, bound in (("interval", intervals, size), ("job", jobs, n)):
        if ids.size and ids.max() >= bound:
            raise InvalidParameterError(
                f"schedule field 'loads' column {name!r} must hold ids in "
                f"0..{bound - 1}, got {int(ids.max())}"
            )
    if np.any(np.diff(intervals * n + jobs) <= 0):
        raise InvalidParameterError(
            "schedule field 'loads' must list each (interval, job) once, "
            "interval-major with ascending job ids"
        )
    bad = ~((loads > 0.0) & (loads < np.inf))  # NaN fails both
    if bad.any():
        raise InvalidParameterError(
            "schedule field 'loads' column 'load' must hold finite "
            f"positive numbers, got {float(loads[bad.argmax()])!r}"
        )
    dense = np.zeros((n, size))
    dense[jobs, intervals] = loads
    return dense


def has_schedule_layout(payload: Any, n: int) -> bool:
    """Whether ``payload`` has the field types :func:`schedule_to_dict`
    writes for an instance of ``n`` jobs: ``n`` ``finished`` flags in a
    list, and ``boundaries`` and the three load columns as text.

    A type check only, for a cache probe: nothing is decoded, so a
    payload that passes may still fail :func:`schedule_from_dict`.
    """
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("finished"), list)
        and len(payload["finished"]) == n
        and isinstance(payload.get("boundaries"), str)
    ):
        return False
    columns = payload.get("loads")
    return isinstance(columns, dict) and all(
        isinstance(columns.get(name), str) for name in _LOAD_COLUMNS
    )


def schedule_from_dict(payload: dict[str, Any], instance: Instance) -> Schedule:
    """Inverse of :func:`schedule_to_dict`, given the ``instance`` the
    schedule was computed on; recomputes (and checks) cost.

    Each field is checked, and a payload that does not fit raises an
    :class:`~repro.errors.InvalidParameterError` naming the field:
    ``boundaries`` must be base64 text of finite ``<f8`` values forming
    a grid, ``finished`` one bool per job of ``instance``, ``cost`` (if
    given) a finite number, and ``loads`` three columns of base64 text
    holding equally many values, whose ids are in range, list each
    position once in the order :func:`schedule_to_dict` writes, and
    whose loads are finite and positive. A version-4 payload (number
    lists) and a version-3 one (a list of triples) are refused.
    """
    _require_kind(payload, "schedule")
    where = "schedule field 'boundaries'"
    boundaries = _unpack(payload.get("boundaries"), "<f8", where)
    if not np.isfinite(boundaries).all():
        raise InvalidParameterError(
            f"{where} must hold finite numbers, got {boundaries.tolist()!r:.80}"
        )
    grid = Grid(boundaries)
    finished = payload.get("finished")
    if (
        not isinstance(finished, list)
        or len(finished) != instance.n
        or not all(isinstance(f, bool) for f in finished)
    ):
        raise InvalidParameterError(
            f"schedule field 'finished' must be {instance.n} bools, one per "
            f"job of the instance, got {finished!r:.80}"
        )
    schedule = Schedule(
        instance=instance,
        grid=grid,
        loads=_dense_loads(payload, instance.n, grid.size),
        finished=np.array(finished, dtype=bool),
    )
    stored = payload.get("cost", schedule.cost)
    if not _finite_number(stored):
        raise InvalidParameterError(
            f"schedule field 'cost' must be a finite number, got {stored!r:.80}"
        )
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
    :func:`instance_digest` plus the algorithm name and the versions, so
    any change to a job, the machine environment, or a schema version
    changes the key, while re-ordering dict keys or re-serializing does
    not.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


#: The ``Job`` fields the instance digest reads as columns, in order.
_JOB_FIELDS = ("release", "deadline", "workload", "value")


def instance_digest(instance: Instance) -> str:
    """Content address of an instance, as the engine's cache keys hold it.

    sha256 over a canonical-JSON header, then the four job columns as
    little-endian float64 bytes. Two instances digest alike **if and
    only if** their ``canonical_json(instance_to_dict(...))`` texts are
    equal: a finite float's eight bytes and its ``repr`` fix each other,
    and the header holds what a float column cannot — ``m`` and
    ``alpha`` as the text writes them, ``n``, and, for a ``Job`` tuple,
    each job ``name`` and each field that is not a Python float (``1``,
    ``1.0`` and ``true`` are three texts but one float). A columnar
    instance (nameless, all-float) therefore digests like its
    ``Job``-tuple twin. The header is a JSON object, so none is a prefix
    of another, and ``n`` fixes where each column ends.
    """
    header: dict[str, Any] = {
        "m": instance.m,
        "alpha": instance.alpha,
        "n": instance.n,
    }
    if not instance.columnar:
        names = [
            [j, job.name] for j, job in enumerate(instance.jobs) if job.name is not None
        ]
        exact = [
            [j, name, value]
            for j, job in enumerate(instance.jobs)
            for name in _JOB_FIELDS
            if not isinstance(value := getattr(job, name), float)
        ]
        if names:
            header["names"] = names
        if exact:
            header["exact"] = exact
    digest = hashlib.sha256(canonical_json(header).encode("utf-8"))
    arrays = instance.arrays
    for column in (arrays.releases, arrays.deadlines, arrays.workloads, arrays.values):
        digest.update(np.ascontiguousarray(column, dtype="<f8"))
    return digest.hexdigest()


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
