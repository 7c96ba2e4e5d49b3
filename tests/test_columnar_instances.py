"""Columnar workload instances and the column-reading serializer.

The random families (``poisson``, ``heavy-tail``, ``uniform``) and
``tight`` build :class:`~repro.model.job_arrays.JobArrays` columns, and
``instance_to_dict`` (so ``request_key``) reads those columns. The
contract: the same floats, the same canonical text, the same keys as the
``Job``-tuple path — and no ``Job`` built on the way.
"""

from __future__ import annotations

import base64
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro.io.serialize as serialize
from repro.engine import ExperimentSpec
from repro.engine.runner import request_key
from repro.errors import InvalidJobError, InvalidParameterError
from repro.io.serialize import canonical_json, instance_to_dict
from repro.model.job import Instance, Job
from repro.model.job_arrays import JobArrays
from repro.workloads import (
    WORKLOADS,
    agreeable_instance,
    batch_instance,
    heavy_tail_instance,
    laminar_instance,
    poisson_instance,
    slotted_instance,
    tight_instance,
    uniform_instance,
)

from conftest import unmemoized_key

CONVERTED = ("poisson", "heavy-tail", "uniform", "tight")

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def text(instance: Instance) -> str:
    return canonical_json(instance_to_dict(instance))


# ----------------------------------------------------------------------
# Golden keys: the converted families key exactly as the Job-tuple build
# ----------------------------------------------------------------------
#: Family knobs beyond the defaults: an int ``slack`` for ``tight``.
FAMILY_KNOBS = {"poisson": {}, "heavy-tail": {}, "uniform": {}, "tight": {"slack": 2}}
GOLDEN_ALGORITHMS = ("pd", "pd?delta=0.05")

#: sha256 over the newline-joined keys of :func:`golden_keys`. Recorded
#: for record version 5 (keys hash the instance digest; 5 changed only
#: the version they fold in) from the ``Job``-tuple twins of the same
#: instances, through the written-out formula ``conftest.unmemoized_key``.
GOLDEN_DIGESTS = {
    "poisson": "b60e8a27d80a254c0b4869ae3ff07694a609430ba72e5e436a87cad854cb02c1",
    "heavy-tail": "671160a2498136473a0c9b2bd0779a71d9a4a280568870f8f53ee58f56e7edd4",
    "uniform": "524102b904808daf27561b836605be1d45e7382960361c1ca6f22a470c458c0f",
    "tight": "ea52c415efa1f03cf5fdd60fb4e743f304dc6c7d8d405a364ffd8a41e2b4f503",
}


def golden_keys(family: str) -> list[str]:
    """Keys over seeds, float and int alpha, m in {1, 4}, the family's
    knobs, int ``value_ratio`` bounds, and the ``value_x`` axis."""
    generate = WORKLOADS.info(family).generator
    knobs = FAMILY_KNOBS[family]
    keys = []
    for seed in (0, 1, 7):
        for alpha in (2.0, 3, 1.5):
            for m in (1, 4):
                for extra in ({}, knobs, {"value_ratio": (1, 4)}):
                    inst = generate(40, m=m, alpha=alpha, seed=seed, **extra)
                    keys += [request_key(a, inst) for a in GOLDEN_ALGORITHMS]
    spec = ExperimentSpec(
        name="golden",
        family=family,
        grid={"value_x": [0.5, 3]},
        algorithms=GOLDEN_ALGORITHMS,
        n=40,
        seeds=(3, 4),
        family_kwargs=knobs,
    )
    keys += [request_key(r.algorithm, r.instance) for r in spec.requests()]
    return keys


@pytest.mark.parametrize("family", CONVERTED)
def test_golden_keys_are_unchanged(family):
    keys = golden_keys(family)
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[family]


@pytest.mark.parametrize("family", CONVERTED)
def test_converted_families_are_columnar_and_key_as_job_tuples(family):
    inst = WORKLOADS.info(family).generator(60, m=2, alpha=2.5, seed=9)
    assert inst.columnar
    tuple_twin = Instance(inst.jobs, m=inst.m, alpha=inst.alpha)
    assert not tuple_twin.columnar
    assert instance_to_dict(inst) == instance_to_dict(tuple_twin)
    for algorithm in ("pd", "cll", "pd?delta=0.05"):
        assert request_key(algorithm, inst) == unmemoized_key(algorithm, tuple_twin)


def test_columnar_transforms_stay_columnar_and_equal_the_job_path():
    inst = poisson_instance(30, m=2, alpha=3.0, seed=4)
    twin = Instance(inst.jobs, m=2, alpha=3.0)
    values = inst.values * 1.7
    for mine, theirs in (
        (inst.with_values(values), twin.with_values(values)),
        (inst.with_values_scaled(1.7), twin.with_values_scaled(1.7)),
        (inst.with_values_scaled(3), twin.with_values_scaled(3)),
        (inst.sorted_by_release(), twin.sorted_by_release()),
    ):
        assert mine.columnar and not theirs.columnar
        assert text(mine) == text(theirs)


def test_with_values_keeps_what_job_keeps():
    """Only a float64 array becomes a column; every other input goes
    through ``Job``, as it did when the family built ``Job`` tuples."""
    inst = poisson_instance(4, m=1, alpha=3.0, seed=5)
    twin = Instance(inst.jobs, m=1, alpha=3.0)
    for values, written in (
        ([10**12] * 4, '"value":1000000000000,'),
        ([True, False, True, True], '"value":false,'),
        ((inst.values * 2.0).tolist(), None),
    ):
        mine = inst.with_values(values)
        assert not mine.columnar
        assert text(mine) == text(twin.with_values(values))
        assert request_key("pd", mine) == unmemoized_key("pd", twin.with_values(values))
        if written is not None:
            assert written in text(mine)
    for bad in (["1.5"] * 4, [None] * 4):
        with pytest.raises(InvalidJobError):
            inst.with_values(bad)
    with pytest.raises(InvalidJobError):
        inst.with_values(np.array([1.0, -1.0, 1.0, 1.0]))


def test_job_tuple_text_keeps_ints_bools_and_names():
    inst = Instance(
        (Job(0, 2, 1, 3, "café"), Job(1.5, 4, 0.5, True)), m=2, alpha=2
    )
    assert not inst.columnar
    assert text(inst) == (
        '{"alpha":2,"jobs":['
        '{"deadline":2,"name":"caf\\u00e9","release":0,"value":3,"workload":1},'
        '{"deadline":4,"release":1.5,"value":true,"workload":0.5}'
        '],"kind":"instance","m":2,"schema":1}'
    )
    assert request_key("pd", inst) == unmemoized_key("pd", inst)
    # The value_x axis: an int value times an int factor stays an int.
    tripled = text(inst.with_values_scaled(3))
    assert '"value":9,' in tripled and '"value":3,' in tripled


def test_key_builds_no_job_objects(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Job was built")

    monkeypatch.setattr(Job, "__post_init__", forbidden)
    monkeypatch.setattr(JobArrays, "to_jobs", forbidden)
    monkeypatch.setattr(JobArrays, "job", forbidden)
    for family in CONVERTED + ("slotted",):
        inst = WORKLOADS.info(family).generator(50, m=2, alpha=3.0, seed=3)
        instance_to_dict(inst)
        request_key("pd?delta=0.05", inst)
        inst.with_values(inst.values * 2.0).sorted_by_release()
        inst.with_values_scaled(0.5)
    spec = ExperimentSpec(
        name="no-jobs",
        workloads=list(CONVERTED),
        grid={"alpha": [2.0, 3.0], "value_x": [0.5]},
        algorithms=("pd", "cll"),
        n=30,
        seeds=(1, 2),
    )
    spec.fingerprint(spec.requests())


# ----------------------------------------------------------------------
# Differential: the column reader writes what the Job path writes
# ----------------------------------------------------------------------
_WIDE = st.floats(min_value=5e-324, max_value=1e308)


@st.composite
def columnar_instances(draw):
    """Array-backed instances with floats from 5e-324 to 1e308."""
    n = draw(st.integers(min_value=1, max_value=7))
    releases, deadlines = [], []
    for _ in range(n):
        a, b = draw(st.one_of(st.just(0.0), _WIDE)), draw(_WIDE)
        assume(a != b)
        releases.append(min(a, b))
        deadlines.append(max(a, b))
    workloads = draw(st.lists(_WIDE, min_size=n, max_size=n))
    values = draw(st.lists(st.one_of(st.just(0.0), _WIDE), min_size=n, max_size=n))
    arrays = JobArrays(releases, deadlines, workloads, values)
    m = draw(st.integers(min_value=1, max_value=4))
    alpha = draw(st.sampled_from([1.5, 2, 3.0]))
    return Instance.from_arrays(arrays, m=m, alpha=alpha)


@SETTINGS
@given(inst=columnar_instances())
def test_column_reader_matches_the_job_path(inst):
    assert inst.columnar
    key = request_key("pd?delta=0.05", inst)
    twin = Instance(inst.jobs, m=inst.m, alpha=inst.alpha)
    assert text(inst) == text(twin)
    assert key == unmemoized_key("pd?delta=0.05", twin)


# ----------------------------------------------------------------------
# Keys: equal if and only if the canonical texts are equal
# ----------------------------------------------------------------------
_FIELDS = ("release", "deadline", "workload", "value")

#: One perturbation of a base instance per pair (see ``_perturbed``).
PERTURBATIONS = (
    "twin",  # the same jobs, columnar <-> Job tuple
    "ulp",  # one field one ulp away
    "int",  # an int in place of a float field
    "bool",  # True in place of a workload or value
    "big-int",  # ints 2**60 and 2**60 + 1: one float, two texts
    "name",  # a name added or changed
    "alpha",  # alpha as int versus float
    "m",
    "swap",  # two jobs swapped
)


def _build(jobs, m, alpha, columnar):
    """A columnar instance where its jobs allow one, else a Job tuple."""
    plain = all(
        job.name is None and all(type(getattr(job, f)) is float for f in _FIELDS)
        for job in jobs
    )
    if columnar and plain:
        return Instance.from_arrays(JobArrays.from_jobs(jobs), m=m, alpha=alpha)
    return Instance(tuple(jobs), m=m, alpha=alpha)


def _perturbed(draw, kind):
    n = draw(st.integers(min_value=2, max_value=5))
    jobs = []
    for index in range(n):
        release = draw(st.sampled_from([0.0, 0.1, 1.0, 2.0]))
        jobs.append(
            Job(
                release,
                release + draw(st.sampled_from([0.7, 1.0, 3.0])),
                draw(st.sampled_from([0.3, 1.0, 2.0])),
                draw(st.sampled_from([0.0, 1e-3, 1.0, 5.0])),
                "a" if index == 0 and draw(st.booleans()) else None,
            )
        )
    m = draw(st.integers(min_value=1, max_value=3))
    alpha = draw(st.sampled_from([2.0, 2.5, 3.0]))
    columnar = draw(st.booleans())
    j = draw(st.integers(min_value=0, max_value=n - 1))
    job = jobs[j]
    changed = list(jobs)
    other = dict(m=m, alpha=alpha, columnar=columnar)
    if kind == "twin":
        other["columnar"] = not columnar
    elif kind == "ulp":
        field = draw(st.sampled_from(_FIELDS))
        x = getattr(job, field)
        down = field == "release" and x > 0.0
        y = float(np.nextafter(x, -np.inf if down else np.inf))
        changed[j] = replace(job, **{field: y})
    elif kind == "int":
        field = draw(st.sampled_from(_FIELDS))
        x = getattr(job, field)
        changed[j] = replace(
            job, **{field: math.floor(x) if field == "release" else math.ceil(x)}
        )
    elif kind == "bool":
        changed[j] = replace(job, **{draw(st.sampled_from(["workload", "value"])): True})
    elif kind == "big-int":
        jobs[j] = replace(job, value=2**60)
        changed[j] = replace(job, value=draw(st.sampled_from([2**60, 2**60 + 1])))
    elif kind == "name":
        changed[j] = replace(job, name=draw(st.sampled_from(["a", "b"])))
    elif kind == "alpha":
        other["alpha"] = int(alpha) if alpha.is_integer() else alpha
    elif kind == "m":
        other["m"] = draw(st.integers(min_value=1, max_value=3))
    elif kind == "swap":
        i = draw(st.integers(min_value=0, max_value=n - 1))
        changed[i], changed[j] = changed[j], changed[i]
    return _build(jobs, m, alpha, columnar), _build(changed, **other)


@pytest.mark.parametrize("kind", PERTURBATIONS)
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_keys_are_equal_iff_texts_are_equal(kind, data):
    base, other = _perturbed(data.draw, kind)
    same_text = text(base) == text(other)
    for algorithm in ("pd", "pd?delta=0.05"):
        same_key = request_key(algorithm, base) == request_key(algorithm, other)
        assert same_key == same_text, (kind, text(base), text(other))
        assert request_key(algorithm, other) == unmemoized_key(algorithm, other)


# ----------------------------------------------------------------------
# Load columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 25)])
def test_sparse_loads_equal_the_argwhere_formula(shape):
    rng = np.random.default_rng(sum(shape))
    loads = rng.choice(
        [0.0, -0.0, 5e-324, 2.5e-310, 0.3, 1.0, 1e300, -1.0], size=shape
    )
    positions = [(int(k), int(j)) for k, j in np.argwhere(loads.T > 0.0)]
    assert positions == sorted(positions)  # interval-major, jobs ascending
    old = {
        "interval": [k for k, _ in positions],
        "job": [j for _, j in positions],
        "load": [float(loads[j, k]) for k, j in positions],
    }
    packed = serialize._load_columns(loads)
    assert all(type(text) is str for text in packed.values())
    new = {
        name: np.frombuffer(base64.b64decode(packed[name]), dtype=dtype)
        for name, dtype in (("interval", "<u4"), ("job", "<u4"), ("load", "<f8"))
    }
    assert new["interval"].tolist() == old["interval"]
    assert new["job"].tolist() == old["job"]
    assert new["load"].tobytes() == np.array(old["load"], dtype="<f8").tobytes()
    assert serialize._load_columns(np.zeros(shape)) == {
        "interval": "",
        "job": "",
        "load": "",
    }


def test_load_columns_refuse_ids_beyond_u4():
    """Job ids and interval indices are stored as ``<u4``: a matrix with
    2**32 jobs or intervals raises instead of wrapping (a zero-stride
    view, so nothing is allocated)."""
    for shape in ((2**32, 1), (1, 2**32)):
        with pytest.raises(InvalidParameterError, match="<u4"):
            serialize._load_columns(np.broadcast_to(1.0, shape))


# ----------------------------------------------------------------------
# value_ratio: one canonical check, before any draw
# ----------------------------------------------------------------------
VALUED_FAMILIES = {
    "poisson": lambda vr, rng: poisson_instance(5, value_ratio=vr, seed=rng),
    "heavy-tail": lambda vr, rng: heavy_tail_instance(5, value_ratio=vr, seed=rng),
    "uniform": lambda vr, rng: uniform_instance(5, value_ratio=vr, seed=rng),
    "tight": lambda vr, rng: tight_instance(5, value_ratio=vr, seed=rng),
    "agreeable": lambda vr, rng: agreeable_instance(5, value_ratio=vr, seed=rng),
    "batch": lambda vr, rng: batch_instance(5, value_ratio=vr, seed=rng),
    "laminar": lambda vr, rng: laminar_instance(3, value_ratio=vr, seed=rng),
    "slotted": lambda vr, rng: slotted_instance(5, value_ratio=vr, seed=rng),
}
BAD_RATIOS = [
    (-1, 2),
    (2, 1),
    (math.nan, 1),
    (0, 0),
    (1, math.inf),
    (-math.inf, 1),
    (1,),
    None,
    "ab",
]


@pytest.mark.parametrize("family", sorted(VALUED_FAMILIES))
@pytest.mark.parametrize("ratio", BAD_RATIOS, ids=repr)
def test_bad_value_ratio_is_rejected_before_any_draw(family, ratio):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidParameterError, match="value_ratio"):
        VALUED_FAMILIES[family](ratio, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("family", sorted(VALUED_FAMILIES))
def test_equal_bounds_are_a_valid_value_ratio(family):
    inst = VALUED_FAMILIES[family]((2, 2), np.random.default_rng(0))
    assert inst.n >= 1 and float(inst.values.min()) > 0.0
