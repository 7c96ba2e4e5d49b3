"""Columnar workload instances and the column-reading serializer.

The random families (``poisson``, ``heavy-tail``, ``uniform``) and
``tight`` build :class:`~repro.model.job_arrays.JobArrays` columns, and
``instance_to_dict`` (so ``request_key``) reads those columns. The
contract: the same floats, the same canonical text, the same keys as the
``Job``-tuple path — and no ``Job`` built on the way.
"""

from __future__ import annotations

import hashlib
import json
import math

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

#: sha256 over the newline-joined keys of :func:`golden_keys`, computed
#: on the build whose families made ``Job`` objects one at a time.
GOLDEN_DIGESTS = {
    "poisson": "1402b473148485bdcaea2c6883f1444c75803e723f1469ad1fb7f8aac6999e5c",
    "heavy-tail": "b937b44b9f2acb77332424d374f0f24f160a308371af72b43e0b077a6eb69851",
    "uniform": "9a6367048dc4189c40b7b48799d5aa1485d4aae1e2f5ea9c9c357e4d9f9bdd8e",
    "tight": "1032074eceaa246e1c66d0b37652b4b8ba3a3ebf4590cc653cebd04df9b0ba93",
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
# Sparse load triples
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 25)])
def test_sparse_loads_equal_the_argwhere_formula(shape):
    rng = np.random.default_rng(sum(shape))
    loads = rng.choice(
        [0.0, -0.0, 5e-324, 2.5e-310, 0.3, 1.0, 1e300, -1.0], size=shape
    )
    old = [
        [int(j), int(k), float(loads[j, k])] for j, k in np.argwhere(loads > 0.0)
    ]
    new = serialize._sparse_loads(loads)
    assert json.dumps(new) == json.dumps(old)
    assert all(type(j) is int and type(k) is int and type(u) is float for j, k, u in new)
    assert serialize._sparse_loads(np.zeros(shape)) == []


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
