"""The families that draw one value at a time, against their scalar-call
oracle.

``agreeable``, ``laminar``, ``batch``, ``tight``, ``bursty`` and
``diurnal`` draw through ``rng.random()`` and
``rng.standard_exponential()``: ``low + (high - low) * rng.random()`` is
numpy's ``random_uniform`` and ``scale * rng.standard_exponential()`` its
``random_exponential``, read from the same bit-generator outputs. The
reference below is the code that called ``rng.uniform`` and
``rng.exponential`` one value at a time, frozen; every generated
instance must equal it bitwise, in canonical JSON and in
``instance_digest``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.io.serialize import canonical_json, instance_digest, instance_to_dict
from repro.model.job import Instance, Job
from repro.model.power import optimal_constant_speed_energy
from repro.workloads import (
    agreeable_instance,
    batch_instance,
    bursty_instance,
    diurnal_instance,
    diurnal_intensity,
    laminar_instance,
    tight_instance,
)
from repro.workloads.random_instances import valued_instance

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# The scalar-call oracle (frozen; do not edit)
# ----------------------------------------------------------------------
def _value_ref(rng, alpha, w, span, value_ratio):
    solo = optimal_constant_speed_energy(alpha, w, span)
    return float(rng.uniform(*value_ratio)) * solo


def agreeable_ref(n, *, m, alpha, value_ratio, seed):
    rng = np.random.default_rng(seed)
    releases = np.sort(rng.uniform(0.0, 10.0, size=n))
    spans = rng.uniform(1.0, 3.0, size=n)
    deadlines = np.maximum.accumulate(releases + spans)
    jobs = []
    for i in range(n):
        w = float(rng.uniform(0.2, 1.5))
        span = float(deadlines[i] - releases[i])
        jobs.append(
            Job(float(releases[i]), float(deadlines[i]), w,
                _value_ref(rng, alpha, w, span, value_ratio))
        )
    return Instance(tuple(jobs), m=m, alpha=alpha)


def laminar_ref(depth, *, branching, m, alpha, value_ratio, seed):
    rng = np.random.default_rng(seed)
    jobs = []

    def recurse(lo, hi, level):
        span = hi - lo
        w = float(rng.uniform(0.2, 0.8)) * span
        jobs.append(Job(lo, hi, w, _value_ref(rng, alpha, w, span, value_ratio)))
        if level + 1 >= depth:
            return
        step = span / branching
        for b in range(branching):
            recurse(lo + b * step, lo + (b + 1) * step, level + 1)

    recurse(0.0, float(2**depth), 0)
    return Instance(tuple(jobs), m=m, alpha=alpha)


def batch_ref(n, *, m, alpha, deadline, value_ratio, seed):
    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(n):
        w = float(rng.uniform(0.1, 2.0))
        jobs.append(
            Job(0.0, deadline, w, _value_ref(rng, alpha, w, deadline, value_ratio))
        )
    return Instance(tuple(jobs), m=m, alpha=alpha)


def tight_ref(n, *, m, alpha, slack, value_ratio, seed):
    rng = np.random.default_rng(seed)
    rows = []
    t = 0.0
    for _ in range(n):
        t += float(rng.exponential(0.5))
        w = float(rng.uniform(0.2, 1.5))
        ratio = float(rng.uniform(*value_ratio))
        span = w * slack
        rows.append((t, t + span, w, span, ratio))
    releases, deadlines, workloads, spans, ratios = np.array(rows).T
    return valued_instance(
        releases, deadlines, workloads, spans, ratios, alpha=alpha, m=m
    )


def bursty_ref(n, *, burstiness, spike_period, m, alpha, base_span, seed):
    rng = np.random.default_rng(seed)
    rows = []
    t = 0.0
    for i in range(n):
        span = (
            base_span / burstiness
            if i % spike_period == spike_period - 1
            else base_span
        )
        rows.append((t, t + span, 1.0))
        t += float(rng.uniform(0.25 * base_span, 0.5 * base_span))
    return Instance.classical(rows, m=m, alpha=alpha)


def diurnal_ref(n, *, m, alpha, day, interactive_fraction, base_rate, seed):
    rng = np.random.default_rng(seed)
    releases = []
    t = 0.0
    while len(releases) < n:
        t += float(rng.exponential(1.0 / base_rate))
        if t >= day:
            t = t % day
        if rng.uniform() <= diurnal_intensity(t, day=day):
            releases.append(t)
    releases.sort()
    jobs = []
    for i, r in enumerate(releases):
        interactive = rng.uniform() < interactive_fraction
        if interactive:
            w = float(rng.exponential(0.3)) + 0.02
            span = float(rng.uniform(0.1, 0.5))
            ratio = float(rng.uniform(2.0, 8.0))
            name = f"web{i}"
        else:
            w = float(rng.exponential(3.0)) + 0.1
            span = float(rng.uniform(2.0, 8.0))
            ratio = float(rng.uniform(0.3, 2.0))
            name = f"batch{i}"
        solo = optimal_constant_speed_energy(alpha, w, span)
        jobs.append(Job(r, r + span, w, ratio * solo, name=name))
    return Instance(tuple(jobs), m=m, alpha=alpha)


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
def assert_bitwise(mine: Instance, oracle: Instance) -> None:
    assert canonical_json(instance_to_dict(mine)) == canonical_json(
        instance_to_dict(oracle)
    )
    assert instance_digest(mine) == instance_digest(oracle)


seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 300)
machines = st.integers(1, 4)
alphas = st.one_of(st.floats(1.05, 4.0), st.sampled_from([2, 3]))
positive = st.floats(0.05, 20.0)


@st.composite
def value_ratios(draw):
    """Float or int bounds, ``lo == hi`` included."""
    if draw(st.booleans()):
        lo = draw(st.integers(1, 6))
        return (lo, lo + draw(st.integers(0, 6)))
    lo = draw(positive)
    return (lo, draw(st.sampled_from([lo, lo * 1.5, lo + 7.25])))


common = dict(n=sizes, m=machines, alpha=alphas, seed=seeds)


@SETTINGS
@given(**common, value_ratio=value_ratios())
def test_agreeable(n, m, alpha, seed, value_ratio):
    kw = dict(m=m, alpha=alpha, value_ratio=value_ratio, seed=seed)
    assert_bitwise(agreeable_instance(n, **kw), agreeable_ref(n, **kw))


@SETTINGS
@given(
    depth=st.integers(1, 5),
    branching=st.integers(2, 3),
    m=machines,
    alpha=alphas,
    seed=seeds,
    value_ratio=value_ratios(),
)
def test_laminar(depth, branching, m, alpha, seed, value_ratio):
    kw = dict(
        branching=branching, m=m, alpha=alpha, value_ratio=value_ratio, seed=seed
    )
    assert_bitwise(laminar_instance(depth, **kw), laminar_ref(depth, **kw))


@SETTINGS
@given(
    **common,
    deadline=st.one_of(st.floats(0.1, 10.0), st.integers(1, 5)),
    value_ratio=value_ratios(),
)
def test_batch(n, m, alpha, seed, deadline, value_ratio):
    kw = dict(m=m, alpha=alpha, deadline=deadline, value_ratio=value_ratio, seed=seed)
    assert_bitwise(batch_instance(n, **kw), batch_ref(n, **kw))


@SETTINGS
@given(
    **common,
    slack=st.one_of(st.floats(1.0001, 4.0), st.integers(2, 3)),
    value_ratio=value_ratios(),
)
def test_tight(n, m, alpha, seed, slack, value_ratio):
    kw = dict(m=m, alpha=alpha, slack=slack, value_ratio=value_ratio, seed=seed)
    assert_bitwise(tight_instance(n, **kw), tight_ref(n, **kw))


@SETTINGS
@given(
    **common,
    burstiness=st.one_of(st.floats(1.0, 10.0), st.integers(1, 8)),
    spike_period=st.integers(2, 6),
    base_span=st.one_of(positive, st.integers(1, 5)),
)
def test_bursty(n, m, alpha, seed, burstiness, spike_period, base_span):
    kw = dict(
        burstiness=burstiness, spike_period=spike_period, m=m, alpha=alpha,
        base_span=base_span, seed=seed,
    )
    assert_bitwise(bursty_instance(n, **kw), bursty_ref(n, **kw))


@SETTINGS
@given(
    **common,
    day=st.one_of(st.floats(1.0, 48.0), st.integers(1, 48)),
    interactive_fraction=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1])),
    base_rate=st.one_of(st.floats(0.5, 20.0), st.integers(1, 20)),
)
def test_diurnal(n, m, alpha, seed, day, interactive_fraction, base_rate):
    kw = dict(
        m=m, alpha=alpha, day=day, interactive_fraction=interactive_fraction,
        base_rate=base_rate, seed=seed,
    )
    assert_bitwise(diurnal_instance(n, **kw), diurnal_ref(n, **kw))


def test_a_shared_generator_is_left_where_the_oracle_leaves_it():
    """A caller's ``Generator`` is advanced by exactly the oracle's
    draws, so a family composed after another on one stream still reads
    the same outputs."""
    mine, theirs = np.random.default_rng(5), np.random.default_rng(5)
    kw = dict(m=1, alpha=3.0, slack=1.2, value_ratio=(0.2, 5.0))
    assert_bitwise(tight_instance(40, seed=mine, **kw), tight_ref(40, seed=theirs, **kw))
    assert mine.bit_generator.state == theirs.bit_generator.state
