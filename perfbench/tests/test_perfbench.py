"""Tests of the benchmark's own logic: the percentile rule, span self
time, metric names, and failure counting. Run with

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402


# -- percentile rule -------------------------------------------------------
def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50.0) == 50
    assert measure.percentile(samples, 90.0) == 90
    assert measure.percentile(reversed(samples), 99.0) == 99
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)


@pytest.mark.parametrize(
    "count, expected",
    [
        (99, None),  # p90 leaves only 9 samples beyond it
        (100, 90.0),  # exactly 10 beyond p90
        (999, 90.0),  # p99 leaves 9 beyond
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    samples = [float(i) for i in range(count)]
    tail = measure.tail_percentile(samples)
    if expected is None:
        assert tail is None
    else:
        pct, value = tail
        assert pct == expected
        assert sum(s > value for s in samples) >= measure.TAIL_MIN_BEYOND


def test_reportable_refuses_a_thin_tail():
    assert measure.reportable(list(range(99)), 90.0) is None
    assert measure.reportable(list(range(100)), 90.0) == 89
    assert measure.reportable([3.0], 50.0) == 3.0


# -- span self time ----------------------------------------------------------
def _span(sid, start, end, parent=None):
    return {"span": sid, "name": f"s{sid}", "start": start, "end": end,
            "parent": parent, "cell": None, "pass": 0}


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),  # overlaps span 2
        _span(4, 8.0, 12.0, parent=1),  # runs past its parent's end
        _span(5, 2.0, 3.0, parent=2),  # grandchild: only span 2 loses it
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == 3.0


def test_recorder_round_trips_through_jsonl(tmp_path):
    rec = tracing.Recorder()
    rec.begin_pass("traced")
    inner = rec.wrap("inner", lambda: sum(range(1000)))
    outer = rec.wrap("outer", lambda: inner() + inner(), cell="c1")
    outer()
    rec.count("calls", 2)
    rec.end_pass(1.0)
    path = tmp_path / "trace.jsonl"
    rec.write_jsonl(path)
    spans, counters, passes = tracing.read_jsonl(path)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    (top,) = by_name["outer"]
    assert all(s["parent"] == top["span"] for s in by_name["inner"])
    assert all(s["cell"] == "c1" for s in spans)
    selfs = tracing.self_times(spans)
    children = sum(s["end"] - s["start"] for s in by_name["inner"])
    assert selfs[top["span"]] == pytest.approx(top["end"] - top["start"] - children)
    assert counters == [{"counter": "calls", "pass": 0, "value": 2}]
    assert passes == [{"pass": 0, "mode": "traced", "wall": 1.0}]


def test_hooks_skip_missing_targets_and_restore():
    class Owner:
        def method(self):
            return "original"

    rec = tracing.Recorder()
    hooks = tracing.Hooks(rec)
    rec.begin_pass("traced")
    hooks.patch(Owner, "method", lambda fn: rec.wrap("owner.method", fn))
    hooks.patch(Owner, "gone", lambda fn: fn)
    assert Owner().method() == "original"
    assert [s[1] for s in rec.spans] == ["owner.method"]
    assert hooks.skipped == ["Owner.gone"]
    hooks.undo()
    assert "gone" not in vars(Owner)
    assert Owner.method.__name__ == "method"


# -- metric names --------------------------------------------------------------
def test_declared_metric_names_are_well_formed():
    measure.check_names(measure.END_TO_END)
    measure.check_names(measure.PER_LAYER)
    measure.check_names(measure.END_TO_END + measure.PER_LAYER)


@pytest.mark.parametrize(
    "metrics",
    [
        [("_lead", "s")],
        [("has space", "s")],
        [("x" * 65, "s")],
        [("ok", "per second!")],
        [("ok", "s"), ("ok", "ms")],
    ],
)
def test_bad_metric_names_are_rejected(metrics):
    with pytest.raises(ValueError):
        measure.check_names(metrics)


def test_benchmark_json_matches_declarations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        measure.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        measure.PER_LAYER
    )
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- failure counting ------------------------------------------------------------
def test_tally_counts_fail_frac():
    tally = measure.Tally()
    with pytest.raises(ValueError):
        tally.fail_frac
    tally.attempt(36)
    tally.fail("one bad cell")
    tally.fail("a raised pass", 4)
    assert tally.fail_frac == pytest.approx(5 / 36)
    assert tally.reasons == ["one bad cell", "a raised pass"]


def test_yardstick_slowdown_over_a_window():
    ruler = measure.Yardstick()
    ruler.sample()
    ruler.sample("record", 1, 36)  # also usable as a progress callback
    assert len(ruler.samples) == 2 and ruler.spent > 0.0
    mark = ruler.mark()
    nominal = measure.YARDSTICK_NOMINAL_S
    ruler.samples += [2.0 * nominal, 4.0 * nominal]
    assert ruler.slowdown(mark) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        ruler.slowdown(len(ruler.samples))


def _record(**changes):
    from repro.engine.runner import RunRecord

    fields = dict(
        algorithm="pd", cost=3.0, energy=2.0, lost_value=1.0, acceptance=1.0,
        certified_ratio=1.5, dual_g=2.0, schedule={"finished": [True, True]},
        key="k1", cached=False, tag={"params": {"alpha": 2.0}}, wall_time=0.25,
    )
    fields.update(changes)
    return RunRecord(**fields)


def test_record_checks():
    from scenarios import record_problem

    good = _record()
    assert record_problem(good) is None
    assert "alpha^alpha" in record_problem(_record(certified_ratio=4.5))
    assert "CLL" in record_problem(_record(algorithm="cll", certified_ratio=math.inf))
    assert "energy" in record_problem(_record(cost=3.5))
    reference = {"k1": good}
    assert record_problem(_record(cached=True), reference) is None
    assert "differs" in record_problem(_record(cached=True, energy=1.5, lost_value=1.5),
                                       reference)


def test_sweep_checks_count_failed_cells(tmp_path):
    from scenarios import PassResult, Scenario

    tally = measure.Tally()
    scenario = Scenario(tmp_path, 0, tally)
    tally.attempt(3)
    result = PassResult(1.0, 0)
    records = [_record(), _record(key="k2", certified_ratio=9.0), _record(key="k3")]
    scenario.check_sweep(records, 3, result, fresh=True)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert result.eval_ms == [250.0, 250.0, 250.0]
    tally.attempt(3)
    scenario.check_sweep(records[:2], 3, result, fresh=True)
    assert (tally.attempted, tally.failed) == (6, 4)  # a short pass fails all
