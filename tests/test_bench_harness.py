"""The perf harness: scenario runs, BENCH json schema, baseline gate."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import InvalidParameterError
from repro.perf.bench import (
    SCENARIOS,
    _calibration_seconds,
    compare_to_baseline,
    load_result,
    run_scenario,
    write_result,
)


def _series(rows, calibration=0.05, scenario="pd-scaling"):
    return {
        "schema": 1,
        "kind": "bench-series",
        "scenario": scenario,
        "environment": {"calibration_seconds": calibration},
        "series": rows,
    }


class TestScenarios:
    def test_known_scenarios_are_registered(self):
        assert {
            "pd-scaling",
            "oa-scaling",
            "cll-scaling",
            "yds-scaling",
            "cache-micro",
        } <= set(SCENARIOS)

    def test_smoke_grids_are_subsets_of_full(self):
        for scenario in SCENARIOS.values():
            full = {tuple(sorted(p.items())) for p in scenario.full}
            smoke = {tuple(sorted(p.items())) for p in scenario.smoke}
            assert smoke <= full, scenario.name

    def test_run_scenario_emits_schema(self, tmp_path):
        lines = []
        payload = run_scenario(
            "cache-micro", grid="smoke", progress=lines.append
        )
        assert payload["kind"] == "bench-series"
        assert payload["scenario"] == "cache-micro"
        assert payload["environment"]["calibration_seconds"] > 0.0
        assert len(lines) == len(payload["series"]) == 3
        for row in payload["series"]:
            assert {"n", "m", "wall_time"} <= set(row)
            assert row["wall_time"] >= 0.0
        path = write_result(payload, str(tmp_path))
        assert path.endswith("BENCH_cache-micro.json")
        assert load_result(path) == json.load(open(path))

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here"
    )
    def test_fabric_point_runs_pinned_and_restores_the_mask(self, monkeypatch):
        """A fabric point runs on one CPU, and the caller's mask comes
        back afterwards, also when the point raises."""
        from repro.perf import bench

        before = os.sched_getaffinity(0)
        seen = []

        def measure(point):
            seen.append(os.sched_getaffinity(0))
            if point.get("fail"):
                raise RuntimeError("point failed")
            return {}

        monkeypatch.setattr(bench, "_fabric_run", measure)
        point = SCENARIOS["fabric-throughput"].run_point
        assert point({"op": "steal-hits"}) == {}
        with pytest.raises(RuntimeError):
            point({"op": "steal-hits", "fail": True})
        assert seen == [{min(before)}] * 2
        assert os.sched_getaffinity(0) == before

    def test_warm_sweep_point_serves_every_cell_from_the_cache(self):
        row = SCENARIOS["warm-sweep"].run_point({"n": 12, "passes": 2})
        # PD on all 12 instances, CLL on the six with m=1.
        assert row["n"] == 12 and row["passes"] == 2 and row["cells"] == 18
        assert row["wall_time"] > 0.0 and row["cost"] > 0.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown bench"):
            run_scenario("warp-drive")
        with pytest.raises(InvalidParameterError, match="grid"):
            run_scenario("cache-micro", grid="huge")

    def test_load_rejects_non_bench_payloads(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "sweep"}')
        with pytest.raises(InvalidParameterError, match="not a BENCH"):
            load_result(str(path))


class TestBaselineGate:
    def test_regression_detected_beyond_factor(self):
        base = _series([{"n": 100, "m": 1, "wall_time": 0.10}])
        slow = _series([{"n": 100, "m": 1, "wall_time": 0.25}])
        fine = _series([{"n": 100, "m": 1, "wall_time": 0.19}])
        assert compare_to_baseline(slow, base, factor=2.0)
        assert not compare_to_baseline(fine, base, factor=2.0)

    def test_identity_keys_must_match(self):
        base = _series([{"n": 100, "m": 1, "wall_time": 0.01}])
        other_point = _series([{"n": 200, "m": 1, "wall_time": 0.001}])
        # A current point the baseline cannot match is reported, however
        # fast: a dropped or renamed identity axis must not take a whole
        # scenario out of the gate.
        (report,) = compare_to_baseline(other_point, base)
        assert "n=200 m=1" in report and "no baseline row" in report
        renamed = _series(
            [{"n": 100, "m": 1, "client": "pooled", "wall_time": 0.001}]
        )
        (report,) = compare_to_baseline(renamed, base)
        assert "client=pooled" in report

    def test_baseline_only_rows_are_ignored(self):
        base = _series(
            [
                {"n": 100, "m": 1, "wall_time": 0.10},
                {"n": 200, "m": 1, "wall_time": 0.20},
            ]
        )
        # A smoke grid is a subset of the full grid its baseline holds.
        smoke = _series([{"n": 100, "m": 1, "wall_time": 0.10}])
        assert not compare_to_baseline(smoke, base)

    def test_measured_fields_do_not_affect_identity(self):
        base = _series(
            [{"n": 50, "m": 1, "wall_time": 0.10, "cost": 1.0}]
        )
        current = _series(
            [{"n": 50, "m": 1, "wall_time": 0.15, "cost": 2.0}]
        )
        # The points match despite different measurements: the time is
        # within budget and the only report is the moved cost.
        (report,) = compare_to_baseline(current, base, factor=2.0)
        assert "cost" in report

    def test_cost_mismatch_reported(self):
        base = _series([{"n": 50, "m": 4, "wall_time": 0.10, "cost": 4387.0}])
        moved = _series(
            [{"n": 50, "m": 4, "wall_time": 0.10, "cost": 4387.0 * (1 + 1e-8)}]
        )
        (report,) = compare_to_baseline(moved, base, factor=2.0)
        assert "n=50 m=4" in report and "cost" in report

    def test_cost_drift_within_float_noise_passes(self):
        base = _series([{"n": 50, "m": 4, "wall_time": 0.10, "cost": 4387.0}])
        drift = _series(
            [{"n": 50, "m": 4, "wall_time": 0.10, "cost": 4387.0 * (1 + 1e-12)}]
        )
        assert not compare_to_baseline(drift, base, factor=2.0)

    def test_rows_without_cost_are_ignored(self):
        costed = _series([{"n": 50, "m": 1, "wall_time": 0.10, "cost": 1.0}])
        bare = _series([{"n": 50, "m": 1, "wall_time": 0.10}])
        assert not compare_to_baseline(bare, costed, factor=2.0)
        assert not compare_to_baseline(costed, bare, factor=2.0)

    def test_calibration_is_the_median_of_five_timings(self):
        # Start/stop readings of a scripted clock: the yardstick times
        # 1.0, 0.5, 3.0, 0.25 and 4.0 s, one outlier each way.
        readings = iter([0.0, 1.0, 10.0, 10.5, 20.0, 23.0, 30.0, 30.25, 40.0, 44.0])
        assert _calibration_seconds(clock=lambda: next(readings)) == 1.0
        assert next(readings, None) is None

    def test_calibration_rescales_budget(self):
        base = _series([{"n": 1, "m": 1, "wall_time": 0.10}], calibration=0.05)
        # Same measured time on a machine twice as slow: not a regression.
        current = _series(
            [{"n": 1, "m": 1, "wall_time": 0.30}], calibration=0.10
        )
        assert not compare_to_baseline(current, base, factor=2.0)
        # On an equally fast machine the same point fails the gate.
        current_fast = _series(
            [{"n": 1, "m": 1, "wall_time": 0.30}], calibration=0.05
        )
        assert compare_to_baseline(current_fast, base, factor=2.0)

    def test_factor_validated(self):
        base = _series([])
        with pytest.raises(InvalidParameterError, match="factor"):
            compare_to_baseline(base, base, factor=1.0)


class TestBenchCli:
    def test_bench_cli_smoke_with_gate(self, tmp_path):
        from repro.io.cli import main

        out = tmp_path / "results"
        baseline = tmp_path / "baseline"
        argv = ["bench", "--scenario", "cache-micro", "--out", str(out)]
        assert main(
            [*argv, "--grid", "full", "--update-baseline", str(baseline)]
        ) == 0
        assert (out / "BENCH_cache-micro.json").exists()
        assert (baseline / "BENCH_cache-micro.json").exists()
        # A smoke run gated against the full baseline must pass.
        assert main(
            [*argv, "--grid", "smoke", "--baseline", str(baseline)]
        ) == 0

    def test_update_baseline_requires_full_grid(self, tmp_path):
        from repro.io.cli import main

        code = main(
            [
                "bench",
                "--scenario",
                "cache-micro",
                "--grid",
                "smoke",
                "--out",
                str(tmp_path / "r"),
                "--update-baseline",
                str(tmp_path / "b"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "b").exists()

    def test_bench_cli_rejects_unknown_scenario(self):
        from repro.io.cli import main

        assert main(["bench", "--scenario", "nope"]) == 2
