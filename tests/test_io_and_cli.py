"""Tests for JSON serialization, the audit report, and the CLI."""

from __future__ import annotations

import base64
import json
import math
import re
import socket

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.io.server as server_module
from repro.analysis.report import audit_run
from repro.core.pd import run_pd
from repro.engine import SqliteCache
from repro.errors import InvalidParameterError
from repro.io.cli import build_parser, main
from repro.io.serialize import (
    instance_from_dict,
    instance_to_dict,
    load_json,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.model.intervals import Grid
from repro.model.job import Instance
from repro.model.schedule import Schedule
from repro.workloads import poisson_instance


class TestInstanceSerialization:
    def test_roundtrip(self):
        inst = poisson_instance(10, m=3, alpha=2.5, seed=0)
        back = instance_from_dict(instance_to_dict(inst))
        assert back.m == inst.m and back.alpha == inst.alpha
        assert back.jobs == inst.jobs

    def test_names_preserved(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0)]).with_values([2.0])
        payload = instance_to_dict(inst)
        assert "name" not in payload["jobs"][0]
        from repro.model.job import Job

        named = Instance((Job(0.0, 1.0, 1.0, 1.0, name="alpha"),))
        back = instance_from_dict(instance_to_dict(named))
        assert back[0].name == "alpha"

    def test_wrong_kind_rejected(self):
        inst = poisson_instance(3, seed=0)
        payload = instance_to_dict(inst)
        payload["kind"] = "schedule"
        with pytest.raises(InvalidParameterError):
            instance_from_dict(payload)

    def test_wrong_schema_rejected(self):
        payload = instance_to_dict(poisson_instance(3, seed=0))
        payload["schema"] = 999
        with pytest.raises(InvalidParameterError):
            instance_from_dict(payload)

    def test_json_file_roundtrip(self, tmp_path):
        inst = poisson_instance(5, seed=1)
        path = tmp_path / "inst.json"
        save_json(instance_to_dict(inst), path)
        assert instance_from_dict(load_json(path)).jobs == inst.jobs

    def test_stable_formatting(self, tmp_path):
        inst = poisson_instance(4, seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_json(instance_to_dict(inst), p1)
        save_json(instance_to_dict(inst), p2)
        assert p1.read_text() == p2.read_text()


class TestScheduleSerialization:
    def test_roundtrip_preserves_cost(self):
        inst = poisson_instance(8, m=2, alpha=3.0, seed=3)
        sched = run_pd(inst).schedule
        back = schedule_from_dict(schedule_to_dict(sched), inst)
        assert back.cost == pytest.approx(sched.cost, rel=1e-9)
        np.testing.assert_allclose(back.loads, sched.loads)
        np.testing.assert_array_equal(back.finished, sched.finished)

    def test_sparse_storage(self):
        inst = poisson_instance(8, m=2, alpha=3.0, seed=4)
        sched = run_pd(inst).schedule
        payload = schedule_to_dict(sched)
        dense = sched.loads.size
        stored = _column(payload["loads"]["load"], "<f8")
        assert 0 < stored.size < dense  # zeros are omitted
        assert "instance" not in payload  # the caller holds it

    def test_tampered_cost_detected(self):
        inst = poisson_instance(5, m=1, alpha=3.0, seed=5)
        payload = schedule_to_dict(run_pd(inst).schedule)
        payload["cost"] = payload["cost"] * 2 + 1
        with pytest.raises(InvalidParameterError):
            schedule_from_dict(payload, inst)

    def test_payload_is_json_serializable(self):
        inst = poisson_instance(5, m=2, alpha=2.0, seed=6)
        payload = schedule_to_dict(run_pd(inst).schedule)
        json.dumps(payload)  # must not raise


@st.composite
def _schedules(draw):
    """A schedule on n in 1..30 jobs and 1..40 intervals: random
    sparsity (the empty schedule included), positive loads from
    subnormal to 1e300, and interval lengths at least the largest load,
    so that the cost stays finite."""
    n = draw(st.integers(1, 30))
    size = draw(st.integers(1, 40))
    mask = draw(st.lists(st.booleans(), min_size=n * size, max_size=n * size))
    positive = st.floats(min_value=5e-324, max_value=1e300)
    loads = np.array(
        [draw(positive) if bit else 0.0 for bit in mask], dtype=np.float64
    ).reshape(n, size)
    unit = max(1.0, float(loads.max()))
    lengths = draw(st.lists(st.floats(1.0, 1e3), min_size=size, max_size=size))
    boundaries = np.concatenate([[0.0], np.cumsum(np.array(lengths) * unit)])
    instance = Instance.from_tuples(
        [(0.0, 1.0, 1.0, draw(st.floats(0.5, 2.0))) for _ in range(n)],
        m=draw(st.sampled_from([1, 2, 4])),
        alpha=draw(st.sampled_from([1.5, 2.0, 3.0])),
    )
    finished = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Schedule(instance, Grid(boundaries), loads, np.array(finished))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(schedule=_schedules())
def test_generated_schedules_round_trip_bitwise(schedule):
    text = json.dumps(schedule_to_dict(schedule))
    back = schedule_from_dict(json.loads(text), schedule.instance)
    assert back.grid.boundaries.tobytes() == schedule.grid.boundaries.tobytes()
    assert back.loads.tobytes() == schedule.loads.tobytes()
    assert back.finished.tolist() == schedule.finished.tolist()
    assert math.isfinite(schedule.cost) and back.cost == schedule.cost


#: The dtype each packed load column is stored in.
LOAD_DTYPES = {"interval": "<u4", "job": "<u4", "load": "<f8"}


def _column(text, dtype):
    """The values of a packed payload column."""
    return np.frombuffer(base64.b64decode(text), dtype=dtype)


def _packed(values, dtype):
    """``values`` cast to ``dtype`` (ints wrap, as a careless writer's
    would: -1 becomes 2**32 - 1 in ``<u4``) and packed as a column."""
    raw = np.asarray(values).astype(dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _hostile(payload, field, value):
    """``payload`` with one load column replaced by ``value``; a list is
    packed in that column's dtype first."""
    if isinstance(value, list):
        value = _packed(value, LOAD_DTYPES[field])
    loads = dict(payload["loads"])
    loads[field] = value
    return {**payload, "loads": loads}


class TestHostileSchedulePayloads:
    """Every malformed schedule payload is an InvalidParameterError that
    names the field, never a raw error or a silently moved load."""

    @pytest.fixture(scope="class")
    def case(self):
        inst = poisson_instance(6, m=2, alpha=3.0, seed=4)
        return inst, schedule_to_dict(run_pd(inst).schedule)

    def test_the_untouched_payload_round_trips(self, case):
        inst, payload = case
        back = schedule_from_dict(payload, inst)
        assert schedule_to_dict(back) == payload

    # Each edit gets a column's values as a list and returns either a
    # list, packed back in the column's dtype, or the column's new text.
    @pytest.mark.parametrize(
        "field,edit",
        [
            ("job", lambda col, n, N: col[:-1]),  # unequal lengths
            ("load", lambda col, n, N: col + [1.0]),
            ("job", lambda col, n, N: [-1] + col[1:]),  # out of range: 2**32 - 1
            ("job", lambda col, n, N: [n] + col[1:]),
            ("interval", lambda col, n, N: col[:-1] + [N]),
            ("interval", lambda col, n, N: [-1] + col[1:]),
            ("job", lambda col, n, N: _packed(col, "<f8")),  # not <u4
            ("job", lambda col, n, N: _packed(col, "?")),
            ("interval", lambda col, n, N: " ".join(map(str, col))),  # not base64
            ("job", lambda col, n, N: _packed(col, "<i8")),
            ("load", lambda col, n, N: [math.nan] + col[1:]),  # not finite
            ("load", lambda col, n, N: [math.inf] + col[1:]),
            ("load", lambda col, n, N: [0.0] + col[1:]),  # not positive
            ("load", lambda col, n, N: [-1.5] + col[1:]),
            ("load", lambda col, n, N: _packed(col, "<f4")),  # not <f8
            ("load", lambda col, n, N: None),  # not text
            ("load", lambda col, n, N: [-math.inf] + col[1:]),
            ("job", "not a list"),
        ],
    )
    def test_bad_load_columns(self, case, field, edit):
        inst, payload = case
        column = _column(payload["loads"][field], LOAD_DTYPES[field]).tolist()
        n, size = inst.n, _column(payload["boundaries"], "<f8").size - 1
        value = edit(column, n, size) if callable(edit) else edit
        with pytest.raises(InvalidParameterError, match="'loads'"):
            schedule_from_dict(_hostile(payload, field, value), inst)

    @pytest.mark.parametrize(
        "field,edit",
        [
            pytest.param("job", lambda text: "*" + text[1:], id="non-base64"),
            pytest.param("interval", lambda text: "é" + text[1:], id="non-ascii"),
            pytest.param(
                "load",
                lambda text: base64.b64encode(base64.b64decode(text)[:-1]).decode(),
                id="one-byte-short",
            ),
            pytest.param("interval", lambda text: "", id="unequal-columns"),
            pytest.param(
                "interval",
                lambda text: _packed([2**32 - 1] + _column(text, "<u4")[1:].tolist(),
                                     "<u4"),
                id="id-2**32-1",
            ),
            pytest.param(
                "load",
                lambda text: _packed([-0.0] + _column(text, "<f8")[1:].tolist(),
                                     "<f8"),
                id="negative-zero-load",
            ),
        ],
    )
    def test_bad_packed_text(self, case, field, edit):
        inst, payload = case
        value = edit(payload["loads"][field])
        with pytest.raises(InvalidParameterError, match=f"'loads'.*'{field}'"):
            schedule_from_dict(_hostile(payload, field, value), inst)

    @pytest.mark.parametrize("field", sorted(LOAD_DTYPES))
    def test_v4_number_lists_are_refused(self, case, field):
        inst, payload = case
        listed = _column(payload["loads"][field], LOAD_DTYPES[field]).tolist()
        loads = {**payload["loads"], field: listed}  # not packed: v4's layout
        with pytest.raises(InvalidParameterError, match="'loads'.*version 4"):
            schedule_from_dict({**payload, "loads": loads}, inst)

    def test_v4_boundary_list_is_refused(self, case):
        inst, payload = case
        listed = _column(payload["boundaries"], "<f8").tolist()
        with pytest.raises(InvalidParameterError, match="'boundaries'.*version 4"):
            schedule_from_dict({**payload, "boundaries": listed}, inst)

    def test_v3_triple_layout_is_refused(self, case):
        inst, payload = case
        loads = {
            name: _column(text, LOAD_DTYPES[name]).tolist()
            for name, text in payload["loads"].items()
        }
        triples = sorted(zip(loads["job"], loads["interval"], loads["load"]))
        v3 = {**payload, "loads": [list(t) for t in triples]}
        with pytest.raises(InvalidParameterError, match="'loads'.*version 3"):
            schedule_from_dict(v3, inst)

    def test_repeated_or_reordered_positions_are_refused(self, case):
        inst, payload = case
        loads = {
            name: _column(text, LOAD_DTYPES[name]).tolist()
            for name, text in payload["loads"].items()
        }
        twice = {name: col + col[-1:] for name, col in loads.items()}
        reversed_ = {name: col[::-1] for name, col in loads.items()}
        for columns in (twice, reversed_):
            packed = {
                name: _packed(col, LOAD_DTYPES[name]) for name, col in columns.items()
            }
            with pytest.raises(InvalidParameterError, match="'loads'"):
                schedule_from_dict({**payload, "loads": packed}, inst)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda b: [math.nan] + b[1:], id="nan"),
            pytest.param(lambda b: b[:-1] + [math.inf], id="inf"),
            pytest.param(lambda b: [b[1]] + b[1:], id="repeated"),
            pytest.param(lambda b: b[::-1], id="decreasing"),
            pytest.param(lambda b: b[:1], id="one-boundary"),
        ],
    )
    def test_bad_boundaries(self, case, edit):
        inst, payload = case
        boundaries = _column(payload["boundaries"], "<f8").tolist()
        value = _packed(edit(boundaries), "<f8")
        with pytest.raises(InvalidParameterError, match="boundaries"):
            schedule_from_dict({**payload, "boundaries": value}, inst)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("loads", None),
            ("loads", {"job": [], "load": []}),
            ("boundaries", [0.0, "1"]),
            ("boundaries", [0.0, 10**400]),
            ("boundaries", None),
            ("finished", [True]),
            ("finished", None),
            ("cost", "cheap"),
            ("cost", float("nan")),
        ],
    )
    def test_other_bad_fields(self, case, field, value):
        inst, payload = case
        with pytest.raises(InvalidParameterError, match=f"'{field}'"):
            schedule_from_dict({**payload, field: value}, inst)


class TestAuditReport:
    def test_clean_run_is_certified(self):
        result = run_pd(poisson_instance(12, m=2, alpha=3.0, seed=7))
        report = audit_run(result)
        assert report.ok
        assert "VERDICT: certified" in report.text
        assert sum(report.category_sizes) == 12

    def test_report_contains_key_numbers(self):
        result = run_pd(poisson_instance(8, m=1, alpha=2.0, seed=8))
        report = audit_run(result)
        assert f"{report.certificate.g:.6f}" in report.text
        assert "alpha^alpha" in report.text


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "poisson", "out.json", "-n", "5"])
        assert args.command == "generate" and args.n == 5

    def test_generate_and_run(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        assert main(["generate", "poisson", inst_path, "-n", "8", "--seed", "1"]) == 0
        assert main(["run", "pd", inst_path]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out

    def test_run_saves_schedule(self, tmp_path):
        inst_path = str(tmp_path / "inst.json")
        sched_path = str(tmp_path / "sched.json")
        main(["generate", "uniform", inst_path, "-n", "6", "--seed", "2"])
        assert main(["run", "pd", inst_path, "--save-schedule", sched_path]) == 0
        payload = load_json(sched_path)
        assert payload["kind"] == "schedule"
        # The schedule pairs with its instance file.
        schedule_from_dict(payload, instance_from_dict(load_json(inst_path)))

    def test_compare_skips_incompatible(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        main(["generate", "poisson", inst_path, "-n", "6", "-m", "2", "--seed", "3"])
        assert main(["compare", inst_path, "--algorithms", "pd,cll"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out and "pd" in out

    def test_certify_exit_code(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        main(["generate", "tight", inst_path, "-n", "8", "--seed", "4"])
        assert main(["certify", inst_path]) == 0
        assert "VERDICT: certified" in capsys.readouterr().out

    def test_figures_render(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2a" in out and "Figure 3b" in out

    def test_missing_file_is_graceful(self, capsys):
        assert main(["run", "pd", "/nonexistent/inst.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_gantt_flag(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        main(["generate", "batch", inst_path, "-n", "5", "-m", "2", "--seed", "5"])
        assert main(["run", "pd", inst_path, "--gantt"]) == 0
        assert "CPU 1" in capsys.readouterr().out

    def test_lowerbound_generator(self, tmp_path):
        inst_path = str(tmp_path / "lb.json")
        assert main(["generate", "lowerbound", inst_path, "-n", "6"]) == 0
        inst = instance_from_dict(load_json(inst_path))
        assert inst.n == 6 and inst.m == 1


class TestNewSubcommands:
    """CLI coverage for the discrete / profit / adversary extensions."""

    def _instance(self, tmp_path, **kwargs):
        inst_path = str(tmp_path / "inst.json")
        main(["generate", "poisson", inst_path, "-n", "6", "--seed", "7"])
        return inst_path

    def test_discrete_default_menu(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["discrete", inst_path, "--levels", "6"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "envelope bound" in out

    def test_discrete_explicit_cap(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["discrete", inst_path, "--levels", "8", "--cap", "50"]) == 0
        assert "level" in capsys.readouterr().out

    def test_profit_plain(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["profit", inst_path]) == 0
        assert "profit" in capsys.readouterr().out

    def test_profit_augmented(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["profit", inst_path, "--epsilon", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "eps=0.25" in out

    @staticmethod
    def _fails(argv, capsys, named):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err, err

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
    def test_profit_bad_epsilon_fails_loudly(self, epsilon, tmp_path, capsys):
        """Only 0 means plain PD; anything that is not a finite number
        >= 0 is refused instead of silently running plain PD."""
        inst_path = self._instance(tmp_path)
        self._fails(
            ["profit", inst_path, "--epsilon", epsilon], capsys, "epsilon"
        )

    def test_adversary_rounds_validated(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        self._fails(
            ["adversary", inst_path, "--rounds", "-1"], capsys, "rounds"
        )
        # zero rounds stays legal: the seed instance is evaluated once
        assert main(["adversary", inst_path, "--rounds", "0"]) == 0
        assert "1 evaluations" in capsys.readouterr().out

    def test_adversary_and_save(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        hard_path = str(tmp_path / "hard.json")
        assert (
            main(
                [
                    "adversary",
                    inst_path,
                    "--rounds",
                    "10",
                    "--seed",
                    "1",
                    "--save",
                    hard_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hardest certified ratio" in out
        hard = instance_from_dict(load_json(hard_path))
        assert hard.n >= 1

    def test_policy_algorithms_in_run(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["run", "solo-threshold", inst_path]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_variant_spec_in_run(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["run", "pd?delta=0.05", inst_path]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_unknown_algorithm_in_run_is_graceful(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["run", "nope", inst_path]) == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestSweepSubcommand:
    """CLI coverage for sharding, cache backends, and variant axes."""

    BASE = [
        "sweep", "poisson", "-n", "5", "--alphas", "3.0", "--ms", "1",
        "--algorithms", "pd", "--seeds", "0,1",
    ]

    def test_sweep_with_variant_axis(self, tmp_path, capsys):
        out_path = str(tmp_path / "cells.json")
        argv = self.BASE + ["--variant", "delta=0.01,0.05", "--json", out_path]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        # The title, then one row per cell: its labels padded to 32
        # columns, then the mean cost, worst ratio and acceptance.
        assert lines[0] == "sweep:poisson"
        assert re.fullmatch(
            r"algorithm='pd\?delta=0\.01' alpha=3\.0 m=1 delta=0\.01 "
            r"cost= +\d+\.\d{4} worst_ratio= +\d+\.\d{3} acc= *\d+\.\d%",
            lines[1],
        )
        payload = load_json(out_path)
        assert [c["algorithm"] for c in payload["cells"]] == [
            "pd?delta=0.01", "pd?delta=0.05",
        ]
        assert payload["cells"][0]["params"]["delta"] == 0.01

    def test_sweep_sqlite_backend_caches(self, tmp_path, capsys):
        cache_path = str(tmp_path / "cache.db")
        argv = self.BASE + ["--cache", cache_path, "--cache-backend", "sqlite"]
        assert main(argv) == 0
        assert "2 cells computed, 0 served from cache" in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 cells computed, 2 served from cache" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["dir", "sqlite"])
    def test_sharded_sweep_merges_byte_identical(self, backend, tmp_path, capsys):
        cache_path = str(
            tmp_path / ("cache.db" if backend == "sqlite" else "cache-dir")
        )
        caching = ["--cache", cache_path, "--cache-backend", backend]
        variants = ["--variant", "delta=0.01,0.05"]
        full, merged = str(tmp_path / "full.json"), str(tmp_path / "merged.json")
        shards = [str(tmp_path / f"s{i}.json") for i in range(2)]

        assert main(self.BASE + variants + caching + ["--json", full]) == 0
        for index, shard_path in enumerate(shards):
            argv = self.BASE + variants + caching + [
                "--shard", f"{index}/2", "--json", shard_path,
            ]
            assert main(argv) == 0
        assert main(["sweep", "poisson", "--merge", *shards, "--json", merged]) == 0
        capsys.readouterr()
        with open(full) as f_full, open(merged) as f_merged:
            assert f_full.read() == f_merged.read()
        # each shard file records the strategy and its owned positions
        total = load_json(shards[0])["total"]
        for index, shard_path in enumerate(shards):
            payload = load_json(shard_path)
            assert payload["strategy"] == "rr"
            assert payload["positions"] == list(range(index, total, 2))

    def test_shard_requires_json(self, capsys):
        assert main(self.BASE + ["--shard", "0/2"]) == 2
        assert "--json" in capsys.readouterr().err

    def test_bad_shard_spec(self, capsys):
        assert main(self.BASE + ["--shard", "2", "--json", "x.json"]) == 2
        assert "I/K" in capsys.readouterr().err

    def test_merge_rejects_incomplete_shards(self, tmp_path, capsys):
        shard_path = str(tmp_path / "s0.json")
        argv = self.BASE + ["--shard", "0/2", "--json", shard_path]
        assert main(argv) == 0
        assert main(["sweep", "poisson", "--merge", shard_path]) == 2
        assert "missing shard" in capsys.readouterr().err

    def test_merge_rejects_non_shard_files(self, tmp_path, capsys):
        cells_path = str(tmp_path / "cells.json")
        assert main(self.BASE + ["--json", cells_path]) == 0
        assert main(["sweep", "poisson", "--merge", cells_path]) == 2
        assert "not a sweep shard file" in capsys.readouterr().err


class TestUnusableCacheOrAddress:
    """Where the CLI opens a cache, binds the server or reads a sweep
    list option, a path, an address or a list item it cannot use exits
    2 with one ``error:`` line naming it."""

    SWEEP = [
        "sweep", "poisson", "-n", "3", "--alphas", "3.0", "--ms", "1",
        "--algorithms", "pd", "--seeds", "0",
    ]

    @pytest.mark.parametrize(
        "case",
        [
            "file-as-dir",
            "dir-as-sqlite",
            "stats-dir-as-sqlite",
            "port-above-range",
            "port-negative",
            "host-unresolvable",
            "seeds-not-an-int",
            "ms-fractional",
            "ms-not-an-int",
            "alphas-not-a-number",
            "value-x-not-a-number",
            "variant-not-a-number",
        ],
    )
    def test_canonical_error(self, case, tmp_path, monkeypatch, capsys):
        regular = tmp_path / "file"
        regular.write_text("x")
        folder = tmp_path / "folder"
        folder.mkdir()
        serve = ["cache-serve", str(tmp_path / "served.db"), "--backend", "sqlite"]
        argv, named = {
            "file-as-dir": (
                self.SWEEP + ["--cache", str(regular)],
                ["dir", str(regular)],
            ),
            "dir-as-sqlite": (
                self.SWEEP + ["--cache", str(folder), "--cache-backend", "sqlite"],
                ["sqlite", str(folder)],
            ),
            "stats-dir-as-sqlite": (
                ["cache", "stats", "--cache", str(folder), "--cache-backend", "sqlite"],
                ["sqlite", str(folder)],
            ),
            "port-above-range": (serve + ["--port", "99999"], ["127.0.0.1:99999"]),
            "port-negative": (serve + ["--port", "-1"], ["127.0.0.1:-1"]),
            "host-unresolvable": (
                serve + ["--host", "no-such-host.invalid"],
                ["no-such-host.invalid:8080"],
            ),
            "seeds-not-an-int": (self.SWEEP + ["--seeds", "0,x"], ["--seeds", "'x'"]),
            "ms-fractional": (self.SWEEP + ["--ms", "1.5"], ["--ms", "'1.5'"]),
            "ms-not-an-int": (self.SWEEP + ["--ms", "x"], ["--ms", "'x'"]),
            "alphas-not-a-number": (
                self.SWEEP + ["--alphas", "x"],
                ["--alphas", "'x'"],
            ),
            "value-x-not-a-number": (
                self.SWEEP + ["--value-x", "x"],
                ["--value-x", "'x'"],
            ),
            "variant-not-a-number": (
                self.SWEEP + ["--variant", "delta=0.01,x"],
                ["--variant", "delta", "'x'"],
            ),
        }[case]
        if case == "host-unresolvable":
            # Resolving a name may ask a nameserver: fail the bind
            # locally, the way an unresolvable host fails it.
            def unresolvable(*args, **kwargs):
                raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

            monkeypatch.setattr(server_module, "ThreadingHTTPServer", unresolvable)
        closed = []
        real_close = SqliteCache.close

        def counting_close(cache):
            closed.append(cache)
            real_close(cache)

        monkeypatch.setattr(SqliteCache, "close", counting_close)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(text in err for text in named), err
        if argv[0] == "cache-serve":
            assert len(closed) == 1  # the refused server's backend


#: One well-formed instance-file job row.
_JOB = {"release": 0.0, "deadline": 1.0, "workload": 1.0, "value": 1.0}


class TestInputFiles:
    """A file the CLI reads that does not hold what it should exits 2
    with one ``error:`` line naming the file (and, in a shard file, the
    field)."""

    SWEEP = [
        "sweep", "poisson", "-n", "3", "--alphas", "3.0", "--ms", "1",
        "--algorithms", "pd", "--seeds", "0,1,2",
    ]

    @pytest.fixture(scope="class")
    def shard_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("shards")
        paths = [root / f"s{i}.json" for i in range(2)]
        for index, path in enumerate(paths):
            argv = self.SWEEP + ["--shard", f"{index}/2", "--json", str(path)]
            assert main(argv) == 0
        return [load_json(path) for path in paths]

    @staticmethod
    def _save(payloads, tmp_path):
        paths = [str(tmp_path / f"s{i}.json") for i in range(len(payloads))]
        for payload, path in zip(payloads, paths):
            save_json(payload, path)
        return paths

    @staticmethod
    def _fails(argv, capsys, *named):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(text in err for text in named), err

    @pytest.mark.parametrize("command", ["run", "merge"])
    @pytest.mark.parametrize(
        "content",
        [b"garbage{", b"\xff\xfe", b"[1, 2]", None],
        ids=["not-json", "not-utf8", "array", "directory"],
    )
    def test_non_object_file(self, command, content, tmp_path, capsys):
        path = tmp_path / "input.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = {
            "run": ["run", "pd", str(path)],
            "merge": ["sweep", "--merge", str(path)],
        }[command]
        self._fails(argv, capsys, str(path))

    @pytest.mark.parametrize("command", ["run", "adversary"])
    @pytest.mark.parametrize(
        "change, field",
        [
            ({"jobs": None}, "'jobs'"),
            ({"jobs": {"release": 0}}, "'jobs'"),
            ({"jobs": [5]}, "job 0"),
            ({"jobs": [{"release": 0}]}, "'deadline'"),
            ({"jobs": [{**_JOB, "workload": "1"}]}, "'workload'"),
            ({"m": "x"}, "'m'"),
            ({"m": 1.5}, "'m'"),
            ({"alpha": None}, "'alpha'"),
            ({"jobs": [{**_JOB, "name": [1, 2]}]}, "name"),
            ({"jobs": [{**_JOB, "name": {"a": 1}}]}, "name"),
        ],
        ids=[
            "jobs-missing", "jobs-not-a-list", "job-not-an-object",
            "job-field-missing", "job-field-not-a-number", "m-not-a-number",
            "m-fractional", "alpha-missing", "job-name-a-list",
            "job-name-an-object",
        ],
    )
    def test_malformed_instance_file(
        self, command, change, field, tmp_path, capsys
    ):
        """A field is missing (``None`` here) or of the wrong type."""
        payload = {
            "schema": 1, "kind": "instance", "m": 1, "alpha": 3.0,
            "jobs": [_JOB],
        }
        payload.update(change)
        path = str(tmp_path / "instance.json")
        save_json({k: v for k, v in payload.items() if v is not None}, path)
        argv = {
            "run": ["run", "pd", path],
            "adversary": ["adversary", path, "--rounds", "1"],
        }[command]
        self._fails(argv, capsys, path, field)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shard", None),
            ("shard", "0/2"),
            ("total", None),
            ("total", "3"),
            ("positions", None),
            ("positions", {"0": 0}),
            ("records", None),
            ("records", [1, 2]),
            ("records", [{"kind": "run-record", "schema": 1, "record": 3}] * 2),
        ],
        ids=[
            "shard-missing", "shard-not-a-pair", "total-missing",
            "total-not-an-int", "positions-missing", "positions-not-a-list",
            "records-missing", "records-not-objects", "records-incomplete",
        ],
    )
    def test_malformed_shard_file(
        self, field, value, shard_files, tmp_path, capsys
    ):
        payloads = [dict(payload) for payload in shard_files]
        if value is None:
            del payloads[0][field]
        else:
            payloads[0][field] = value
        paths = self._save(payloads, tmp_path)
        self._fails(["sweep", "--merge", *paths], capsys, paths[0], repr(field))

    def test_merge_rejects_disagreeing_strategies(
        self, shard_files, tmp_path, capsys
    ):
        payloads = [dict(payload) for payload in shard_files]
        payloads[1]["strategy"] = "steal"
        paths = self._save(payloads, tmp_path)
        self._fails(["sweep", "--merge", *paths], capsys, "strategy")

    def test_rr_merge_needs_no_session_token(self, shard_files, tmp_path):
        """Only steal shards must share a claim session; an rr file
        from an older build, which hashed its split into the same slot,
        still merges by its positions."""
        payloads = [dict(payload) for payload in shard_files]
        payloads[0]["assignment"] = "0" * 64
        paths = self._save(payloads, tmp_path)
        assert main(["sweep", "--merge", *paths]) == 0


class TestSweepWorkloadAxis:
    """CLI coverage for the workload axis, streaming, and sharding."""

    def test_workload_axis_sweep(self, tmp_path, capsys):
        out_path = str(tmp_path / "cells.json")
        argv = [
            "sweep", "--workload", "poisson", "--workload",
            "heavy-tail?n=4&alpha=3.0", "-n", "5", "--algorithms", "pd",
            "--seeds", "0,1", "--json", out_path,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "workload" in out
        payload = load_json(out_path)
        assert [c["params"]["workload"] for c in payload["cells"]] == [
            "poisson", "heavy-tail?alpha=3.0&n=4",
        ]

    def test_workload_spelling_variants_share_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "c.db")
        base = ["sweep", "-n", "5", "--algorithms", "pd", "--seeds", "0",
                "--cache", cache, "--cache-backend", "sqlite"]
        out = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert main(
            base + ["--workload", "heavy-tail?n=6&alpha=3.0", "--json", out[0]]
        ) == 0
        assert "1 cells computed" in capsys.readouterr().out
        assert main(
            base + ["--workload", "heavy-tail?alpha=3&n=6", "--json", out[1]]
        ) == 0
        assert "0 cells computed, 1 served from cache" in capsys.readouterr().out
        # canonical labels make the cells JSON spelling-invariant too
        with open(out[0]) as a, open(out[1]) as b:
            assert a.read() == b.read()

    def test_family_and_workload_are_exclusive(self, capsys):
        assert main(["sweep", "poisson", "--workload", "uniform"]) == 2
        assert "one source" in capsys.readouterr().err
        assert main(["sweep"]) == 2
        assert "one source" in capsys.readouterr().err

    def test_unknown_workload_spec_is_graceful(self, capsys):
        assert main(["sweep", "--workload", "nope?n=4"]) == 2
        assert "unknown workload family" in capsys.readouterr().err

    def test_positional_family_spec_may_pin_alpha(self, capsys):
        # a parameterized positional family pinning alpha must not clash
        # with the default alpha grid axis...
        argv = ["sweep", "heavy-tail?alpha=2.5", "-n", "4",
                "--algorithms", "pd", "--seeds", "0"]
        assert main(argv) == 0
        assert "m=1" in capsys.readouterr().out
        # ...but an *explicit* --alphas against the pin still fails loudly
        assert main(argv + ["--alphas", "3.0"]) == 2
        assert "pinned" in capsys.readouterr().err

    def test_progress_ticker_on_stderr(self, capsys):
        argv = ["sweep", "poisson", "-n", "4", "--algorithms", "pd",
                "--seeds", "0,1", "--progress"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err and "pd" in err

    def test_shard_index_validated(self, capsys):
        assert main([
            "sweep", "poisson", "--shard", "2/2", "--json", "x.json",
        ]) == 2
        assert "0 <= I < K" in capsys.readouterr().err
