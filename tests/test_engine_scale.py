"""Tests for the engine's scale-out layer: cache backends, sharding,
and parameterized algorithm variants.

Three guarantees, each load-bearing for distributed reproduction runs:

* **backend parity** — the directory and sqlite caches are
  interchangeable bit for bit, cold or warm;
* **shard parity** — a request list split ``--shard i/k`` style and
  recombined with :func:`merge_shards` equals the unsharded run,
  for any shard count;
* **variant identity** — every spelling of ``pd?delta=...`` resolves to
  one canonical entry with one cache key, the certificate hook intact.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.certificates import dual_certificate
from repro.core.pd import run_pd
from repro.engine import (
    REGISTRY,
    BatchRunner,
    DirectoryCache,
    ExperimentSpec,
    RunRecord,
    RunRequest,
    SqliteCache,
    aggregate_records,
    canonical_variant_name,
    merge_shards,
    open_cache,
    parse_variant_name,
    record_from_payload,
    record_to_payload,
    request_key,
    run_experiment,
    shard_requests,
)
from repro.errors import InvalidParameterError
from repro.workloads import poisson_instance


@pytest.fixture(scope="module")
def instance():
    return poisson_instance(5, m=1, alpha=3.0, seed=7)


@pytest.fixture(scope="module")
def requests():
    insts = [poisson_instance(5, m=1, alpha=3.0, seed=s) for s in range(3)]
    return [
        RunRequest(a, i, tag={"seed": s})
        for s, i in enumerate(insts)
        for a in ("pd", "oa", "pd?delta=0.05")
    ]


class TestCacheBackends:
    """Satellite + tentpole: {dir, sqlite} serve bit-identical records."""

    def _backend(self, kind, tmp_path):
        if kind == "dir":
            return DirectoryCache(tmp_path / "cache-dir")
        return SqliteCache(tmp_path / "cache.db")

    @pytest.mark.parametrize("kind", ["dir", "sqlite"])
    def test_cold_warm_parity_against_uncached(self, kind, requests, tmp_path):
        plain = BatchRunner().run(requests)
        cache = self._backend(kind, tmp_path)
        cold = BatchRunner(cache=cache).run(requests)
        warm = BatchRunner(cache=self._backend(kind, tmp_path)).run(requests)
        for record in warm:
            assert record.cached

        def strip(records):  # NaN-safe comparison form (NaN != NaN)
            return [
                (x.algorithm, x.cost, x.energy,
                 None if math.isnan(x.certified_ratio) else x.certified_ratio,
                 x.schedule)
                for x in records
            ]

        assert strip(cold) == strip(plain) == strip(warm)

    def test_dir_and_sqlite_store_identical_payloads(self, requests, tmp_path):
        dcache = DirectoryCache(tmp_path / "d")
        scache = SqliteCache(tmp_path / "s.db")
        BatchRunner(cache=dcache).run(requests)
        BatchRunner(cache=scache).run(requests)
        assert sorted(dcache.keys()) == sorted(scache.keys())
        for key in dcache.keys():
            dpayload, spayload = dcache.get(key), scache.get(key)
            # wall_time is the one *measured* payload field: the two
            # backends stored two separate evaluations of the cell, so
            # their timings legitimately differ. Everything else must
            # be bit-identical.
            assert math.isfinite(dpayload.pop("wall_time"))
            assert math.isfinite(spayload.pop("wall_time"))
            assert dpayload == spayload

    def test_sqlite_len_contains_and_miss(self, instance, tmp_path):
        cache = SqliteCache(tmp_path / "c.db")
        assert len(cache) == 0 and cache.get("nope") is None
        key = request_key("pd", instance)
        BatchRunner(cache=cache).run_one("pd", instance)
        assert len(cache) == 1 and key in cache and "nope" not in cache
        assert list(cache.keys()) == [key]

    def test_sqlite_corrupt_entry_is_a_miss(self, instance, tmp_path):
        cache = SqliteCache(tmp_path / "c.db")
        key = request_key("pd", instance)
        cache._connect().execute(
            "INSERT INTO entries (key, payload) VALUES (?, '{not json')", (key,)
        )
        cache._connect().commit()
        assert cache.get(key) is None
        record = BatchRunner(cache=cache).run_one("pd", instance)
        assert not record.cached
        assert cache.get(key) is not None  # rewritten cleanly

    def test_sqlite_put_is_idempotent_under_rewrites(self, tmp_path):
        cache = SqliteCache(tmp_path / "c.db")
        cache.put("k", {"v": 1})
        cache.put("k", {"v": 1})
        assert len(cache) == 1 and cache.get("k") == {"v": 1}

    def test_open_cache_factory(self, tmp_path):
        assert isinstance(open_cache(tmp_path / "d", "dir"), DirectoryCache)
        assert isinstance(open_cache(tmp_path / "s.db", "sqlite"), SqliteCache)
        with pytest.raises(InvalidParameterError, match="unknown cache backend"):
            open_cache(tmp_path / "x", "redis")

    def test_runner_rejects_non_backend(self):
        with pytest.raises(InvalidParameterError, match="CacheBackend"):
            BatchRunner(cache=42)


class TestDirectoryCacheTempFiles:
    """Satellite bugfix: ``.tmp-*.json`` files are not cache entries."""

    def test_len_and_keys_exclude_temp_files(self, instance, tmp_path):
        cache = DirectoryCache(tmp_path / "c")
        BatchRunner(cache=cache).run_one("pd", instance)
        # An in-flight (or orphaned) temp file appears mid-operation:
        (tmp_path / "c" / ".tmp-orphan.json").write_text("{}")
        assert len(cache) == 1  # glob('*.json') alone would say 2
        assert list(cache.keys()) == [request_key("pd", instance)]

    def test_stale_temp_files_swept_on_init(self, tmp_path):
        import os
        import time

        directory = tmp_path / "c"
        directory.mkdir()
        for name in (".tmp-killed-writer.json", ".tmp-other"):
            (directory / name).write_text("x")
            ancient = time.time() - 7200  # well past the staleness gate
            os.utime(directory / name, (ancient, ancient))
        (directory / ".tmp-live-writer.json").write_text("x")  # fresh
        DirectoryCache(directory)
        leftovers = sorted(p.name for p in directory.iterdir())
        # orphans gone; a live writer's fresh temp file is left alone
        assert leftovers == [".tmp-live-writer.json"]

    def test_put_retries_when_tmp_file_is_stolen(self, tmp_path, monkeypatch):
        import os

        cache = DirectoryCache(tmp_path / "c")
        real_replace = os.replace
        stolen = {"count": 0}

        def stealing_replace(src, dst):
            if stolen["count"] == 0:
                stolen["count"] += 1
                os.unlink(src)  # a racing cleaner deletes the temp file
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", stealing_replace)
        cache.put("k", {"v": 1})
        assert stolen["count"] == 1 and cache.get("k") == {"v": 1}

    def test_real_entries_survive_the_sweep(self, instance, tmp_path):
        cache = DirectoryCache(tmp_path / "c")
        record = BatchRunner(cache=cache).run_one("pd", instance)
        again = DirectoryCache(tmp_path / "c")
        assert len(again) == 1
        assert again.get(record.key) is not None


class TestSharding:
    """Tentpole: deterministic shards recombine into the unsharded run."""

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_shards_merge_to_unsharded_records(self, count, requests):
        full = BatchRunner().run(requests)
        shards = [
            BatchRunner().run(requests, shard=(index, count))
            for index in range(count)
        ]
        assert merge_shards(shards) == full

    def test_rr_assignment_is_positional(self):
        assert [shard_requests(range(7), (i, 3)) for i in range(3)] == [
            [0, 3, 6],
            [1, 4],
            [2, 5],
        ]

    @pytest.mark.parametrize("count", [2, 4])
    def test_shards_partition_the_request_list(self, count, requests):
        slices = [shard_requests(requests, (i, count)) for i in range(count)]
        assert sum(len(s) for s in slices) == len(requests)
        interleaved = [
            slices[pos % count][pos // count] for pos in range(len(requests))
        ]
        assert interleaved == list(requests)

    def test_sharded_runs_share_a_cache(self, requests, tmp_path):
        cache = SqliteCache(tmp_path / "c.db")
        for index in range(2):
            BatchRunner(cache=cache).run(requests, shard=(index, 2))
        warm = BatchRunner(cache=cache).run(requests)
        assert all(r.cached for r in warm)

    def test_invalid_shards_rejected(self, requests):
        runner = BatchRunner()
        for bad in [(2, 2), (-1, 2), (0, 0), ("0", 2), (1,)]:
            with pytest.raises(InvalidParameterError):
                runner.run(requests, shard=bad)

    def test_merge_validates_shapes(self, requests):
        shards = [
            BatchRunner().run(requests, shard=(index, 2)) for index in range(2)
        ]
        with pytest.raises(InvalidParameterError, match="expected"):
            merge_shards([shards[0], shards[1][:-1]])
        with pytest.raises(InvalidParameterError, match="at least one"):
            merge_shards([])
        # shards passed in the wrong order have the wrong shapes too
        # (unless n is a multiple of k — then contents still differ, so
        # only shape errors are promised here)
        if len(shards[0]) != len(shards[1]):
            with pytest.raises(InvalidParameterError):
                merge_shards([shards[1], shards[0]])

    def test_record_payload_roundtrip(self, requests):
        for record in BatchRunner().run(requests[:3]):
            back = record_from_payload(record_to_payload(record))
            assert back == record
        with pytest.raises(InvalidParameterError, match="run-record"):
            record_from_payload({"kind": "sweep"})
        bad = record_to_payload(BatchRunner().run(requests[:1])[0])
        bad["record"] = -1
        with pytest.raises(InvalidParameterError, match="versions"):
            record_from_payload(bad)


class TestVariantSpecs:
    """Tentpole: ``base?key=value`` names are first-class entries."""

    def test_parse_and_canonical_roundtrip(self):
        assert parse_variant_name("pd") == ("pd", {})
        assert parse_variant_name("pd?delta=0.05") == ("pd", {"delta": "0.05"})
        base, raw = parse_variant_name("pd-aug?epsilon=0.3&delta=0.01")
        assert base == "pd-aug" and raw == {"epsilon": "0.3", "delta": "0.01"}
        assert (
            canonical_variant_name("pd-aug", {"epsilon": 0.3, "delta": 0.01})
            == "pd-aug?delta=0.01&epsilon=0.3"  # sorted keys
        )

    def test_malformed_specs_rejected(self):
        for bad in ["pd?", "?delta=1", "pd?delta", "pd?=1", "pd?delta=",
                    "pd?delta=1&delta=2"]:
            with pytest.raises(InvalidParameterError):
                REGISTRY.info(bad)

    def test_unknown_param_and_base_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            REGISTRY.info("pd?gamma=1")
        with pytest.raises(InvalidParameterError, match="unknown algorithm"):
            REGISTRY.info("nope?delta=1")
        with pytest.raises(
            InvalidParameterError, match="no variant parameters"
        ):
            REGISTRY.info("oa?delta=1")
        with pytest.raises(InvalidParameterError, match="bad value"):
            REGISTRY.info("pd?delta=tiny")

    def test_spellings_canonicalize_to_one_key(self, instance):
        key = request_key("pd?delta=0.05", instance)
        assert key == request_key("pd?delta=5e-2", instance)
        assert key == request_key("pd?delta=0.050", instance)
        assert key != request_key("pd", instance)
        assert key != request_key("pd?delta=0.06", instance)

    def test_variant_runs_with_working_certificate(self, instance):
        record = BatchRunner().run_one("pd?delta=0.05", instance)
        direct = run_pd(instance, delta=0.05)
        cert = dual_certificate(direct)
        assert record.algorithm == "pd?delta=0.05"
        assert record.cost == direct.schedule.cost
        assert record.certified_ratio == float(cert.ratio)
        assert record.dual_g == float(cert.g)

    def test_variant_capabilities_inherit_from_base(self):
        info = REGISTRY.info("pd?delta=0.05")
        assert info.base == "pd" and dict(info.params) == {"delta": 0.05}
        assert info.capabilities() == REGISTRY.info("pd").capabilities()
        assert "pd?delta=0.05" in REGISTRY and "pd?gamma=1" not in REGISTRY
        assert "pd?delta=0.05" not in REGISTRY.names()  # names stay base-only

    def test_variant_cells_parallelize(self, instance):
        reqs = [
            RunRequest(f"pd?delta={d!r}", instance) for d in (0.01, 0.05, 0.2)
        ]
        serial = BatchRunner(workers=1).run(reqs)
        parallel = BatchRunner(workers=2).run(reqs)
        assert serial == parallel

    def test_pd_aug_epsilon_variant(self, instance):
        base = BatchRunner().run_one("pd-aug", instance)
        more = BatchRunner().run_one("pd-aug?epsilon=0.3", instance)
        assert more.energy < base.energy  # more speed, cheaper schedule
        assert math.isfinite(more.certified_ratio)


class TestExperimentVariantsAxis:
    def test_variants_axis_matches_manual_specs(self):
        shared = dict(
            family=poisson_instance, grid={"alpha": [3.0]}, n=5, seeds=(0, 1)
        )
        axis = run_experiment(
            ExperimentSpec(
                name="t", algorithms=("pd",), variants={"delta": [0.01, 0.05]},
                **shared,
            )
        )
        manual = run_experiment(
            ExperimentSpec(
                name="t", algorithms=("pd?delta=0.01", "pd?delta=0.05"),
                **shared,
            )
        )
        assert [c.algorithm for c in axis] == [c.algorithm for c in manual]
        assert [c.mean_cost for c in axis] == [c.mean_cost for c in manual]
        assert [c.params["delta"] for c in axis] == [0.01, 0.05]

    def test_variant_axis_clash_with_inline_param_rejected(self):
        spec = ExperimentSpec(
            name="t", family=poisson_instance,
            algorithms=("pd?delta=0.1",), variants={"delta": [0.2]},
        )
        with pytest.raises(InvalidParameterError, match="clashes"):
            spec.requests()

    def test_reserved_axis_names_rejected(self):
        for axis in ("grid", "variants"):
            for name in ("seed", "n"):
                with pytest.raises(InvalidParameterError, match="reserved"):
                    ExperimentSpec(
                        name="t", family=poisson_instance, **{axis: {name: [1]}}
                    )

    def test_grid_variant_axis_collision_rejected(self):
        with pytest.raises(InvalidParameterError, match="both grid"):
            ExperimentSpec(
                name="t", family=poisson_instance,
                grid={"x": [1]}, variants={"x": [2]},
            )

    def test_empty_axis_values_rejected(self):
        for axes in ({"grid": {"alpha": []}}, {"variants": {"delta": []}}):
            with pytest.raises(InvalidParameterError, match="no values"):
                ExperimentSpec(name="t", family=poisson_instance, **axes)

    def test_inline_specs_canonicalize_and_tag_params(self):
        cells = run_experiment(
            ExperimentSpec(
                name="t", family=poisson_instance,
                algorithms=("pd?delta=5e-2",), n=5, seeds=(0,),
            )
        )
        (cell,) = cells
        assert cell.algorithm == "pd?delta=0.05"  # canonical spelling
        assert cell.params == {"delta": 0.05}     # inline knob surfaces

    def test_duplicate_effective_algorithms_rejected(self):
        spec = ExperimentSpec(
            name="t", family=poisson_instance,
            algorithms=("pd?delta=0.05", "pd?delta=5e-2"),  # same variant
        )
        with pytest.raises(InvalidParameterError, match="more than once"):
            spec.requests()


class TestNanAwareAggregation:
    """Satellite bugfix: one NaN replicate cannot hide behind ``max``."""

    @staticmethod
    def _record(ratio, seed):
        return RunRecord(
            algorithm="stub", cost=1.0, energy=1.0, lost_value=0.0,
            acceptance=1.0, certified_ratio=ratio, dual_g=1.0, schedule={},
            tag={"cell": 0, "params": {}, "variant": {}, "seed": seed,
                 "experiment": "t"},
        )

    def test_nan_poisons_worst_ratio_in_any_position(self):
        finite = [self._record(3.0, 0), self._record(7.0, 1)]
        poisoned = self._record(math.nan, 2)
        for records in ([poisoned] + finite, finite + [poisoned]):
            (cell,) = aggregate_records(records)
            assert math.isnan(cell.worst_certified_ratio)

    def test_all_finite_takes_the_max(self):
        (cell,) = aggregate_records(
            [self._record(3.0, 0), self._record(7.0, 1)]
        )
        assert cell.worst_certified_ratio == 7.0

    def test_untagged_records_rejected(self):
        record = BatchRunner().run_one("pd", poisson_instance(4, seed=0))
        with pytest.raises(InvalidParameterError, match="tag"):
            aggregate_records([record])
