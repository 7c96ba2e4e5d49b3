"""Tests for streaming execution, timed records and the workload registry.

Three guarantees, each load-bearing for large distributed sweeps:

* **workload identity** — every spelling of a parameterized workload
  spec (``heavy-tail?n=64&alpha=3.0``) resolves to one canonical name,
  builds the identical instance, and therefore shares one batch-runner
  cache key;
* **streaming parity** — :meth:`BatchRunner.iter_records` yields every
  record exactly once (serial or process pool), callbacks fire in
  completion order, and :meth:`BatchRunner.run` stays byte-identical to
  the pre-streaming request-order output;
* **timing round-trip** — the measured ``wall_time`` survives cache and
  shard-file round-trips, and unknown payload keys fail loudly.
"""

from __future__ import annotations

import math

import pytest

from repro.engine import (
    BatchRunner,
    DirectoryCache,
    ExperimentSpec,
    RunRequest,
    SqliteCache,
    record_from_payload,
    record_to_payload,
    request_key,
    run_experiment,
)
from repro.errors import InvalidParameterError, ReproError
from repro.workloads import WORKLOADS, poisson_instance
from repro.workloads.registry import register_workload


@pytest.fixture(scope="module")
def requests():
    insts = [poisson_instance(5, m=1, alpha=3.0, seed=s) for s in range(3)]
    return [
        RunRequest(a, i, tag={"seed": s})
        for s, i in enumerate(insts)
        for a in ("pd", "oa", "cll")
    ]


def _comparable(record, *, cached=True):
    """NaN-safe, measurement-only comparison form of a record.

    Dataclass equality on records from *different* pool runs trips over
    ``NaN != NaN`` (pickling breaks the ``math.nan`` identity shortcut),
    so cross-run assertions compare this form instead; ``cached=False``
    additionally ignores the bookkeeping flag for warm-vs-cold checks.
    """
    return (
        record.algorithm,
        record.cost,
        record.energy,
        record.lost_value,
        record.acceptance,
        None if math.isnan(record.certified_ratio) else record.certified_ratio,
        None if math.isnan(record.dual_g) else record.dual_g,
        record.schedule,
        record.key,
        record.cached if cached else None,
        record.tag,
    )


class TestWorkloadRegistry:
    """Tentpole: workloads are first-class, parameterized registry entries."""

    def test_registry_holds_the_generators_themselves(self):
        assert "poisson" in WORKLOADS.names()
        assert WORKLOADS.info("poisson").generator is poisson_instance

    def test_registry_sees_late_registrations(self):
        @register_workload("stub-family", summary="test stub")
        def stub(n, *, m=1, alpha=3.0, seed=0):
            return poisson_instance(n, m=m, alpha=alpha, seed=seed)

        try:
            assert WORKLOADS.info("stub-family").generator is stub
            assert "stub-family" in WORKLOADS.names()
        finally:
            WORKLOADS._infos.pop("stub-family", None)
            WORKLOADS._resolved.clear()

    def test_spec_resolves_to_canonical_name(self):
        info = WORKLOADS.info("heavy-tail?seed=7&n=64&alpha=3.0")
        assert info.name == "heavy-tail?alpha=3.0&n=64&seed=7"
        assert info.base == "heavy-tail"
        assert dict(info.params) == {"alpha": 3.0, "n": 64, "seed": 7}
        # base entries are untouched
        base = WORKLOADS.info("heavy-tail")
        assert base.name == base.base == "heavy-tail" and not base.params

    def test_spelling_variants_build_identical_instances(self):
        a = WORKLOADS.build("heavy-tail?n=16&alpha=3.0&seed=5")
        b = WORKLOADS.build("heavy-tail?alpha=3&seed=5&n=16")
        assert a.jobs == b.jobs and a.m == b.m and a.alpha == b.alpha

    def test_unknown_family_param_and_malformed_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown workload family"):
            WORKLOADS.info("nope")
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            WORKLOADS.info("poisson?gamma=1")
        with pytest.raises(InvalidParameterError, match="bad value"):
            WORKLOADS.info("poisson?n=lots")
        for bad in ["poisson?", "?n=1", "poisson?n", "poisson?n=1&n=2"]:
            with pytest.raises(InvalidParameterError):
                WORKLOADS.info(bad)
        assert "poisson?n=8" in WORKLOADS and "poisson?gamma=1" not in WORKLOADS

    def test_pinned_params_clash_with_call_site_kwargs(self):
        info = WORKLOADS.info("poisson?alpha=2.0")
        with pytest.raises(InvalidParameterError, match="pinned"):
            info.build(8, alpha=3.0)

    def test_family_knobs_reach_the_generator(self):
        calm = WORKLOADS.build("poisson?arrival_rate=0.25", 10, seed=1)
        busy = WORKLOADS.build("poisson?arrival_rate=4.0", 10, seed=1)
        # slower arrivals spread the same number of jobs over more time
        assert max(j.release for j in calm.jobs) > max(
            j.release for j in busy.jobs
        )

    def test_registry_tags(self):
        assert "deterministic" in WORKLOADS.info("lowerbound").tags()
        assert "classical" in WORKLOADS.info("bursty").tags()
        seeded = {i.name for i in WORKLOADS.select(deterministic=False)}
        assert "poisson" in seeded and "lowerbound" not in seeded

    def test_jitter_composite_family(self):
        base = WORKLOADS.build("poisson", 8, seed=3)
        jittered = WORKLOADS.build("jitter?base=poisson&rel=0.2", 8, seed=3)
        assert [j.workload for j in jittered.jobs] == [
            j.workload for j in base.jobs
        ]
        assert [j.value for j in jittered.jobs] != [j.value for j in base.jobs]
        for job, orig in zip(jittered.jobs, base.jobs):
            assert 0.8 * orig.value <= job.value <= 1.2 * orig.value
        with pytest.raises(InvalidParameterError, match="wrap itself"):
            WORKLOADS.build("jitter?base=jitter", 8)


class TestWorkloadAxis:
    """Tentpole: ``ExperimentSpec(workloads=...)`` replaces instance lists."""

    def test_spelling_variants_share_cache_keys(self):
        # The acceptance criterion, verbatim: two spellings of one
        # workload spec compile to request lists with identical
        # content-addressed cache keys.
        keys = []
        for spelling in ("heavy-tail?n=64&alpha=3.0", "heavy-tail?alpha=3&n=64"):
            spec = ExperimentSpec(
                name="t", workloads=[spelling], algorithms=("pd",), seeds=(0, 1)
            )
            keys.append(
                [request_key(r.algorithm, r.instance) for r in spec.requests()]
            )
        assert keys[0] == keys[1]

    def test_workload_axis_matches_family_runs(self):
        axis = run_experiment(
            ExperimentSpec(
                name="t",
                workloads=["poisson", "tight"],
                algorithms=("pd",),
                n=6,
                seeds=(0, 1),
            )
        )
        assert [c.params["workload"] for c in axis] == ["poisson", "tight"]
        for cell in axis:
            (manual,) = run_experiment(
                ExperimentSpec(
                    name="t",
                    family=cell.params["workload"],
                    algorithms=("pd",),
                    n=6,
                    seeds=(0, 1),
                )
            )
            assert cell.mean_cost == manual.mean_cost
            assert cell.runs == manual.runs == 2

    def test_workloads_cross_grid_order(self):
        spec = ExperimentSpec(
            name="t",
            workloads=["poisson", "uniform"],
            grid={"alpha": [2.0, 3.0]},
            algorithms=("pd",),
            n=5,
            seeds=(0,),
        )
        cells = run_experiment(spec)
        assert [(c.params["workload"], c.params["alpha"]) for c in cells] == [
            ("poisson", 2.0),
            ("poisson", 3.0),
            ("uniform", 2.0),
            ("uniform", 3.0),
        ]

    def test_pinned_n_and_seed(self):
        spec = ExperimentSpec(
            name="t",
            workloads=["poisson?n=9&seed=5", "poisson?n=4"],
            algorithms=("pd",),
            n=6,
            seeds=(0, 1, 2),
        )
        requests = spec.requests()
        # pinned seed collapses replicates; pinned n overrides n=
        pinned = [r for r in requests if r.tag["params"]["workload"].endswith("seed=5")]
        assert len(pinned) == 1 and pinned[0].instance.n == 9
        assert pinned[0].tag["seed"] == 5
        rest = [r for r in requests if r not in pinned]
        assert len(rest) == 3 and all(r.instance.n == 4 for r in rest)

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="exactly one"):
            ExperimentSpec(name="t", workloads=["poisson"], family="poisson")
        with pytest.raises(InvalidParameterError, match="exactly one"):
            ExperimentSpec(name="t")
        with pytest.raises(InvalidParameterError, match="spec strings"):
            ExperimentSpec(name="t", workloads=[poisson_instance])
        with pytest.raises(InvalidParameterError, match="reserved"):
            ExperimentSpec(
                name="t", workloads=["poisson"], grid={"workload": ["a"]}
            )
        spec = ExperimentSpec(
            name="t",
            workloads=["poisson?alpha=2.0"],
            grid={"alpha": [2.0, 3.0]},
        )
        with pytest.raises(InvalidParameterError, match="grid axes"):
            spec.requests()
        # a grid axis some family on the axis does not accept fails up
        # front with a clear error, not a TypeError deep in generation
        foreign = ExperimentSpec(
            name="t",
            workloads=["poisson", "heavy-tail"],
            grid={"pareto_shape": [2.0]},
        )
        with pytest.raises(InvalidParameterError, match="not parameters"):
            foreign.requests()
        # ... and the same up-front check covers family_kwargs, which
        # apply to every (heterogeneous) family on the axis
        kwargs_spec = ExperimentSpec(
            name="t",
            workloads=["poisson", "uniform"],
            family_kwargs={"horizon": 10.0},  # poisson has no horizon
        )
        with pytest.raises(InvalidParameterError, match="not parameters"):
            kwargs_spec.requests()
        dup = ExperimentSpec(
            name="t", workloads=["poisson?alpha=2.0", "poisson?alpha=2"]
        )
        with pytest.raises(InvalidParameterError, match="more than once"):
            dup.requests()

    def test_family_slot_accepts_parameterized_specs(self):
        cells = run_experiment(
            ExperimentSpec(
                name="t",
                family="heavy-tail?pareto_shape=2.5",
                algorithms=("pd",),
                n=5,
                seeds=(0,),
            )
        )
        assert len(cells) == 1 and cells[0].mean_cost > 0
        with pytest.raises(InvalidParameterError, match="pins n/seed"):
            run_experiment(
                ExperimentSpec(
                    name="t", family="poisson?n=5", algorithms=("pd",)
                )
            )

    def test_workload_comparison_sweep(self):
        spec = ExperimentSpec(
            name="t",
            workloads=["poisson", "heavy-tail?pareto_shape=2.0"],
            algorithms=("pd", "oa"),
            n=5,
            seeds=(0,),
        )
        cells = run_experiment(spec)
        assert [(c.params["workload"], c.algorithm) for c in cells] == [
            ("poisson", "pd"),
            ("poisson", "oa"),
            ("heavy-tail?pareto_shape=2.0", "pd"),
            ("heavy-tail?pareto_shape=2.0", "oa"),
        ]


class TestStreaming:
    """Satellite: iter_records yields once per cell; run() stays ordered."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_record_yielded_exactly_once(self, workers, requests):
        runner = BatchRunner(workers=workers)
        indexes = []
        records = {}
        for index, record in runner.iter_records(requests):
            indexes.append(index)
            records[index] = record
        assert sorted(indexes) == list(range(len(requests)))
        assert len(indexes) == len(set(indexes)) == len(requests)
        # fully consumed stream sorted by index == run() output
        rerun = BatchRunner(workers=workers).run(requests)
        assert [
            _comparable(records[i]) for i in range(len(requests))
        ] == [_comparable(r) for r in rerun]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_matches_request_order(self, workers, requests):
        records = BatchRunner(workers=workers).run(requests)
        assert [r.algorithm for r in records] == [
            r.algorithm for r in requests
        ]
        assert [r.tag for r in records] == [r.tag for r in requests]

    def test_callbacks_fire_in_completion_order(self, requests, tmp_path):
        runner = BatchRunner(cache=tmp_path / "c")
        seen = []
        runner.run(
            requests,
            on_record=lambda rec, done, total: seen.append(
                (done, total, rec.cached)
            ),
        )
        total = len(requests)
        assert [d for d, _, _ in seen] == list(range(1, total + 1))
        assert all(t == total for _, t, _ in seen)
        assert not any(cached for _, _, cached in seen)

        # Warm: every record arrives as a cache hit, callbacks still
        # count 1..total, and cache hits stream before anything else.
        warm = []
        BatchRunner(cache=tmp_path / "c").run(
            requests,
            on_record=lambda rec, done, total: warm.append(rec.cached),
        )
        assert warm == [True] * total

    def test_abandoning_the_stream_cancels_queued_cells(self, monkeypatch):
        import repro.engine.runner as runner_mod

        calls = []
        real = runner_mod.evaluate_request

        def counting(request):
            calls.append(request.algorithm)
            return real(request)

        monkeypatch.setattr(runner_mod, "evaluate_request", counting)
        inst = poisson_instance(5, m=1, alpha=3.0, seed=7)
        reqs = [RunRequest(a, inst) for a in ("pd", "oa", "cll", "avr")]
        stream = BatchRunner().iter_records(reqs)
        next(stream)
        stream.close()  # consumer bails after the first record
        assert calls == ["pd"]  # remaining cells were never evaluated

    def test_abandoning_a_parallel_stream_does_not_hang(self, requests):
        stream = BatchRunner(workers=2).iter_records(requests)
        next(stream)
        # Close must cancel the queued futures and return promptly
        # rather than blocking until the whole grid is computed.
        stream.close()

    def test_duplicates_stream_with_their_computation(self):
        inst = poisson_instance(5, m=1, alpha=3.0, seed=7)
        runner = BatchRunner()
        pairs = list(
            runner.iter_records(
                [RunRequest("pd", inst), RunRequest("oa", inst), RunRequest("pd", inst)]
            )
        )
        by_index = dict(pairs)
        assert not by_index[0].cached and by_index[2].cached  # in-batch dup
        assert by_index[0].cost == by_index[2].cost
        assert runner.stats.deduplicated == 1

    def test_wall_time_measured_and_cached(self, requests, tmp_path):
        runner = BatchRunner(cache=tmp_path / "c")
        fresh = runner.run(requests)
        assert all(
            math.isfinite(r.wall_time) and r.wall_time >= 0.0 for r in fresh
        )
        warm = BatchRunner(cache=tmp_path / "c").run(requests)
        # a cache hit serves the original computation's measured time
        assert [r.wall_time for r in warm] == [r.wall_time for r in fresh]
        # ... and identical measurements (only the cached flag differs)
        assert [_comparable(r, cached=False) for r in warm] == [
            _comparable(r, cached=False) for r in fresh
        ]

    def test_wall_time_roundtrips_through_payload(self, requests):
        record = BatchRunner().run(requests[:1])[0]
        back = record_from_payload(record_to_payload(record))
        assert back == record
        assert back.wall_time == record.wall_time

    def test_unknown_payload_keys_rejected(self, requests):
        payload = record_to_payload(BatchRunner().run(requests[:1])[0])
        payload["surprise"] = 1
        with pytest.raises(ReproError, match="unknown record payload key"):
            record_from_payload(payload)

    def test_progress_through_run_experiment(self):
        spec = ExperimentSpec(
            name="t", workloads=["poisson"], algorithms=("pd",), n=5, seeds=(0, 1)
        )
        ticks = []
        cells = run_experiment(
            spec, progress=lambda rec, done, total: ticks.append((done, total))
        )
        assert ticks == [(1, 2), (2, 2)]
        assert len(cells) == 1 and cells[0].runs == 2


class TestTimedCaches:
    """Each cell's wall time lives in its record: a warm run reads it
    back through one probe per distinct cell, and caches an older build
    wrote with a timing column still serve."""

    def test_warm_run_probes_each_distinct_cell_once(self, tmp_path):
        """One ``get`` per distinct cell on a backend without
        ``get_many``, whatever the duplicates."""
        insts = [poisson_instance(5, m=1, alpha=3.0, seed=s) for s in (7, 8)]
        cache = SqliteCache(tmp_path / "c.db")
        records = BatchRunner(cache=cache).run(
            [RunRequest("pd", inst) for inst in insts]
        )
        lookups = []
        real = cache.get

        def counting(key):
            lookups.append(key)
            return real(key)

        cache.get = counting
        order = [0, 1, 1, 0, 0]
        warm = BatchRunner(cache=cache).run(
            [RunRequest("pd", insts[i]) for i in order]
        )
        assert [r.wall_time for r in warm] == [records[i].wall_time for i in order]
        assert all(r.cached for r in warm)
        assert lookups == [records[0].key, records[1].key]

    def test_sqlite_pre_timing_database_migrates(self, tmp_path):
        import sqlite3

        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE entries (key TEXT PRIMARY KEY, payload TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO entries VALUES ('k', '{\"wall_time\": 0.5}')"
        )
        conn.commit()
        conn.close()
        cache = SqliteCache(path)  # ALTER TABLE migration runs here
        assert cache.get("k") == {"wall_time": 0.5}
        cache.put("k2", {"wall_time": 0.25})  # the INSERT names created_at
        assert cache.get("k2") == {"wall_time": 0.25}
        assert cache.gc(3600.0) == 1  # the undatable legacy row
        cache.close()

    def test_sqlite_database_with_timing_column_still_works(
        self, requests, tmp_path
    ):
        """A file an older build wrote keeps its ``wall_time`` column:
        rows read as before, puts leave the column NULL, and a warm run
        reads each cell's time from its record."""
        import sqlite3

        path = tmp_path / "timed.db"
        records = BatchRunner(cache=SqliteCache(path)).run(requests[:2])
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE entries ADD COLUMN wall_time REAL")
        conn.execute("UPDATE entries SET wall_time = 99.0")
        conn.commit()
        conn.close()
        cache = SqliteCache(path)
        warm = BatchRunner(cache=cache).run(requests[:2])
        assert all(r.cached for r in warm)
        assert [r.wall_time for r in warm] == [r.wall_time for r in records]
        cache.put("k", {"wall_time": 0.25})
        row = cache._connect().execute(
            "SELECT wall_time FROM entries WHERE key = 'k'"
        ).fetchone()
        assert row == (None,)
        assert cache.stats()["entries"] == 3
        assert cache.gc(3600.0) == 0 and cache.gc(0.0) == 3
        cache.close()


class TestCacheClose:
    """Satellite: close()/context-manager protocol on cache backends."""

    def test_sqlite_close_checkpoints_wal_sidecars(self, tmp_path):
        path = tmp_path / "c.db"
        cache = SqliteCache(path)
        cache.put("k", {"v": 1})
        assert (tmp_path / "c.db-wal").exists()  # WAL mode is on
        cache.close()
        assert not (tmp_path / "c.db-wal").exists()
        assert not (tmp_path / "c.db-shm").exists()
        cache.close()  # idempotent
        assert cache.get("k") == {"v": 1}  # lazily reopens

    def test_context_manager_protocol(self, tmp_path):
        with SqliteCache(tmp_path / "c.db") as cache:
            cache.put("k", {"v": 1})
        assert cache._conn is None  # closed on exit
        with DirectoryCache(tmp_path / "d") as dcache:
            dcache.put("k", {"v": 2})
        assert dcache.get("k") == {"v": 2}
