"""Tests for the experiment engine: registry, batch runner, experiments.

The load-bearing guarantee is *parity*: the engine is a pure
orchestration layer, so for every registered algorithm a
:class:`BatchRunner` — serial or parallel, cache cold or warm — must
return bit-identical costs and schedules to a direct ``REGISTRY.run``
call. Everything else (capability metadata, cache accounting,
declarative sweeps) builds on that.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.engine import (
    REGISTRY,
    BatchRunner,
    DirectoryCache,
    ExperimentSpec,
    RunRequest,
    aggregate_records,
    run_experiment,
)
from repro.engine.runner import record_to_payload, request_key
from repro.errors import InvalidParameterError
from repro.io.serialize import schedule_to_dict, stable_hash
from repro.types import left_sum
from repro.workloads import poisson_instance

from conftest import unmemoized_key


@pytest.fixture(scope="module")
def instance():
    # m=1 so every algorithm (including the single-processor ones) runs;
    # n=5 keeps the exact solver's enumeration fast.
    return poisson_instance(5, m=1, alpha=3.0, seed=7)


@pytest.fixture(scope="module")
def direct(instance):
    """Ground truth: one plain REGISTRY.run call per registered name."""
    return {
        name: REGISTRY.run(name, instance) for name in REGISTRY.names()
    }


def _assert_parity(records, direct, instance):
    for record in records:
        outcome = direct[record.algorithm]
        assert record.cost == outcome.schedule.cost, record.algorithm
        assert record.energy == outcome.schedule.energy, record.algorithm
        assert record.schedule == schedule_to_dict(outcome.schedule), (
            record.algorithm
        )


def _canonical(record) -> dict:
    """A record's full payload minus what is not record content:
    ``wall_time`` is a measurement, ``cached`` is delivery provenance,
    and NaN (the ratio of a certificate-less cell) never equals itself.
    """
    out = record_to_payload(record)
    del out["wall_time"], out["cached"]
    for key in ("certified_ratio", "dual_g"):
        if math.isnan(out[key]):
            out[key] = "NaN"
    return out


class TestBatchParity:
    """Satellite: engine output == direct output, in every mode."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parity_cold_and_warm(self, workers, instance, direct, tmp_path):
        requests = [RunRequest(name, instance) for name in REGISTRY.names()]
        runner = BatchRunner(workers=workers, cache=tmp_path / "cache")

        cold = runner.run(requests)
        _assert_parity(cold, direct, instance)
        assert all(not r.cached for r in cold)
        assert runner.stats.computed == len(requests)

        warm = runner.run(requests)
        _assert_parity(warm, direct, instance)
        assert all(r.cached for r in warm)
        assert runner.stats.computed == len(requests)  # nothing recomputed
        assert runner.stats.cache_hits == len(requests)

    def test_parity_without_cache(self, instance, direct):
        records = BatchRunner(workers=1).run(
            [RunRequest(name, instance) for name in REGISTRY.names()]
        )
        _assert_parity(records, direct, instance)

    def test_parallel_matches_serial_ordering(self, instance):
        insts = [poisson_instance(6, m=1, alpha=3.0, seed=s) for s in range(4)]
        requests = [
            RunRequest(a, i) for i in insts for a in ("pd", "cll", "oa")
        ]
        serial = BatchRunner(workers=1).run(requests)
        parallel = BatchRunner(workers=3).run(requests)
        # Pool workers return the payload through the pool's own result
        # channel: every field, the cache key included, must survive it.
        assert [_canonical(r) for r in serial] == [
            _canonical(r) for r in parallel
        ]


class TestCache:
    def test_warm_cache_skips_recomputation_call_count(
        self, instance, tmp_path, monkeypatch
    ):
        """The satellite's call-count check: zero evaluations when warm."""
        import repro.engine.runner as runner_mod

        calls = []
        real = runner_mod.evaluate_request

        def counting(request):
            calls.append(request.algorithm)
            return real(request)

        monkeypatch.setattr(runner_mod, "evaluate_request", counting)
        requests = [RunRequest(a, instance) for a in ("pd", "cll", "oa")]

        cold = BatchRunner(workers=1, cache=tmp_path / "c").run(requests)
        assert calls == ["pd", "cll", "oa"]
        warm = BatchRunner(workers=1, cache=tmp_path / "c").run(requests)
        assert calls == ["pd", "cll", "oa"]  # unchanged: no recomputation
        assert [r.cost for r in cold] == [r.cost for r in warm]

    def test_one_changed_cell_recomputes_only_that_cell(
        self, instance, tmp_path, monkeypatch
    ):
        import repro.engine.runner as runner_mod

        calls = []
        real = runner_mod.evaluate_request

        def counting(request):
            calls.append(request.algorithm)
            return real(request)

        monkeypatch.setattr(runner_mod, "evaluate_request", counting)
        requests = [RunRequest(a, instance) for a in ("pd", "cll", "oa")]
        BatchRunner(workers=1, cache=tmp_path / "c").run(requests)
        calls.clear()

        changed = instance.with_values([j.value * 2 for j in instance.jobs])
        requests[1] = RunRequest("cll", changed)
        records = BatchRunner(workers=1, cache=tmp_path / "c").run(requests)
        assert calls == ["cll"]
        assert [r.cached for r in records] == [True, False, True]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_duplicates_computed_once(self, instance, workers):
        """Two distinct cells, each requested twice: at ``workers=2``
        they reach the process pool (a single unique cell would take the
        serial branch), and either way each computes once."""
        requests = [RunRequest(a, instance) for a in ("pd", "oa", "pd", "oa")]
        runner = BatchRunner(workers=workers)
        records = runner.run(requests)
        assert runner.stats.computed == 2
        assert runner.stats.deduplicated == 2
        assert runner.stats.cache_hits == 0  # no cache configured
        assert [r.cached for r in records] == [False, False, True, True]
        serial = BatchRunner(workers=1).run(requests)
        assert [_canonical(r) for r in records] == [
            _canonical(r) for r in serial
        ]

    def test_corrupt_entry_is_a_miss(self, instance, tmp_path):
        cache = DirectoryCache(tmp_path / "c")
        key = request_key("pd", instance)
        (tmp_path / "c" / f"{key}.json").write_text("{not json")
        runner = BatchRunner(workers=1, cache=cache)
        record = runner.run_one("pd", instance)
        assert not record.cached
        assert cache.get(key) is not None  # rewritten cleanly

    def test_key_stability(self, instance):
        key = request_key("pd", instance)
        assert key == request_key("pd", instance)
        assert key != request_key("cll", instance)
        bumped = instance.with_values([j.value * 2 for j in instance.jobs])
        assert key != request_key("pd", bumped)
        # hashing is key-order independent
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_invalid_workers_rejected(self):
        with pytest.raises(InvalidParameterError):
            BatchRunner(workers=0)


class TestRegistryCapabilities:
    def test_known_capabilities(self):
        info = REGISTRY.info("pd")
        assert info.profit_aware and info.online and info.multiprocessor
        assert info.produces_certificate
        assert REGISTRY.info("yds").capabilities() == frozenset({"offline"})
        assert not REGISTRY.info("oa").produces_certificate
        assert REGISTRY.info("cll").produces_certificate

    def test_single_processor_flags_match_behaviour(self):
        inst = poisson_instance(4, m=2, alpha=3.0, seed=0)
        for info in REGISTRY:
            if not info.multiprocessor:
                with pytest.raises(InvalidParameterError):
                    REGISTRY.run(info.name, inst)

    def test_select(self):
        certified = {
            i.name for i in REGISTRY.select(produces_certificate=True)
        }
        assert "pd" in certified and "cll" in certified
        assert "oa" not in certified
        offline = {i.name for i in REGISTRY.select(online=False)}
        assert {"yds", "exact", "offline-cp", "oracle-admission"} <= offline

    def test_unknown_name_lists_available(self):
        with pytest.raises(InvalidParameterError, match="available:"):
            REGISTRY.info("nope")

    def test_certified_ratio_only_for_capable_algorithms(self, instance):
        records = BatchRunner().run(
            [RunRequest(a, instance) for a in ("pd", "cll", "oa", "avr")]
        )
        by_name = {r.algorithm: r for r in records}
        assert by_name["pd"].certified_ratio <= 27.0 * (1 + 1e-7)
        assert by_name["cll"].certified_ratio > 0
        assert math.isnan(by_name["oa"].certified_ratio)
        assert math.isnan(by_name["avr"].certified_ratio)


class TestExperimentSpec:
    def test_grid_order_and_aggregation(self):
        spec = ExperimentSpec(
            name="t",
            family=poisson_instance,
            grid={"alpha": [2.0, 3.0], "m": [1, 2]},
            algorithms=("pd",),
            n=6,
            seeds=(0, 1),
        )
        cells = run_experiment(spec)
        assert [(c.params["alpha"], c.params["m"]) for c in cells] == [
            (2.0, 1),
            (2.0, 2),
            (3.0, 1),
            (3.0, 2),
        ]
        assert all(c.runs == 2 for c in cells)

    def test_named_family_resolution(self):
        spec = ExperimentSpec(
            name="t", family="poisson", grid={}, n=4, seeds=(0,)
        )
        cells = run_experiment(spec)
        assert len(cells) == 1 and cells[0].mean_cost > 0
        with pytest.raises(InvalidParameterError, match="unknown workload family"):
            run_experiment(
                ExperimentSpec(name="t", family="nope", n=4, seeds=(0,))
            )

    def test_skip_incapable_drops_single_proc_cells(self):
        spec = ExperimentSpec(
            name="t",
            family=poisson_instance,
            grid={"m": [1, 2]},
            algorithms=("pd", "cll"),
            n=5,
            seeds=(0,),
            skip_incapable=True,
        )
        cells = run_experiment(spec)
        combos = {(c.params["m"], c.algorithm) for c in cells}
        assert combos == {(1, "pd"), (1, "cll"), (2, "pd")}

    def test_value_x_axis_matches_manual_scaling(self):
        spec = ExperimentSpec(
            name="t",
            family=poisson_instance,
            grid={"value_x": [0.5]},
            algorithms=("pd",),
            n=6,
            seeds=(0,),
        )
        cell = run_experiment(spec)[0]
        base = poisson_instance(6, m=1, alpha=3.0, seed=0)
        manual = REGISTRY.run(
            "pd", base.with_values([j.value * 0.5 for j in base.jobs])
        )
        assert cell.mean_cost == manual.schedule.cost

    def test_means_add_left_to_right(self, instance):
        """Cell means add replicates left to right on every Python, where
        3.12's builtin ``sum`` would compensate the rounding."""
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        (record,) = BatchRunner().run(
            [RunRequest("pd", instance, tag={"cell": 0})]
        )
        reps = [replace(record, cost=cost) for cost in (1e16, 1.0, 1.0)]
        (cell,) = aggregate_records(reps)
        # 1e16 + 1.0 rounds back to 1e16, twice; 1e16 + 2.0 would not.
        assert cell.mean_cost == 1e16 / 3

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="exactly one"):
            ExperimentSpec(name="t")
        with pytest.raises(InvalidParameterError, match="seed"):
            ExperimentSpec(name="t", family=poisson_instance, seeds=())
        with pytest.raises(InvalidParameterError, match="algorithm"):
            ExperimentSpec(name="t", family=poisson_instance, algorithms=())


class TestSweepsOnEngine:
    """An experiment's cells are the same on any runner."""

    def test_ratio_sweep_runner_equivalence(self, tmp_path):
        spec = ExperimentSpec(
            name="t",
            family=poisson_instance,
            grid={"alpha": [2.0, 3.0], "m": [1, 2]},
            algorithms=("pd",),
            n=6,
            seeds=(0, 1),
        )

        def summaries(runner=None):
            # A cell's records differ only in their ``cached`` flags.
            return [
                replace(cell, records=())
                for cell in run_experiment(spec, runner)
            ]

        plain = summaries()
        cached = summaries(BatchRunner(workers=2, cache=tmp_path / "c"))
        warm = summaries(BatchRunner(workers=1, cache=tmp_path / "c"))
        assert plain == cached == warm

    def test_processor_scaling_curve_cll_gets_real_ratio(self):
        inst = poisson_instance(8, m=1, alpha=3.0, seed=2)
        spec = ExperimentSpec(
            name="t", base_instance=inst, grid={"m": [1]}, algorithms=("cll",)
        )
        (cell,) = run_experiment(spec)
        assert math.isfinite(cell.worst_certified_ratio)
        assert cell.worst_certified_ratio >= 1.0 - 1e-9


class TestRequestKeyMemo:
    """``request_key`` memoizes on the instance without moving a key."""

    SPECS = (
        "pd",
        "cll",
        "oa",
        "pd?delta=0.05",
        "pd?delta=0.01",
        "pd-aug?epsilon=0.3&delta=0.05",
    )

    def test_keys_equal_the_unmemoized_formula(self):
        inst = poisson_instance(6, m=2, alpha=3.0, seed=11)
        first = [request_key(spec, inst) for spec in self.SPECS]
        again = [request_key(spec, inst) for spec in self.SPECS]  # memo hits
        fresh = poisson_instance(6, m=2, alpha=3.0, seed=11)
        assert first == again == [
            unmemoized_key(spec, fresh) for spec in self.SPECS
        ]
        assert len(set(first)) == len(self.SPECS)

    def test_variant_spellings_share_a_key(self):
        inst = poisson_instance(5, m=1, alpha=3.0, seed=2)
        key = request_key("pd?delta=0.05", inst)
        assert request_key("pd?delta=5e-2", inst) == key
        assert request_key("pd?delta=0.050", inst) == key
        others = {request_key(f"pd?delta={d}", inst) for d in (0.04, 0.06, 1e-2)}
        assert key not in others and len(others) == 3
        assert request_key("pd", inst) not in others | {key}

    def test_fingerprint_then_run_stolen_encodes_each_pair_once(
        self, monkeypatch
    ):
        import repro.engine.runner as runner_mod
        from repro.engine import InProcessClaimTable

        spec = ExperimentSpec(
            name="memo",
            family=poisson_instance,
            grid={"m": [1, 2]},
            algorithms=("pd", "oa"),
            n=4,
            seeds=(0, 1),
        )
        requests = spec.requests()
        digested, hashed = [], []
        real_digest, real_hash = runner_mod.instance_digest, runner_mod.stable_hash

        def counting_digest(instance):
            digested.append(id(instance))
            return real_digest(instance)

        def counting_hash(payload):
            hashed.append(payload["algorithm"])
            return real_hash(payload)

        monkeypatch.setattr(runner_mod, "instance_digest", counting_digest)
        monkeypatch.setattr(runner_mod, "stable_hash", counting_hash)
        spec.fingerprint(requests)
        pairs = BatchRunner().run_stolen(
            requests, InProcessClaimTable(len(requests))
        )
        assert len(pairs) == len(requests)
        # Each instance is keyed for both algorithms but digested once,
        # and each (algorithm, instance) key is hashed once.
        instances = {id(r.instance) for r in requests}
        assert sorted(digested) == sorted(instances)
        assert len(instances) == len(requests) // 2
        assert len(hashed) == len(requests)

    def test_pickled_request_keeps_its_key(self):
        import pickle

        inst = poisson_instance(5, m=1, alpha=3.0, seed=4)
        cold = RunRequest("pd?delta=0.05", inst)
        cold_copy = pickle.loads(pickle.dumps(cold))  # no memo yet
        key = request_key(cold.algorithm, cold.instance)
        warm_copy = pickle.loads(pickle.dumps(cold))  # memo travels
        assert request_key(cold_copy.algorithm, cold_copy.instance) == key
        assert request_key(warm_copy.algorithm, warm_copy.instance) == key
        assert key == unmemoized_key("pd?delta=0.05", inst)
        assert warm_copy.instance == inst
