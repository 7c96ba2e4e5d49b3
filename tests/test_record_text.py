"""Records served as stored text.

Every local backend hands the cache server an entry's stored JSON text
(``get_text``), and the server splices it unparsed into its record
replies. Three guarantees rest on that:

* **same bytes** — for entries this build wrote, a reply is byte for
  byte ``json.dumps`` of the decoded reply, so the wire format did not
  move;
* **corruption stays per key** — the server no longer parses records,
  so :class:`HttpCache` turns a corrupt entry into a miss for that key
  alone, and a recompute rewrites it;
* **one surface** — ``get`` of a local backend is a parse of its
  ``get_text``, and the server refuses a backend without one.
"""

from __future__ import annotations

import json
import math
import sqlite3

import pytest

import repro.io.server as server_mod
from repro.engine import (
    BatchRunner,
    DirectoryCache,
    HttpCache,
    HttpClaimTable,
    HttpConnectionPool,
    InProcessClaimTable,
    MemoryCache,
    RunRequest,
    SqliteCache,
    request_key,
)
from repro.engine.runner import evaluate_request
from repro.errors import InvalidParameterError
from repro.io.server import CacheServer
from repro.workloads import poisson_instance

_JSON = {"Content-Type": "application/json"}


def _backend(kind: str, tmp_path):
    if kind == "dir":
        return DirectoryCache(tmp_path / "dir")
    if kind == "sqlite":
        return SqliteCache(tmp_path / "cache.db")
    return MemoryCache()


@pytest.fixture(scope="module")
def requests():
    insts = [poisson_instance(5, m=1, alpha=3.0, seed=s) for s in range(3)]
    # oa carries no certificate: its ratio is NaN on the wire.
    return [RunRequest(a, i) for i in insts for a in ("pd", "oa")]


@pytest.fixture(scope="module")
def payloads(requests):
    return {
        request_key(r.algorithm, r.instance): evaluate_request(r)
        for r in requests
    }


def _same(a, b) -> bool:
    """Equality that lets NaN equal NaN (via the canonical text)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("kind", ["dir", "sqlite", "memory"])
class TestSameBytes:
    def test_record_and_batch_replies_are_json_dumps_bytes(
        self, kind, tmp_path, payloads
    ):
        backend = _backend(kind, tmp_path)
        keys = list(payloads)
        odd = {"name": "café  ", "x": [1, -0.0, 1e-310, math.inf]}
        srv = CacheServer(backend).start()
        pool = HttpConnectionPool(srv.url)
        try:
            cache = HttpCache(srv.url)
            cache.put(keys[0], payloads[keys[0]])  # PUT route
            cache.put_many({k: payloads[k] for k in keys[1:]})  # batch route
            backend.put("odd", odd)  # written straight to the backend
            for key, payload in [*payloads.items(), ("odd", odd)]:
                status, _, raw = pool.request("GET", f"/records/{key}")
                assert status == 200
                assert raw == json.dumps(json.loads(raw)).encode("utf-8")
                assert _same(json.loads(raw), payload)
            gets = [keys[2], "absent", "odd", keys[0], keys[2]]
            body = json.dumps({"get": gets, "put": {"new": {"v": 1}}})
            status, _, raw = pool.request(
                "POST", "/records:batch", body.encode("utf-8"), _JSON
            )
            assert status == 200
            assert raw == json.dumps(json.loads(raw)).encode("utf-8")
            expected = {
                "records": {
                    keys[2]: payloads[keys[2]],
                    "odd": odd,
                    keys[0]: payloads[keys[0]],
                },
                "stored": 1,
            }
            # The bytes the parse-and-encode server used to send.
            assert raw == json.dumps(expected).encode("utf-8")
            status, _, raw = pool.request(
                "POST", "/records:batch", b'{"get": ["absent"]}', _JSON
            )
            assert raw == b'{"records": {}, "stored": 0}'
            cache.close()
        finally:
            pool.close()
            srv.stop()
            backend.close()

    def test_get_is_a_parse_of_get_text(self, kind, tmp_path, payloads):
        backend = _backend(kind, tmp_path)
        try:
            for key, payload in payloads.items():
                backend.put(key, payload)
                text = backend.get_text(key)
                assert text == json.dumps(payload)
                assert _same(backend.get(key), json.loads(text))
            assert backend.get_text("absent") is None
            assert backend.get("absent") is None
        finally:
            backend.close()


def _corrupt(kind: str, backend, key: str, text: str | bytes) -> None:
    if kind == "dir":
        backend._path(key).write_text(text)
    else:
        with sqlite3.connect(backend.path) as conn:
            conn.execute(
                "UPDATE entries SET payload = CAST(? AS TEXT) WHERE key = ?",
                (text, key),
            )


@pytest.mark.parametrize(
    "kind, damage",
    [
        ("dir", "truncated"),
        ("sqlite", "garbage"),
        ("sqlite", "not-an-object"),
        ("sqlite", "not-utf8"),
    ],
)
class TestCorruptionStaysPerKey:
    def test_corrupt_entry_misses_alone_and_is_rewritten(
        self, kind, damage, tmp_path, requests
    ):
        backend = _backend(kind, tmp_path)
        BatchRunner(cache=backend).run(requests)
        keys = [request_key(r.algorithm, r.instance) for r in requests]
        good = {key: backend.get(key) for key in keys}
        bad = keys[2]
        stored = backend.get_text(bad)
        text = {
            "truncated": stored[: len(stored) // 2],
            "garbage": "\x00garbage{",
            "not-an-object": "[1, 2, 3]",
            "not-utf8": b'{"kind": "\xff"}',
        }[damage]
        _corrupt(kind, backend, bad, text)
        assert backend.get(bad) is None  # the local rule
        srv = CacheServer(backend).start()
        try:
            cache = HttpCache(srv.url)
            assert cache.get(bad) is None
            for key in keys:
                if key != bad:
                    assert _same(cache.get(key), good[key])
            before = cache.stats(deep=False)["fabric"]
            found = cache.get_many(keys)  # one chunk holds every key
            assert sorted(found) == sorted(k for k in keys if k != bad)
            for key, payload in found.items():
                assert _same(payload, good[key])
            after = cache.stats(deep=False)["fabric"]
            hits = after["record_hits"] - before["record_hits"]
            if damage == "not-utf8":
                # No text to serve: the server itself reads a miss.
                assert hits == len(keys) - 1
            else:
                # record_hits counts entries found, parsed or not.
                assert hits >= len(keys)
            runner = BatchRunner(cache=cache)
            records = runner.run(requests)
            assert runner.stats.computed == 1
            assert runner.stats.cache_hits == len(requests) - 1
            assert not records[2].cached
            rewritten = backend.get(bad)
            timing = {"wall_time": rewritten["wall_time"]}
            assert _same(rewritten, good[bad] | timing)
            assert cache.get_many(keys).keys() == set(keys)
            cache.close()
        finally:
            srv.stop()
            backend.close()


class TestClientKeepsTheMissRule:
    def _serve(self, texts):
        class Stored(MemoryCache):
            def get_text(self, key):
                return texts.get(key)

        return CacheServer(Stored()).start()

    def test_records_for_unrequested_keys_are_dropped(self):
        srv = self._serve({"a": '{"v": 1}, "zz": {"v": 2}', "b": '{"v": 3}'})
        try:
            cache = HttpCache(srv.url)
            assert cache.get_many(["a", "b"]) == {"a": {"v": 1}, "b": {"v": 3}}
            cache.close()
        finally:
            srv.stop()

    def test_non_object_record_misses_alone(self):
        srv = self._serve({"a": "42", "b": '{"v": 3}', "c": "null"})
        try:
            cache = HttpCache(srv.url)
            assert cache.get_many(["a", "b", "c"]) == {"b": {"v": 3}}
            assert cache.get("a") is None and cache.get("c") is None
            cache.close()
        finally:
            srv.stop()

    def test_unparsable_chunk_falls_back_per_key(self):
        srv = self._serve({"a": '{"v": 1}', "b": '{"v"', "c": '{"v": 3}'})
        try:
            cache = HttpCache(srv.url, batch_size=2)
            found = cache.get_many(["a", "b", "c"])
            assert found == {"a": {"v": 1}, "c": {"v": 3}}
            fabric = cache.stats(deep=False)["fabric"]
            # Chunk [a, b] failed to parse and was fetched key by key;
            # chunk [c] parsed.
            assert fabric["batch_requests"] == 2
            assert fabric["record_gets"] == 3 + 2
            cache.close()
        finally:
            srv.stop()


class TestServerSurface:
    def test_backend_without_get_text_is_refused(self):
        # The HTTP client stores no text of its own; nothing is dialled.
        with pytest.raises(InvalidParameterError, match="get_text"):
            CacheServer(HttpCache("http://127.0.0.1:9"))

    def test_backend_without_stats_is_refused(self):
        class NoStats(MemoryCache):
            stats = None

        with pytest.raises(InvalidParameterError, match="stats"):
            CacheServer(NoStats())

    def test_claim_reissues_surface_in_stats(self, monkeypatch):
        clock = {"now": 0.0}

        def table(total, *, lease_ttl=None):
            return InProcessClaimTable(
                total, lease_ttl=lease_ttl, clock=lambda: clock["now"]
            )

        monkeypatch.setattr(server_mod, "InProcessClaimTable", table)
        srv = CacheServer(MemoryCache()).start()
        try:
            claims = HttpClaimTable(srv.url, "reissue", 3, lease_ttl=10.0)
            assert claims.claim(2) == [0, 1]
            claims.done([1])
            clock["now"] = 10.5  # position 0's lease expired
            assert claims.claim(3) == [0, 2]
            clock["now"] = 30.0  # 0 and 2 expired again
            assert claims.claim(1) == [0]
            cache = HttpCache(srv.url)
            assert cache.stats(deep=False)["fabric"]["claim_reissues"] == 2
            assert cache.stats(deep=True)["fabric"]["claim_reissues"] == 2
            cache.close()
            claims.close()
        finally:
            srv.stop()


def test_in_process_table_counts_reissues():
    clock = {"now": 0.0}
    table = InProcessClaimTable(3, lease_ttl=10.0, clock=lambda: clock["now"])
    assert table.claim(2) == [0, 1]
    assert table.reissued == 0
    clock["now"] = 10.5
    assert table.claim(5) == [0, 1, 2]
    assert table.reissued == 2
    table.done([0, 2])
    clock["now"] = 25.0
    assert table.claim(5) == [1]
    assert table.reissued == 3
    plain = InProcessClaimTable(2)  # default lease, none expired yet
    assert plain.claim(5) == [0, 1] and plain.reissued == 0
