"""Tests for the high-throughput fabric: connection pooling, the
identity-only wire, retry backoff, batched claims, lock-free stats, and
the pipelined steal loop.

The companion of ``test_cache_fabric.py`` (protocol parity and fault
tolerance): everything here is about the *throughput* machinery added
on top — keep-alive sockets that survive and transparently redial,
plain JSON bodies in both directions, ``/stats`` that never waits on a
slow backend, ``?k=N`` claim batches, and a steal loop that overlaps
claim/probe round trips with compute while a write-behind batcher
flushes puts.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.request

import pytest

from repro.engine import (
    BatchRunner,
    HttpCache,
    HttpClaimTable,
    MemoryCache,
    RunRequest,
)
from repro.engine.remote import RETRY_DELAYS, HttpConnectionPool
from repro.engine.runner import _PutBatcher, request_key
from repro.errors import CacheError, InvalidParameterError
from repro.io.server import CacheServer, FabricStats
from repro.workloads import poisson_instance


@pytest.fixture(scope="module")
def requests():
    insts = [poisson_instance(5, m=1, alpha=3.0, seed=s) for s in range(2)]
    return [
        RunRequest(a, i, tag={"seed": s})
        for s, i in enumerate(insts)
        for a in ("pd", "oa")
    ]


@pytest.fixture(scope="module")
def plain_records(requests):
    return BatchRunner().run(requests)


@pytest.fixture()
def server():
    backend = MemoryCache()
    srv = CacheServer(backend).start()
    yield srv
    srv.stop()


def _strip(records):  # NaN-safe comparison form (NaN != NaN)
    return [
        (r.algorithm, r.cost, r.energy,
         None if math.isnan(r.certified_ratio) else r.certified_ratio,
         r.schedule)
        for r in records
    ]


class TestConnectionPool:
    """Keep-alive reuse, stale-socket redial, constructor validation."""

    def test_pool_reuses_one_socket(self, server):
        with HttpConnectionPool(server.url) as pool:
            assert pool.idle_count() == 0
            for _ in range(5):
                status, _, _ = pool.request("GET", "/stats")
                assert status == 200
            # Sequential traffic parks and reuses exactly one socket.
            assert pool.idle_count() == 1

    def test_stale_socket_redials_transparently(self, server):
        cache = HttpCache(server.url)
        cache.put("k", {"v": 1})
        assert cache.pool.idle_count() == 1
        host, port = server.address
        server.stop()  # severs the parked connection
        revived = CacheServer(MemoryCache(), host=host, port=port).start()
        try:
            revived.cache.put("k2", {"v": 2})
            # The parked socket is dead; the pool must redial once and
            # answer from the revived server without surfacing a fault.
            assert cache.get("k2") == {"v": 2}
        finally:
            revived.stop()
            cache.close()

    def test_pool_close_is_not_fatal(self, server):
        cache = HttpCache(server.url)
        cache.put("k", {"v": 1})
        cache.close()
        assert cache.pool.idle_count() == 0
        assert cache.get("k") == {"v": 1}  # fresh dial, same answer
        cache.close()

    def test_max_idle_validated(self, server):
        with pytest.raises(InvalidParameterError, match="max_idle"):
            HttpConnectionPool(server.url, max_idle=0)

    @pytest.mark.parametrize(
        "timeout", [-1, 0, 0.0, math.nan, math.inf, -math.inf, True, "10"]
    )
    def test_timeout_validated_by_every_client(self, server, timeout):
        """A bad timeout is an input error at construction, never a raw
        ``ValueError``/``OverflowError`` out of a socket call later —
        not even on the lenient ``get``, which reads faults as misses."""
        with pytest.raises(InvalidParameterError, match="timeout"):
            HttpConnectionPool(server.url, timeout=timeout)
        with pytest.raises(InvalidParameterError, match="timeout"):
            HttpCache(server.url, timeout=timeout).get("k")
        with pytest.raises(InvalidParameterError, match="timeout"):
            HttpClaimTable(server.url, "timeouts", 3, timeout=timeout)
        assert server.stats_counters.requests == 0


class TestCompressionNegotiation:
    """There is none: bodies are identity-encoded JSON both ways."""

    def test_plain_client_gets_identity_responses(self, server):
        """Large bodies come back as plain JSON, never compressed."""
        cache = HttpCache(server.url)
        big = {"body": "y" * 4096}
        cache.put("big", big)
        cache.close()
        with urllib.request.urlopen(f"{server.url}/records/big") as reply:
            raw = reply.read()
            assert reply.headers.get("Content-Encoding") is None
        assert json.loads(raw) == big

    @pytest.mark.parametrize("encoding", ["deflate", "gzip"])
    def test_encoded_body_is_a_415(self, server, encoding):
        """An encoded request body is refused and stores nothing — even
        when its bytes happen to be valid JSON — and the keep-alive
        connection stays framed for the next request."""
        with HttpConnectionPool(server.url) as pool:
            status, _, raw = pool.request(
                "PUT",
                "/records/encoded",
                json.dumps({"v": 1}).encode("utf-8"),
                {"Content-Encoding": encoding},
            )
            assert status == 415
            assert encoding in json.loads(raw)["error"]
            assert "encoded" not in server.cache
            status, _, _ = pool.request("GET", "/stats")
            assert status == 200
            assert pool.idle_count() == 1


class TestRetryPolicy:
    """Every lenient route retries after the fixed ``RETRY_DELAYS``,
    then misses; claim traffic never retries."""

    def test_lenient_routes_back_off_then_miss(self, monkeypatch):
        import socket as socket_mod

        sock = socket_mod.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        naps: list[float] = []
        monkeypatch.setattr(
            "repro.engine.remote.time.sleep", naps.append
        )
        assert RETRY_DELAYS == (0.05, 0.1)
        cache = HttpCache(f"http://127.0.0.1:{port}", timeout=0.5)
        assert cache.get("anything") is None  # miss, not a crash
        assert naps == [0.05, 0.1]
        naps.clear()
        assert cache.get_many(["a", "b"]) == {}
        assert naps == [0.05, 0.1]
        naps.clear()
        cache.put("k", {"v": 1})  # dropped, not raised
        assert naps == [0.05, 0.1]
        naps.clear()
        cache.put_many({"k": {"v": 1}})
        assert naps == [0.05, 0.1]

    def test_claim_traffic_never_retries(self, monkeypatch):
        """Claim faults must stay loud and immediate — backoff there
        would let two workers guess at overlapping positions."""
        import socket as socket_mod

        sock = socket_mod.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        naps: list[float] = []
        monkeypatch.setattr(
            "repro.engine.remote.time.sleep", naps.append
        )
        with pytest.raises(CacheError, match="unreachable"):
            HttpClaimTable(f"http://127.0.0.1:{port}", "t", 2, timeout=0.5)
        assert naps == []


class TestBatchedClaims:
    """``?k=N`` leases N positions in one round trip."""

    def test_claim_batch_is_one_round_trip(self, server):
        table = HttpClaimTable(server.url, "batched", 12)
        before = server.stats_counters.claim_requests
        assert table.claim(5) == [0, 1, 2, 3, 4]
        assert server.stats_counters.claim_requests == before + 1
        assert table.claim(100) == list(range(5, 12))  # clamped to tail
        table.close()

    def test_query_k_overrides_body_count(self, server):
        """``?k=`` is the only count the route reads; without it one
        position is leased."""
        HttpClaimTable(server.url, "wire", 9).close()
        with HttpConnectionPool(server.url) as pool:
            status, _, raw = pool.request("POST", "/claims/wire/next?k=3")
            assert status == 200
            assert json.loads(raw)["positions"] == [0, 1, 2]
            status, _, raw = pool.request("POST", "/claims/wire/next")
            assert status == 200
            assert json.loads(raw)["positions"] == [3]
            for bad in ("nope", "0", "-2"):
                status, _, _ = pool.request(
                    "POST", f"/claims/wire/next?k={bad}"
                )
                assert status == 400

    @pytest.mark.parametrize("path", ["next", "next?k=2"])
    def test_body_count_fails_loudly(self, server, path):
        """A client sending its count in the body gets a 400 naming
        ``?k=`` instead of silently leasing one position; the body is
        still read, so the connection stays usable."""
        HttpClaimTable(server.url, "stale", 9).close()
        with HttpConnectionPool(server.url) as pool:
            status, _, raw = pool.request(
                "POST",
                f"/claims/stale/{path}",
                json.dumps({"count": 2}).encode("utf-8"),
            )
            assert status == 400
            assert "?k=" in json.loads(raw)["error"]
            status, _, raw = pool.request("POST", "/claims/stale/next?k=2")
            assert status == 200
            assert json.loads(raw)["positions"] == [0, 1]  # nothing leased
            assert pool.idle_count() == 1


class TestLockFreeStats:
    """Satellite: ``GET /stats`` answers while the backend is busy."""

    def test_stats_fast_does_not_wait_on_a_slow_backend(self):
        entered = threading.Event()
        release = threading.Event()

        class SlowCache(MemoryCache):
            thread_safe = True

            # The server reads records through get_text.
            def get_text(self, key):
                entered.set()
                release.wait(timeout=10.0)
                return super().get_text(key)

        srv = CacheServer(SlowCache()).start()
        try:
            slow = HttpCache(srv.url)
            blocker = threading.Thread(
                target=slow.get, args=("stuck",), daemon=True
            )
            blocker.start()
            assert entered.wait(timeout=5.0)
            # The backend (and its stripe) is now held mid-get; the
            # fast snapshot must come back anyway, and quickly.
            probe = HttpCache(srv.url)
            start = time.perf_counter()
            snapshot = probe.stats(deep=False)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0
            assert snapshot["deep"] is False
            assert snapshot["backend"] == "http(memory)"
            # The blocked get hasn't finished, so it isn't a
            # record_get yet — but its dispatch was counted.
            assert snapshot["fabric"]["requests"] >= 1
        finally:
            release.set()
            blocker.join(timeout=5.0)
            slow.close()
            probe.close()
            srv.stop()

    def test_entry_counter_tracks_new_vs_overwrite(self, server):
        cache = HttpCache(server.url)
        assert cache.stats(deep=False)["entries"] == 0
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.put("a", {"v": 3})  # overwrite: count must not move
        fast = cache.stats(deep=False)
        assert fast["entries"] == 2
        assert fast["fabric"]["record_puts"] == 3
        assert fast["fabric"]["new_records"] == 2
        deep = cache.stats(deep=True)
        assert deep["deep"] is True
        assert deep["entries"] == 2
        cache.close()

    def test_fast_snapshot_counts_hits_and_misses(self, server):
        cache = HttpCache(server.url)
        cache.put("hit", {"v": 1})
        assert cache.get("hit") is not None
        assert cache.get("miss") is None
        fabric = cache.stats(deep=False)["fabric"]
        assert fabric["record_gets"] == 2
        assert fabric["record_hits"] == 1
        cache.close()

    def test_fabric_stats_counters_are_plain(self):
        stats = FabricStats()
        stats.note_put(new=True)
        stats.note_put(new=False)
        stats.note_removed(1)
        assert stats.entries == 0
        assert stats.snapshot()["record_puts"] == 2
        assert stats.snapshot()["new_records"] == 1


class TestStripedLocks:
    def test_stripes_require_thread_safe_backend(self, tmp_path):
        from repro.engine import SqliteCache

        sqlite = SqliteCache(tmp_path / "c.db")
        try:
            srv = CacheServer(sqlite)  # collapses to one stripe
            assert len(srv._records) == 1
        finally:
            sqlite.close()

    def test_thread_safe_backend_gets_striped(self):
        srv = CacheServer(MemoryCache())
        assert len(srv._records) > 1


class TestPipelinedSteal:
    """The batched, pipelined loop yields exactly the plain run."""

    def test_serial_claim_batch_matches_run(
        self, requests, plain_records, server
    ):
        cache = HttpCache(server.url)
        claims = HttpClaimTable(server.url, "serial-batch", len(requests))
        runner = BatchRunner(cache=cache, claim_batch=3)
        try:
            pairs = runner.run_stolen(requests, claims)
        finally:
            claims.close()
            cache.close()
        assert [p for p, _ in pairs] == list(range(len(requests)))
        assert _strip([r for _, r in pairs]) == _strip(plain_records)

    def test_pooled_claim_batch_matches_run(
        self, requests, plain_records, server
    ):
        cache = HttpCache(server.url)
        claims = HttpClaimTable(server.url, "pooled-batch", len(requests))
        runner = BatchRunner(workers=2, cache=cache, claim_batch=2)
        try:
            pairs = runner.run_stolen(requests, claims)
        finally:
            claims.close()
            cache.close()
        assert _strip([r for _, r in pairs]) == _strip(plain_records)

    def test_write_behind_flusher_lands_every_put(self, requests, server):
        cache = HttpCache(server.url)
        claims = HttpClaimTable(server.url, "flush", len(requests))
        runner = BatchRunner(cache=cache, claim_batch=2)
        try:
            runner.run_stolen(requests, claims)
            # run_stolen closed its flusher before returning, so every
            # computed record must already be on the server.
            keys = {
                request_key(r.algorithm, r.instance) for r in requests
            }
            assert set(cache.keys()) == keys
        finally:
            claims.close()
            cache.close()

    def test_warm_batched_steal_is_all_hits(self, requests, server):
        cache = HttpCache(server.url)
        BatchRunner(cache=cache).run(requests)
        claims = HttpClaimTable(server.url, "warm-batch", len(requests))
        runner = BatchRunner(cache=cache, claim_batch=4)
        try:
            pairs = runner.run_stolen(requests, claims)
        finally:
            claims.close()
            cache.close()
        assert all(record.cached for _, record in pairs)
        assert runner.stats.computed == 0
        assert runner.stats.cache_hits == len(requests)

    def test_claim_batch_validated(self):
        with pytest.raises(InvalidParameterError, match="claim_batch"):
            BatchRunner(claim_batch=0)
        with pytest.raises(InvalidParameterError, match="claim_batch"):
            BatchRunner(claim_batch=True)

    def test_put_batcher_flushes_and_propagates_failures(self):
        class Sink:
            batch_size = 4

            def __init__(self):
                self.entries: dict = {}
                self.flushes = 0

            def put_many(self, entries):
                self.flushes += 1
                self.entries.update(entries)

        sink = Sink()
        batcher = _PutBatcher(sink, batch_size=4)
        for i in range(10):
            batcher.put(f"k{i}", {"v": i})
        batcher.close()
        assert len(sink.entries) == 10
        assert sink.entries["k7"] == {"v": 7}
        assert sink.flushes >= 3  # 10 puts / batch of 4

        class Exploding:
            batch_size = 2

            def put_many(self, entries):
                raise CacheError("disk on fire")

        failing = _PutBatcher(Exploding())
        failing.put("k", {"v": 1})
        with pytest.raises(CacheError, match="disk on fire"):
            failing.close()


class TestConcurrentStress:
    """Satellite: threads hammer one live server; nothing is lost."""

    def test_mixed_traffic_under_contention(self, server):
        total = 60
        writers = 3
        per_writer = 40
        HttpClaimTable(server.url, "stress", total).close()
        errors: list[BaseException] = []
        claimed: dict[int, list[int]] = {}
        barrier = threading.Barrier(writers + 3)

        def write_and_verify(slot: int, large: bool) -> None:
            cache = HttpCache(server.url, batch_size=16)
            try:
                barrier.wait(timeout=10.0)
                entries = {
                    f"w{slot}-{i}": {
                        "slot": slot,
                        "i": i,
                        "body": "x" * (4096 if large else 8),
                    }
                    for i in range(per_writer)
                }
                cache.put_many(entries)
                # Sever the parked sockets underneath the pool: the
                # next round trip reuses a dead connection and must
                # recover through the transparent redial, mid-batch.
                for conn in list(cache.pool._idle):
                    if conn.sock is not None:
                        conn.sock.close()
                found = cache.get_many(list(entries))
                if found != entries:
                    raise AssertionError(
                        f"writer {slot} lost {len(entries) - len(found)}"
                    )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                cache.close()

        def claimer(slot: int) -> None:
            table = HttpClaimTable(server.url, "stress", total)
            try:
                barrier.wait(timeout=10.0)
                got: list[int] = []
                while True:
                    batch = table.claim(4)
                    if not batch:
                        break
                    got.extend(batch)
                    table.done(batch)
                claimed[slot] = got
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                table.close()

        def chaos() -> None:
            cache = HttpCache(server.url)
            try:
                barrier.wait(timeout=10.0)
                for _ in range(10):
                    cache.put("chaos", {"v": 1})
                    # Churn connections mid-run: every put after a
                    # close dials fresh while the writers are severing
                    # and redialing their own sockets.
                    cache.pool.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                cache.close()

        threads = [
            threading.Thread(target=write_and_verify, args=(s, s % 2 == 0))
            for s in range(writers)
        ]
        threads += [
            threading.Thread(target=claimer, args=(s,)) for s in range(2)
        ]
        threads.append(threading.Thread(target=chaos))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        handed = sorted(claimed[0] + claimed[1])
        assert handed == list(range(total))  # exact partition, no doubles
        check = HttpCache(server.url)
        try:
            assert check.stats(deep=True)["entries"] == (
                writers * per_writer + 1  # +1 for the chaos key
            )
        finally:
            check.close()

    def test_concurrent_steal_merge_is_byte_identical(
        self, requests, plain_records, server
    ):
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            cache = HttpCache(server.url)
            table = HttpClaimTable(server.url, "stress-steal", len(requests))
            try:
                results[slot] = BatchRunner(
                    cache=cache, claim_batch=2
                ).run_stolen(requests, table)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                table.close()
                cache.close()

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors
        merged = sorted(results[0] + results[1])
        assert [p for p, _ in merged] == list(range(len(requests)))
        assert _strip([r for _, r in merged]) == _strip(plain_records)
