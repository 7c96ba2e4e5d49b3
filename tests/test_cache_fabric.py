"""Tests for the distributed cache fabric: HTTP backend, memory
backend, and work-stealing execution.

Four guarantees, each load-bearing for multi-machine sweeps:

* **protocol parity** — :class:`HttpCache` passes the same backend
  contract as dir/sqlite, records bit-identical;
* **fault tolerance** — a dead, restarted, or garbage-speaking cache
  server degrades to recomputation, never to wrong results or crashes;
* **steal parity** — workers draining one claim table produce, in
  union, exactly the unsharded run, and the claim session token lets
  the merge step recognize the shards as one run;
* **concurrent durability** — the sqlite backend survives multiple
  processes hammering ``put`` (bounded busy retry), and caches written
  by builds that kept a timing index (``.timing`` sidecars, a sqlite
  ``wall_time`` column) still open, serve, take puts and gc.
"""

from __future__ import annotations

import json
import math
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.engine import (
    BatchRunner,
    DirectoryCache,
    HttpCache,
    HttpClaimTable,
    InProcessClaimTable,
    MemoryCache,
    RunRequest,
    SqliteCache,
)
from repro.errors import CacheError, InvalidParameterError
from repro.io.server import CacheServer
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


def _dead_url() -> str:
    """A URL nothing listens on (bound once to find a free port)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


class TestHttpCacheProtocol:
    """Tentpole: HttpCache is a full CacheBackend, bit for bit."""

    def test_cold_warm_parity_against_uncached(
        self, requests, plain_records, server
    ):
        cold = BatchRunner(cache=HttpCache(server.url)).run(requests)
        warm = BatchRunner(cache=HttpCache(server.url)).run(requests)
        assert all(r.cached for r in warm)
        assert _strip(cold) == _strip(plain_records) == _strip(warm)

    def test_get_put_contains_len_keys(self, server):
        cache = HttpCache(server.url)
        assert cache.get("missing") is None and "missing" not in cache
        payload = {"v": 1, "ratio": math.nan}  # NaN must round-trip
        cache.put("k1", payload)
        back = cache.get("k1")
        assert back["v"] == 1 and math.isnan(back["ratio"])
        assert "k1" in cache and len(cache) == 1
        assert list(cache.keys()) == ["k1"]

    def test_batch_endpoints_chunking(self, server):
        cache = HttpCache(server.url, batch_size=2)
        entries = {f"k{i}": {"v": i} for i in range(5)}
        cache.put_many(entries)  # 3 chunked round trips
        assert len(cache) == 5
        found = cache.get_many([*entries, "absent"])  # 3 chunks again
        assert found == entries  # absent key simply missing
        assert cache.get_many([]) == {}

    def test_http_hit_carries_the_cold_wall_time(self, requests, server):
        cache = HttpCache(server.url)
        records = BatchRunner(cache=cache).run(requests)
        assert all(r.wall_time > 0 for r in records)
        warm = BatchRunner(cache=cache).run(requests)
        assert all(r.cached for r in warm)
        assert [r.wall_time for r in warm] == [r.wall_time for r in records]

    def test_warm_run_is_one_batched_probe_per_distinct_cell(self, server):
        """A warm run probes in ``records:batch`` round trips, one per
        ``batch_size`` distinct cells, duplicates probed once."""
        distinct = [
            RunRequest("pd", poisson_instance(4, m=1, alpha=3.0, seed=s))
            for s in range(5)
        ]
        cache = HttpCache(server.url, batch_size=2)
        records = BatchRunner(cache=cache).run(distinct)
        order = [0, 1, 0, 2, 3, 3, 4, 1]
        before = server.stats_counters.snapshot()
        warm = BatchRunner(cache=cache).run([distinct[i] for i in order])
        after = server.stats_counters.snapshot()
        assert all(r.cached for r in warm)
        assert [r.wall_time for r in warm] == [records[i].wall_time for i in order]
        assert after["requests"] - before["requests"] == 3
        assert after["batch_requests"] - before["batch_requests"] == 3

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_timings_route_is_gone(self, server, method):
        from repro.engine.remote import HttpConnectionPool

        body = b'{"keys": []}' if method == "POST" else None
        with HttpConnectionPool(server.url) as pool:
            status, _, _ = pool.request(method, "/timings", body)
        assert status == 404

    def test_stats_reports_server_backend(self, server):
        cache = HttpCache(server.url)
        cache.put("k", {"v": 1})
        stats = cache.stats()
        assert stats["backend"] == "http(memory)"
        assert stats["entries"] == 1 and stats["location"] == server.url

    def test_gc_delegates_to_server(self, server):
        cache = HttpCache(server.url)
        cache.put("k", {"v": 1})
        assert cache.gc(3600.0) == 0  # fresh entry survives
        assert cache.gc(0.0) == 1  # everything is older than "now"
        assert len(cache) == 0

    def test_bad_url_rejected(self):
        with pytest.raises(InvalidParameterError, match="http"):
            HttpCache("ftp://example.com")
        with pytest.raises(InvalidParameterError, match="batch_size"):
            HttpCache("http://example.com", batch_size=0)


class TestHttpCacheFaults:
    """Satellite: broken servers degrade to recompute, loudly only when
    the answer itself is the point."""

    def test_dead_server_reads_as_misses(self, requests, plain_records):
        cache = HttpCache(_dead_url(), timeout=0.5)
        assert cache.get("k") is None
        cache.put("k", {"v": 1})  # dropped, not raised
        assert cache.get_many(["k"]) == {}
        runner = BatchRunner(cache=cache)
        records = runner.run(requests)
        assert _strip(records) == _strip(plain_records)
        assert runner.stats.computed == len(requests)

    def test_dead_server_strict_surfaces_raise(self):
        cache = HttpCache(_dead_url(), timeout=0.5)
        with pytest.raises(CacheError, match="unreachable"):
            list(cache.keys())
        with pytest.raises(CacheError, match="unreachable"):
            cache.stats()
        with pytest.raises(CacheError, match="unreachable"):
            len(cache)

    def test_server_restart_mid_sweep_falls_back_to_recompute(
        self, requests, plain_records
    ):
        backend = MemoryCache()
        srv = CacheServer(backend).start()
        cache = HttpCache(srv.url, timeout=0.5)
        BatchRunner(cache=cache).run(requests[:2])  # warm two cells
        srv.stop()  # the "restart": server gone, cache state lost to us
        runner = BatchRunner(cache=cache)
        records = runner.run(requests)
        assert _strip(records) == _strip(plain_records)
        assert runner.stats.computed == len(requests)  # all recomputed

    def test_malformed_responses_read_as_misses(self, requests):
        class GarbageHandler(BaseHTTPRequestHandler):
            def _garbage(self):
                body = b"<html>not json at all"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_PUT = do_POST = _garbage

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), GarbageHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            cache = HttpCache(url, timeout=2.0)
            assert cache.get("k") is None
            cache.put("k", {"v": 1})  # swallowed
            assert cache.get_many(["k"]) == {}
            with pytest.raises(CacheError, match="no usable JSON"):
                cache.stats()
            record = BatchRunner(cache=cache).run_one(
                "pd", poisson_instance(4, seed=0)
            )
            assert not record.cached  # computed despite the garbage
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestServerHardening:
    """Satellite: the server rejects hostile keys; the client survives
    non-HTTP peers."""

    def test_path_traversal_keys_rejected(self, tmp_path):
        import urllib.error
        import urllib.request

        root = tmp_path / "outer" / "inner" / "cache"
        backend = DirectoryCache(root)
        srv = CacheServer(backend).start()
        try:
            # percent-encoded slashes arrive as ONE unquoted segment;
            # unchecked they would join right out of the cache dir
            evil = f"{srv.url}/records/..%2F..%2Fescaped"
            body = json.dumps({"v": 1}).encode()
            for method in ("PUT", "GET"):
                request = urllib.request.Request(
                    evil, data=body if method == "PUT" else None, method=method
                )
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(request, timeout=2.0)
                assert err.value.code == 400
            assert not (tmp_path / "outer" / "escaped.json").exists()
            # batch puts and claim ids go through the same gate
            cache = HttpCache(srv.url)
            cache.put_many({"../../escaped": {"v": 1}})  # lenient: dropped
            assert not (tmp_path / "outer" / "escaped.json").exists()
            assert len(backend) == 0
            # batch *gets* walk the same backend read path
            assert cache.get_many(["../../escaped"]) == {}
            with pytest.raises(CacheError, match="illegal claim id"):
                HttpClaimTable(srv.url, "../../table", 2)
        finally:
            srv.stop()

    @pytest.mark.parametrize("declared", ["abc", "1.5", "-5"])
    def test_malformed_content_length_is_a_400(self, server, declared):
        """A Content-Length that is not an int >= 0 is a malformed
        request (400, not a 500), stores nothing, and closes the
        connection, since the body's end is unknowable."""
        from repro.engine.remote import HttpConnectionPool

        with HttpConnectionPool(server.url) as pool:
            status, headers, raw = pool.request(
                "PUT", "/records/k", b"{}", {"Content-Length": declared}
            )
            assert status == 400
            assert "Content-Length" in json.loads(raw)["error"]
            assert headers.get("Connection") == "close"
            assert pool.idle_count() == 0
            assert "k" not in server.cache
            status, _, _ = pool.request("GET", "/stats")
            assert status == 200

    def test_bool_claim_total_is_a_400(self, server):
        from repro.engine.remote import HttpConnectionPool

        with HttpConnectionPool(server.url) as pool:
            for total in (True, -1, 2.0, "3", None):
                status, _, raw = pool.request(
                    "POST",
                    "/claims/flag",
                    json.dumps({"total": total}).encode("utf-8"),
                )
                assert status == 400, total
                assert "total" in json.loads(raw)["error"]
        assert server.stats_fast()["claim_tables"] == 0

    @pytest.mark.parametrize(
        "route", ["/gc", "/claims/t", "/claims/t/done"]
    )
    def test_non_object_bodies_are_a_400(self, server, route):
        from repro.engine.remote import HttpConnectionPool

        with HttpConnectionPool(server.url) as pool:
            status, _, raw = pool.request("POST", route, b"[1]")
        assert status == 400
        assert "JSON object" in json.loads(raw)["error"]

    def test_double_start_rejected(self):
        """``start()`` publishes the thread handle under the lock: a
        second ``start()`` while serving must refuse instead of silently
        orphaning the first thread's handle (the RPR2xx lock-coverage
        defect ``repro lint`` surfaced)."""
        srv = CacheServer(MemoryCache()).start()
        try:
            with pytest.raises(InvalidParameterError, match="already started"):
                srv.start()
        finally:
            srv.stop()

    def test_scheme_less_urls_rejected_as_input_errors(self):
        # urlopen would raise a bare ValueError for these; they must
        # surface as ReproError input errors (CLI exit 2), not tracebacks
        for url in ("localhost:8377", "127.0.0.1:8377", ""):
            with pytest.raises(InvalidParameterError, match="http"):
                HttpCache(url)
            with pytest.raises(InvalidParameterError, match="http"):
                HttpClaimTable(url, "t", 2)

    def test_non_http_peer_degrades_not_crashes(self, requests):
        """A TCP service speaking something other than HTTP must read
        as a miss (BadStatusLine is an HTTPException, not an OSError)."""

        def speak_garbage(server_sock):
            while True:
                try:
                    conn, _ = server_sock.accept()
                except OSError:
                    return
                conn.recv(4096)
                conn.sendall(b"I AM NOT HTTP\r\n")
                conn.close()

        server_sock = socket.socket()
        server_sock.bind(("127.0.0.1", 0))
        server_sock.listen(4)
        port = server_sock.getsockname()[1]
        thread = threading.Thread(
            target=speak_garbage, args=(server_sock,), daemon=True
        )
        thread.start()
        try:
            cache = HttpCache(f"http://127.0.0.1:{port}", timeout=2.0)
            assert cache.get("k") is None
            cache.put("k", {"v": 1})  # dropped, not raised
            with pytest.raises(CacheError, match="unreachable"):
                cache.stats()
            record = BatchRunner(cache=cache).run_one(
                "pd", poisson_instance(4, seed=0)
            )
            assert not record.cached
        finally:
            server_sock.close()

    def test_strict_errors_carry_server_detail(self):
        class NoGc(MemoryCache):
            gc = None  # a backend without garbage collection

        srv = CacheServer(NoGc()).start()
        try:
            with pytest.raises(CacheError, match="does not support gc"):
                HttpCache(srv.url).gc(0.0)
        finally:
            srv.stop()


class TestMemoryCache:
    """The unbounded in-process backend (``cache-serve --backend memory``)."""

    def test_memory_backend_as_the_store_is_unbounded(self):
        """When the memory cache IS the store (cache-serve --backend
        memory), nothing may be evicted mid-sweep."""
        from repro.engine import open_cache

        cache = open_cache(None, "memory")
        for i in range(1500):
            cache.put(f"k{i}", {"v": i})
        assert len(cache) == 1500 and cache.get("k0") == {"v": 0}
        assert cache.stats()["entries"] == 1500

    def test_runner_parity_cold_and_warm(self, requests, plain_records):
        cache = MemoryCache()
        cold = BatchRunner(cache=cache).run(requests)
        warm = BatchRunner(cache=cache).run(requests)
        assert all(r.cached for r in warm)
        assert _strip(cold) == _strip(plain_records) == _strip(warm)


class TestWorkStealing:
    """Tentpole: claim-driven execution merges to the unsharded run."""

    def test_in_process_claims_partition_exactly_once(self):
        table = InProcessClaimTable(5)
        assert table.claim(2) == [0, 1]
        assert table.claim() == [2]
        assert table.remaining == 2
        assert table.claim(10) == [3, 4]
        assert table.claim() == []  # drained stays drained
        with pytest.raises(InvalidParameterError, match="count"):
            table.claim(0)
        with pytest.raises(InvalidParameterError, match="total"):
            InProcessClaimTable(-1)

    def test_a_bool_is_not_a_count(self, server):
        with pytest.raises(InvalidParameterError, match="total"):
            InProcessClaimTable(True)
        with pytest.raises(InvalidParameterError, match="count"):
            InProcessClaimTable(3).claim(True)
        with pytest.raises(InvalidParameterError, match="total"):
            HttpClaimTable(server.url, "flags", True)
        with pytest.raises(InvalidParameterError, match="batch_size"):
            HttpCache(server.url, batch_size=True)
        table = HttpClaimTable(server.url, "flags", 3)
        with pytest.raises(InvalidParameterError, match="count"):
            table.claim(True)
        table.close()
        assert server.stats_counters.claim_requests == 0

    def test_single_worker_drain_equals_run(self, requests, plain_records):
        runner = BatchRunner()
        pairs = runner.run_stolen(requests, InProcessClaimTable(len(requests)))
        assert [p for p, _ in pairs] == list(range(len(requests)))
        assert _strip([r for _, r in pairs]) == _strip(plain_records)

    def test_two_workers_union_is_the_full_run(
        self, requests, plain_records, tmp_path
    ):
        # One SqliteCache per worker on the same file: an instance shares
        # one connection without a mutex (``thread_safe = False``), so
        # concurrent workers each bring their own WAL connection.
        claims = InProcessClaimTable(len(requests))
        caches = [SqliteCache(tmp_path / "c.db") for _ in range(2)]
        results: dict[int, list] = {}

        def worker(slot: int) -> None:
            results[slot] = BatchRunner(cache=caches[slot]).run_stolen(
                requests, claims
            )

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        for cache in caches:
            cache.close()
        merged = sorted(results[0] + results[1])
        assert [p for p, _ in merged] == list(range(len(requests)))
        assert _strip([r for _, r in merged]) == _strip(plain_records)

    def test_pool_workers_steal_and_match(self, requests, plain_records):
        pairs = BatchRunner(workers=2).run_stolen(
            requests, InProcessClaimTable(len(requests))
        )
        assert _strip([r for _, r in pairs]) == _strip(plain_records)

    def test_warm_cache_streams_hits_without_computing(
        self, requests, tmp_path
    ):
        cache = SqliteCache(tmp_path / "c.db")
        BatchRunner(cache=cache).run(requests)
        runner = BatchRunner(cache=cache)
        pairs = runner.run_stolen(requests, InProcessClaimTable(len(requests)))
        assert all(record.cached for _, record in pairs)
        assert runner.stats.computed == 0
        assert runner.stats.cache_hits == len(requests)

    def test_out_of_range_claims_rejected(self, requests):
        class BrokenTable:
            def claim(self, count: int = 1):
                return [999]

        # a fabric fault, so CacheError (not a parameter error)
        with pytest.raises(CacheError, match="out of sync"):
            BatchRunner().run_stolen(requests, BrokenTable())

    def test_duplicate_claims_rejected(self, requests):
        class DoubleTable:
            def __init__(self):
                self.handed = 0

            def claim(self, count: int = 1):
                self.handed += 1
                return [0] if self.handed <= 2 else []

        with pytest.raises(CacheError, match="twice"):
            BatchRunner().run_stolen(requests, DoubleTable())

    def test_http_claim_table_shares_a_session(self, server):
        first = HttpClaimTable(server.url, "sweep-1", 4)
        second = HttpClaimTable(server.url, "sweep-1", 4)
        assert first.token == second.token
        assert first.claim(3) == [0, 1, 2]
        assert second.claim(3) == [3]
        assert first.claim() == []

    def test_http_claim_total_mismatch_rejected(self, server):
        HttpClaimTable(server.url, "sweep-2", 4)
        with pytest.raises(CacheError, match="different request lists"):
            HttpClaimTable(server.url, "sweep-2", 5)

    def test_claims_against_dead_server_fail_loudly(self):
        with pytest.raises(CacheError, match="unreachable"):
            HttpClaimTable(_dead_url(), "sweep-3", 4)

    def test_malformed_claim_positions_fail_as_claim_faults(self):
        """A version-skewed server handing out non-int positions must
        raise CacheError — not a raw ValueError, and never a silent
        float truncation onto another worker's cell."""

        class SkewedHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                if self.path.endswith("/next"):
                    body = json.dumps(
                        {"positions": ["abc"], "token": "t"}
                    ).encode()
                else:  # claim create
                    body = json.dumps({"token": "t", "total": 4}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), SkewedHandler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            table = HttpClaimTable(url, "skewed", 4)
            with pytest.raises(CacheError, match="failed to hand out"):
                table.claim()
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestClaimLeases:
    """Claim leases: a claimed-but-unreported cell is reissued after a
    TTL, so one crashed worker cannot strand tail cells."""

    def test_expired_leases_are_reissued(self):
        clock = {"now": 0.0}
        table = InProcessClaimTable(
            3, lease_ttl=10.0, clock=lambda: clock["now"]
        )
        assert table.claim(2) == [0, 1]
        clock["now"] = 5.0
        assert table.claim() == [2]  # leases still healthy: fresh cell
        clock["now"] = 10.5  # positions 0 and 1 expired, 2 still leased
        assert table.claim(5) == [0, 1]
        clock["now"] = 25.0  # everything expired again
        assert table.claim(5) == [0, 1, 2]

    def test_done_positions_are_never_reissued(self):
        clock = {"now": 0.0}
        table = InProcessClaimTable(
            2, lease_ttl=1.0, clock=lambda: clock["now"]
        )
        assert table.claim(2) == [0, 1]
        table.done([0])
        clock["now"] = 100.0
        assert table.claim(5) == [1]  # only the unreported lease returns

    def test_lease_ttl_validation(self):
        for bad in (0.0, -1.0, float("nan"), float("inf"), "soon"):
            with pytest.raises(InvalidParameterError, match="lease_ttl"):
                InProcessClaimTable(3, lease_ttl=bad)
        with pytest.raises(InvalidParameterError, match="done positions"):
            InProcessClaimTable(3, lease_ttl=1.0).done([7])

    def test_no_lease_table_keeps_exactly_once(self):
        table = InProcessClaimTable(2)
        assert table.claim(2) == [0, 1]
        assert table.claim(5) == []  # drained forever, nothing reissued

    def test_kill_one_worker_cells_flow_to_the_survivor(
        self, requests, plain_records, server
    ):
        """A worker that claims cells and dies never reports done; after
        the TTL a healthy worker is handed those cells and the union
        still covers the full grid."""
        total = len(requests)
        crashed = HttpClaimTable(
            server.url, "lease-sweep", total, lease_ttl=0.2
        )
        assert crashed.claim(2) == [0, 1]  # ...and the worker dies here

        survivor = HttpClaimTable(
            server.url, "lease-sweep", total, lease_ttl=0.2
        )
        assert survivor.token == crashed.token
        time.sleep(0.25)  # let the dead worker's leases expire
        runner = BatchRunner()
        pairs = runner.run_stolen(requests, survivor)
        assert [position for position, _ in pairs] == list(range(total))
        assert _strip([r for _, r in pairs]) == _strip(plain_records)

    def test_survivor_waits_out_live_leases_instead_of_draining(
        self, requests, plain_records, server
    ):
        """A worker that exhausts the fresh queue while another worker's
        leases are still live must poll until they expire (or are
        reported done), not exit — otherwise nobody is left claiming
        when a crashed worker's leases lapse."""
        total = len(requests)
        crashed = HttpClaimTable(
            server.url, "lease-wait", total, lease_ttl=0.6
        )
        assert crashed.claim(2) == [0, 1]  # dies holding live leases
        survivor = HttpClaimTable(
            server.url, "lease-wait", total, lease_ttl=0.6
        )
        start = time.monotonic()
        pairs = BatchRunner().run_stolen(requests, survivor)  # no sleep!
        assert [position for position, _ in pairs] == list(range(total))
        assert _strip([r for _, r in pairs]) == _strip(plain_records)
        # It must have outlived the crashed worker's lease to get 0/1.
        assert time.monotonic() - start >= 0.3

    def test_no_done_traffic_without_leases(self, requests):
        class SpyTable(InProcessClaimTable):
            def __init__(self, total):
                super().__init__(total)
                self.done_calls = 0

            def done(self, positions):
                self.done_calls += 1
                super().done(positions)

        table = SpyTable(len(requests))
        BatchRunner().run_stolen(requests, table)
        assert table.done_calls == 0  # lease-less: historical protocol

    def test_lease_policy_mismatch_rejected(self, server):
        HttpClaimTable(server.url, "lease-policy", 4, lease_ttl=5.0)
        with pytest.raises(CacheError, match="rejected this worker"):
            HttpClaimTable(server.url, "lease-policy", 4)
        with pytest.raises(CacheError, match="rejected this worker"):
            HttpClaimTable(server.url, "lease-policy", 4, lease_ttl=9.0)

    def test_done_reports_survive_restartless_rejoin(self, server):
        """Reported cells stay retired for the server's lifetime: a
        worker rejoining the session is not handed finished work."""
        first = HttpClaimTable(server.url, "lease-rejoin", 2, lease_ttl=0.05)
        assert first.claim(2) == [0, 1]
        first.done([0, 1])
        time.sleep(0.1)
        rejoined = HttpClaimTable(
            server.url, "lease-rejoin", 2, lease_ttl=0.05
        )
        assert rejoined.claim(5) == []

    def test_http_done_validates_positions(self, server):
        table = HttpClaimTable(server.url, "lease-valid", 3, lease_ttl=1.0)
        with pytest.raises(InvalidParameterError, match="done positions"):
            table.done([5])
        with pytest.raises(InvalidParameterError, match="done positions"):
            table.done([True])

    def test_own_expired_lease_is_not_recomputed(self, requests, plain_records):
        """A worker slower than its own lease gets its cells handed back
        by the table; it must skip them, not duplicate them."""
        table = InProcessClaimTable(
            len(requests), lease_ttl=1e-9
        )  # every lease expires effectively immediately
        runner = BatchRunner(workers=2)
        pairs = runner.run_stolen(requests, table)
        assert [position for position, _ in pairs] == list(
            range(len(requests))
        )
        assert _strip([r for _, r in pairs]) == _strip(plain_records)

    def test_cli_rejects_lease_without_steal(self, tmp_path):
        from repro.io.cli import main

        code = main(
            [
                "sweep",
                "poisson",
                "-n",
                "4",
                "--seeds",
                "0",
                "--lease-ttl",
                "5",
                "--json",
                str(tmp_path / "out.json"),
            ]
        )
        assert code == 2  # InvalidParameterError surfaced as exit 2


class TestSqliteConcurrency:
    """Satellite bugfix: SQLITE_BUSY retries instead of crashing."""

    def test_busy_errors_retry_with_backoff(self, tmp_path, monkeypatch):
        import sqlite3

        cache = SqliteCache(tmp_path / "c.db")
        real_connect = cache._connect
        conn = real_connect()
        failures = {"left": 3}
        naps: list[float] = []

        class FlakyConn:
            def execute(self, *args, **kwargs):
                if failures["left"] > 0 and args[0].startswith("INSERT"):
                    failures["left"] -= 1
                    raise sqlite3.OperationalError("database is locked")
                return conn.execute(*args, **kwargs)

            def __enter__(self):
                return conn.__enter__()

            def __exit__(self, *exc):
                return conn.__exit__(*exc)

        monkeypatch.setattr(cache, "_connect", lambda: FlakyConn())
        monkeypatch.setattr(time, "sleep", naps.append)
        cache.put("k", {"v": 1})
        assert failures["left"] == 0 and cache.get("k") == {"v": 1}
        assert naps == sorted(naps) and len(naps) == 3  # growing backoff

    def test_non_busy_errors_surface_immediately(self, tmp_path, monkeypatch):
        import sqlite3

        cache = SqliteCache(tmp_path / "c.db")

        class BrokenConn:
            def execute(self, *args, **kwargs):
                raise sqlite3.OperationalError("no such table: entries")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(cache, "_connect", lambda: BrokenConn())
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            cache.put("k", {"v": 1})

    def test_two_processes_hammering_put(self, tmp_path):
        db = tmp_path / "stress.db"
        script = (
            "import sys\n"
            "from repro.engine import SqliteCache\n"
            "cache = SqliteCache(sys.argv[1], timeout=0.05)\n"
            "prefix = sys.argv[2]\n"
            "for i in range(120):\n"
            "    cache.put(f'{prefix}-{i}', {'v': i, 'wall_time': 0.001})\n"
            "cache.close()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(db), f"w{n}"],
                stderr=subprocess.PIPE,
            )
            for n in range(2)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        cache = SqliteCache(db)
        assert len(cache) == 240
        cache.close()


class TestDirectoryCacheTimingIndex:
    """Each cell's wall time lives in its record alone. Older builds
    also kept a timing index (``.timing`` sidecars beside directory
    entries, a ``wall_time`` column in sqlite); caches they wrote keep
    working, and their leftovers are never entries."""

    def test_put_writes_one_file_per_entry(self, tmp_path):
        cache = DirectoryCache(tmp_path / "c")
        cache.put("k", {"v": 1, "wall_time": 0.5})
        assert [p.name for p in (tmp_path / "c").iterdir()] == ["k.json"]

    def test_sidecars_are_not_entries(self, tmp_path):
        cache = DirectoryCache(tmp_path / "c")
        cache.put("k", {"v": 1, "wall_time": 0.5})
        (tmp_path / "c" / "k.timing").write_text("0.5")  # an older build's
        assert list(cache.keys()) == ["k"] and len(cache) == 1
        assert cache.stats()["entries"] == 1

    def test_gc_prunes_entries_sidecars_and_temps(self, tmp_path):
        import os

        cache = DirectoryCache(tmp_path / "c")
        cache.put("old", {"v": 1, "wall_time": 0.5})
        cache.put("fresh", {"v": 2, "wall_time": 0.5})
        (tmp_path / "c" / ".tmp-stale.json").write_text("x")
        for name in ("old.timing", "orphan.timing", "fresh.timing"):
            (tmp_path / "c" / name).write_text("0.5")  # an older build's
        ancient = time.time() - 7200
        for name in ("old.json", "old.timing", "orphan.timing", ".tmp-stale.json"):
            os.utime(tmp_path / "c" / name, (ancient, ancient))
        assert cache.gc(3600.0) == 1
        left = sorted(p.name for p in (tmp_path / "c").iterdir())
        assert left == ["fresh.json", "fresh.timing"]
        assert cache.get("fresh") == {"v": 2, "wall_time": 0.5}

    def test_older_dir_cache_with_sidecars_serves(self, requests, tmp_path):
        """A directory an older build filled (an entry plus its sidecar
        per cell) opens, serves over HTTP, takes puts and gc."""
        root = tmp_path / "c"
        records = BatchRunner(cache=DirectoryCache(root)).run(requests)
        for record in records:
            (root / f"{record.key}.timing").write_text(repr(record.wall_time))
        backend = DirectoryCache(root)
        srv = CacheServer(backend).start()
        try:
            cache = HttpCache(srv.url)
            warm = BatchRunner(cache=cache).run(requests)
            assert all(r.cached for r in warm)
            assert _strip(warm) == _strip(records)
            assert [r.wall_time for r in warm] == [r.wall_time for r in records]
            cache.put("new", {"v": 1})
            assert len(cache) == len(records) + 1
            assert cache.gc(0.0) == len(records) + 1
        finally:
            srv.stop()
        assert list(root.iterdir()) == []

    def test_stats_counts_entries_bytes_coverage(self, tmp_path):
        cache = DirectoryCache(tmp_path / "c")
        cache.put("a", {"v": 1, "wall_time": 0.5})
        cache.put("b", {"v": 2})
        stats = cache.stats()
        assert stats["backend"] == "dir" and stats["entries"] == 2
        assert stats["total_bytes"] > 0

    def test_sqlite_gc_and_stats(self, tmp_path):
        cache = SqliteCache(tmp_path / "c.db")
        cache.put("k", {"v": 1, "wall_time": 0.5})
        stats = cache.stats()
        assert stats["backend"] == "sqlite"
        assert stats["entries"] == 1 and stats["total_bytes"] > 0
        assert cache.gc(3600.0) == 0
        # pre-timestamp entries (created_at NULL) are prunable
        conn = cache._connect()
        with conn:
            conn.execute(
                "INSERT INTO entries (key, payload) VALUES ('legacy', '{}')"
            )
        assert cache.gc(3600.0) == 1
        assert cache.gc(0.0) == 1 and len(cache) == 0
        cache.close()



class TestCacheCli:
    """Satellite: the `cache` subcommand and the steal sweep, end to end."""

    BASE = [
        "sweep", "poisson", "-n", "4", "--alphas", "3.0", "--ms", "1",
        "--algorithms", "pd", "--seeds", "0,1",
    ]

    def test_steal_sweep_merges_byte_identical(self, tmp_path, capsys):
        from repro.io.cli import main

        backend = MemoryCache()
        srv = CacheServer(backend).start()
        try:
            full = str(tmp_path / "full.json")
            assert main(self.BASE + ["--json", full]) == 0
            shards = [str(tmp_path / f"s{i}.json") for i in range(2)]
            for index, shard_path in enumerate(shards):
                argv = self.BASE + [
                    "--shard", f"{index}/2", "--shard-strategy", "steal",
                    "--cache-backend", "http", "--cache-url", srv.url,
                    "--json", shard_path,
                ]
                assert main(argv) == 0
            merged = str(tmp_path / "merged.json")
            assert main(
                ["sweep", "--merge", *shards, "--json", merged]
            ) == 0
            capsys.readouterr()
            with open(full, "rb") as a, open(merged, "rb") as b:
                assert a.read() == b.read()
            # both shard files carry the same claim-session token
            tokens = {
                json.load(open(path))["assignment"] for path in shards
            }
            assert len(tokens) == 1
        finally:
            srv.stop()

    def test_claim_session_label_allows_reruns(self, tmp_path, capsys):
        """A finished sweep's claim table is drained for the server's
        lifetime; a fresh --claim-session label re-runs it (warm from
        cache) without a server restart."""
        from repro.io.cli import main

        backend = MemoryCache()
        srv = CacheServer(backend).start()
        try:
            first = self.BASE + [
                "--shard", "0/1", "--shard-strategy", "steal",
                "--cache-backend", "http", "--cache-url", srv.url,
                "--json", str(tmp_path / "a.json"),
            ]
            assert main(first) == 0
            assert "2 computed" in capsys.readouterr().out
            # same invocation again: drained table, zero records
            assert main(first[:-1] + [str(tmp_path / "b.json")]) == 0
            assert "0 records" in capsys.readouterr().out
            # fresh session label: full run again, now all cache hits
            rerun = first[:-1] + [
                str(tmp_path / "c.json"), "--claim-session", "take2",
            ]
            assert main(rerun) == 0
            assert "2 from cache" in capsys.readouterr().out
            with open(tmp_path / "a.json") as a, open(tmp_path / "c.json") as c:
                first_records = json.load(a)
                rerun_records = json.load(c)
            assert first_records["positions"] == rerun_records["positions"]
            assert first_records["assignment"] != rerun_records["assignment"]
        finally:
            srv.stop()

    def test_steal_merge_tolerates_reissued_duplicates(
        self, tmp_path, capsys
    ):
        """Lease reissue makes steal claiming at-least-once: a slow
        worker and the reissue's recipient can both record one cell.
        The merge keeps one copy (differing only in cached/wall_time
        bookkeeping) instead of failing the whole sweep."""
        from repro.io.cli import main

        backend = MemoryCache()
        srv = CacheServer(backend).start()
        try:
            full = str(tmp_path / "full.json")
            assert main(self.BASE + ["--json", full]) == 0
            shards = [str(tmp_path / f"s{i}.json") for i in range(2)]
            for index, shard_path in enumerate(shards):
                argv = self.BASE + [
                    "--shard", f"{index}/2", "--shard-strategy", "steal",
                    "--cache-backend", "http", "--cache-url", srv.url,
                    "--json", shard_path,
                ]
                assert main(argv) == 0
        finally:
            srv.stop()
        donor, receiver = (json.load(open(path)) for path in shards)
        stolen_position = donor["positions"][0]
        twin = dict(donor["records"][0])
        twin["cached"] = not twin["cached"]  # recomputed elsewhere
        twin["wall_time"] = 123.456  # on a different machine
        receiver["positions"].append(stolen_position)
        receiver["records"].append(twin)
        json.dump(receiver, open(shards[1], "w"))
        merged = str(tmp_path / "merged.json")
        assert main(["sweep", "--merge", *shards, "--json", merged]) == 0
        assert "duplicate record" in capsys.readouterr().err
        with open(full, "rb") as a, open(merged, "rb") as b:
            assert a.read() == b.read()
        # A duplicate with a *different result* is corruption, not a
        # reissue — that still fails loudly.
        twin["cost"] = twin["cost"] + 1.0
        json.dump(receiver, open(shards[1], "w"))
        assert main(["sweep", "--merge", *shards]) == 2
        assert "different results" in capsys.readouterr().err

    def test_steal_merge_detects_tail_holes(self, tmp_path, capsys):
        """Cells a dead worker claimed but never computed must fail the
        merge even when they are the *last* grid positions — a record-
        count sum alone would accept the dense prefix silently."""
        from repro.io.cli import main

        backend = MemoryCache()
        srv = CacheServer(backend).start()
        try:
            shards = [str(tmp_path / f"s{i}.json") for i in range(2)]
            for index, shard_path in enumerate(shards):
                argv = self.BASE + [
                    "--shard", f"{index}/2", "--shard-strategy", "steal",
                    "--cache-backend", "http", "--cache-url", srv.url,
                    "--json", shard_path,
                ]
                assert main(argv) == 0
        finally:
            srv.stop()
        # Simulate the crash: whichever shard owns the last position
        # loses it (claimed, never computed, never re-issued).
        owner = max(shards, key=lambda p: json.load(open(p))["positions"] or [-1])
        payload = json.load(open(owner))
        payload["positions"] = payload["positions"][:-1]
        payload["records"] = payload["records"][:-1]
        json.dump(payload, open(owner, "w"))
        assert main(["sweep", "--merge", *shards]) == 2
        assert "claimed but never computed" in capsys.readouterr().err

    def test_steal_shards_from_different_sessions_rejected(
        self, tmp_path, capsys
    ):
        from repro.io.cli import main

        shards = [str(tmp_path / f"s{i}.json") for i in range(2)]
        for index, shard_path in enumerate(shards):
            backend = MemoryCache()
            srv = CacheServer(backend).start()  # fresh server per worker
            try:
                argv = self.BASE + [
                    "--shard", f"{index}/2", "--shard-strategy", "steal",
                    "--cache-backend", "http", "--cache-url", srv.url,
                    "--json", shard_path,
                ]
                assert main(argv) == 0
            finally:
                srv.stop()
        assert main(["sweep", "--merge", *shards]) == 2
        assert "different claim sessions" in capsys.readouterr().err

    def test_steal_requires_url_and_shard(self, capsys):
        from repro.io.cli import main

        assert main(self.BASE + ["--shard-strategy", "steal"]) == 2
        assert "--cache-url" in capsys.readouterr().err
        assert main(
            self.BASE
            + ["--shard-strategy", "steal", "--cache-url", "http://x"]
        ) == 2
        assert "--shard" in capsys.readouterr().err

    def test_cache_stats_and_gc_local(self, tmp_path, capsys):
        from repro.io.cli import main

        cache_dir = str(tmp_path / "c")
        DirectoryCache(cache_dir).put("k", {"v": 1, "wall_time": 0.5})
        assert main(["cache", "stats", "--cache", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "backend        : dir" in out
        assert "entries        : 1" in out
        assert "timing" not in out
        assert main(
            ["cache", "gc", "--cache", cache_dir, "--older-than", "0s"]
        ) == 0
        assert "pruned 1 entries" in capsys.readouterr().out
        assert len(DirectoryCache(cache_dir)) == 0

    def test_cache_stats_over_http(self, server, capsys):
        from repro.io.cli import main

        HttpCache(server.url).put("k", {"v": 1})
        argv = [
            "cache", "stats",
            "--cache-backend", "http", "--cache-url", server.url,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "http(memory)" in out and "entries        : 1" in out

    def test_cache_requires_a_target(self, capsys):
        from repro.io.cli import main

        assert main(["cache", "stats"]) == 2
        assert "--cache" in capsys.readouterr().err

    def test_cache_maintenance_refuses_missing_paths(self, tmp_path, capsys):
        """stats/gc on a typo'd path must error, not create an empty
        store and report '0 entries' for a populated cache elsewhere."""
        from repro.io.cli import main

        typo = str(tmp_path / "resluts.db")
        argv = ["cache", "stats", "--cache", typo, "--cache-backend", "sqlite"]
        assert main(argv) == 2
        assert "no cache at" in capsys.readouterr().err
        assert not (tmp_path / "resluts.db").exists()  # nothing created
        argv = ["cache", "gc", "--cache", typo, "--older-than", "1d"]
        assert main(argv) == 2
        assert "no cache at" in capsys.readouterr().err

    def test_bad_older_than_rejected(self, tmp_path, capsys):
        from repro.io.cli import main

        cache_dir = str(tmp_path / "c")
        DirectoryCache(cache_dir)
        argv = ["cache", "gc", "--cache", cache_dir, "--older-than", "soon"]
        assert main(argv) == 2
        assert "--older-than" in capsys.readouterr().err

    def test_age_suffixes(self):
        from repro.io.cli import _parse_age

        assert _parse_age("90") == 90.0
        assert _parse_age("2m") == 120.0
        assert _parse_age("1h") == 3600.0
        assert _parse_age("30d") == 30 * 86400.0
        for bad in ("-5", "nan", "inf", "nand"):
            with pytest.raises(InvalidParameterError):
                _parse_age(bad)

    def test_http_backend_needs_url_and_rejects_path(self, capsys):
        from repro.io.cli import main

        assert main(self.BASE + ["--cache-backend", "http"]) == 2
        assert "--cache-url" in capsys.readouterr().err
        argv = self.BASE + [
            "--cache-backend", "http", "--cache-url", "http://x",
            "--cache", "somewhere",
        ]
        assert main(argv) == 2
        assert "drop --cache" in capsys.readouterr().err

    def test_cli_backends_are_dir_sqlite_and_http(self):
        """sweep, cache stats and cache gc offer the same three choices;
        any other backend name is an argparse error."""
        from repro.io.cli import _cache_backends

        assert _cache_backends() == ["dir", "http", "sqlite"]

    @pytest.mark.parametrize(
        "command",
        [BASE, ["cache", "stats"], ["cache", "gc", "--older-than", "1d"]],
        ids=["sweep", "cache-stats", "cache-gc"],
    )
    def test_memory_backend_is_not_a_choice(self, command, capsys):
        """A memory cache would die with the invocation: sweep computes
        each duplicate cell once without one, and stats/gc on it could
        only report nothing."""
        from repro.io.cli import main

        with pytest.raises(SystemExit) as exc:
            main(command + ["--cache-backend", "memory"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
