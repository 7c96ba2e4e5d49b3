"""Network cache fabric clients: HTTP cache backend and claim table.

The server side lives in :mod:`repro.io.server` (a thin
``http.server`` wrapper around any local :class:`~repro.engine.cache.
CacheBackend`); this module is the client side, all stdlib
``http.client``:

* :class:`HttpConnectionPool` — a thread-safe pool of persistent
  keep-alive connections to one server. Every round trip checks a
  connection out, reuses the warm socket, and checks it back in; a
  stale pooled socket (server restarted, idle timeout closed it) gets
  exactly one transparent reconnect on a fresh connection before the
  fault surfaces.
* :class:`HttpCache` — a :class:`~repro.engine.cache.CacheBackend` over
  a small JSON/HTTP wire protocol, with batched ``get_many`` /
  ``put_many`` round trips to amortize latency (the runner's cache
  probe reads through ``get_many``). The server sends records as their
  stored text, unparsed, so this client is where a corrupt entry
  becomes a miss for its key alone (see :meth:`HttpCache.get_many`).
* :class:`HttpClaimTable` — the client of the server's shared claim
  table, which is what turns static shards into work stealing: each
  worker claims the next unclaimed grid positions (batched — ``k`` per
  round trip) instead of owning a precomputed slice, so a slow
  worker's queue drains into fast ones.

Bodies travel as plain identity-encoded JSON in both directions.

Fault model, deliberately asymmetric:

* **cache traffic degrades**: a ``get`` against an unreachable or
  misbehaving server is a *miss* and a ``put`` is dropped — the sweep
  falls back to recomputing, which is always correct (the cache is an
  optimization). A transport fault is retried after each delay in
  :data:`RETRY_DELAYS`, so a server restart mid-sweep costs time,
  never correctness.
* **claim traffic fails loudly** (:class:`~repro.errors.CacheError`),
  after the pool's single stale-socket reconnect but with no backoff
  loop: a worker that cannot reach the claim table must stop rather
  than guess at positions — two workers guessing would both compute
  overlapping cells and the merge would reject the result anyway.

The wire format is Python-dialect JSON (``NaN`` literals allowed —
certified ratios of certificate-less algorithms are ``NaN`` by
contract), which round-trips exactly between ``json.dumps`` and
``json.loads`` on both ends.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import socket
import threading
import time
import urllib.parse
from email.message import Message
from typing import Any, Iterator, Mapping, Sequence

from ..errors import CacheError, InvalidParameterError
from .runner import (
    DEFAULT_LEASE_TTL,
    _check_claim_count,
    _check_claim_total,
    _check_done_positions,
    _check_lease_ttl,
)

__all__ = [
    "HttpCache",
    "HttpClaimTable",
    "HttpConnectionPool",
]

#: Default number of entries per ``records:batch`` round trip. Large
#: enough to amortize a round trip, small enough to keep a single
#: response bounded (payloads carry full schedules).
DEFAULT_BATCH_SIZE = 64

#: Cap on idle keep-alive connections parked per cache pool. A sweep
#: worker talks to one server from a handful of threads at most; excess
#: sockets beyond the cap are closed on check-in rather than hoarded.
DEFAULT_POOL_SIZE = 4

#: Seconds slept before each retry of a lenient record round trip: two
#: retries, then the call reads as a miss (or a dropped write).
RETRY_DELAYS = (0.05, 0.1)


def _check_url(url: str) -> str:
    """Validate a cache-server base URL up front.

    A scheme-less URL would otherwise surface as a bare ``ValueError``
    deep inside the transport — which is neither a transport fault nor
    a :class:`ReproError`, so it would escape every handler as a raw
    traceback. Catch it here, once, as the input error it is.
    """
    if not isinstance(url, str) or not url.startswith(("http://", "https://")):
        raise InvalidParameterError(
            f"cache server URL must start with http:// or https://, "
            f"got {url!r}"
        )
    return url.rstrip("/")


class HttpConnectionPool:
    """Thread-safe pool of persistent keep-alive connections to one
    cache server.

    ``request`` checks a warm connection out (or dials a fresh one),
    runs one HTTP round trip, and parks the connection for reuse. The
    server speaks HTTP/1.1 with ``Content-Length`` on every reply, so
    sockets stay open across requests and connection setup amortizes
    to zero.

    Staleness: a *reused* socket can die at any time (server restart,
    idle timeout, mid-sweep network blip). A transport fault on a
    pooled connection therefore gets exactly one transparent retry on
    a freshly dialed connection; a fault on a fresh connection is real
    and raises :class:`~repro.errors.CacheError`. HTTP error *statuses*
    are returned like any other response — 404 is part of the protocol.

    Every fabric client builds one of these, so its constructor is the
    one place that validates ``timeout``: anything but a positive,
    finite number of seconds is an input error, raised before any
    socket is dialed.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 10.0,
        max_idle: int = DEFAULT_POOL_SIZE,
    ) -> None:
        self.url = _check_url(url)
        if (
            not isinstance(timeout, (int, float))
            or isinstance(timeout, bool)
            or not math.isfinite(timeout)
            or timeout <= 0
        ):
            raise InvalidParameterError(
                "timeout must be a finite number of seconds > 0, "
                f"got {timeout!r}"
            )
        if not isinstance(max_idle, int) or isinstance(max_idle, bool) or max_idle < 1:
            raise InvalidParameterError(
                f"max_idle must be an int >= 1, got {max_idle!r}"
            )
        parts = urllib.parse.urlsplit(self.url)
        self._factory = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._host = parts.hostname or ""
        self._port = parts.port
        self._prefix = parts.path
        self.timeout = float(timeout)
        self.max_idle = max_idle
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []

    # -- connection lifecycle -------------------------------------------
    def _checkout(self) -> http.client.HTTPConnection | None:
        with self._lock:
            return self._idle.pop() if self._idle else None

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < self.max_idle:
                self._idle.append(conn)
                return
        conn.close()

    def idle_count(self) -> int:
        """Parked keep-alive connections right now (introspection)."""
        with self._lock:
            return len(self._idle)

    def close(self) -> None:
        """Close every parked connection. Safe to call repeatedly; the
        pool keeps working afterwards (it just dials fresh sockets)."""
        with self._lock:
            drained, self._idle = self._idle, []
        for conn in drained:
            conn.close()

    def __enter__(self) -> "HttpConnectionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- one round trip -------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        data: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, Message, bytes]:
        """One HTTP round trip; returns ``(status, headers, body)``.

        Transport faults raise :class:`CacheError` — after one
        transparent reconnect if the failing connection was a reused
        pooled one (stale keep-alive sockets are an expected hazard,
        not a server fault).
        """
        conn = self._checkout()
        reused = conn is not None
        while True:
            fresh = conn is None
            if fresh:
                conn = self._factory(
                    self._host, self._port, timeout=self.timeout
                )
            try:
                if fresh:
                    conn.connect()
                    # Nagle + delayed ACK stalls every request on a
                    # reused keep-alive socket by ~40ms; the pool exists
                    # to make round trips cheap, so small segments must
                    # go out immediately.
                    with contextlib.suppress(OSError, AttributeError):
                        conn.sock.setsockopt(
                            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                        )
                conn.request(
                    method, self._prefix + path, body=data, headers=dict(headers or {})
                )
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError, TimeoutError) as exc:
                conn.close()
                if reused:
                    # The parked socket went stale between requests —
                    # redial once; only a fresh-socket fault is real.
                    reused = False
                    conn = None
                    continue
                raise CacheError(
                    f"cache server {self.url} unreachable "
                    f"({method} {path}): {exc}"
                ) from exc
            if response.will_close:
                conn.close()
            else:
                self._checkin(conn)
            return response.status, response.headers, raw


_JSON_HEADERS = {"Content-Type": "application/json"}


def _pool_json(
    pool: HttpConnectionPool,
    method: str,
    path: str,
    body: Any | None = None,
) -> tuple[int, Any | None]:
    """One JSON round trip over the pool.

    Returns ``(status, parsed_body)``, where the body is ``None`` if it
    is empty or not JSON — the caller decides whether that is a
    protocol error or a benign miss. Transport failures raise
    :class:`CacheError` (via the pool).
    """
    data = None if body is None else json.dumps(body).encode("utf-8")
    status, _, raw = pool.request(method, path, data, _JSON_HEADERS)
    if not raw:
        return status, None
    try:
        return status, json.loads(raw)
    except ValueError:  # not JSON, or bytes that decode as no text at all
        return status, None


class HttpCache:
    """A :class:`~repro.engine.cache.CacheBackend` over the cache-server
    wire protocol, on a persistent connection pool.

    ``get``/``put``/``get_many``/``put_many`` are *lenient*: any
    transport or protocol problem reads as a miss (or a dropped write)
    after the retry budget — see the module docstring for why.
    Introspection (``keys``, ``len``, ``stats``, ``gc``) is *strict* and
    raises :class:`~repro.errors.CacheError`: those answers are the
    point of the call, and a silently-empty one would lie.
    ``close()`` releases the pool's parked sockets — sweeps and the CLI
    route through it.
    """

    #: Safe to share across threads: the pool hands each round trip its
    #: own connection, and the server's striped locks do the rest.
    thread_safe = True

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 10.0,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self._pool = HttpConnectionPool(url, timeout=timeout)
        self.url = self._pool.url
        self.timeout = self._pool.timeout
        if (
            not isinstance(batch_size, int)
            or isinstance(batch_size, bool)
            or batch_size < 1
        ):
            raise InvalidParameterError(
                f"batch_size must be an int >= 1, got {batch_size!r}"
            )
        self.batch_size = batch_size

    # -- wire helpers ---------------------------------------------------
    @property
    def pool(self) -> HttpConnectionPool:
        """The underlying connection pool (introspection / tests)."""
        return self._pool

    def _record_path(self, key: str) -> str:
        return f"/records/{urllib.parse.quote(key, safe='')}"

    def _chunks(self, items: Sequence[Any]) -> Iterator[Sequence[Any]]:
        for start in range(0, len(items), self.batch_size):
            yield items[start : start + self.batch_size]

    def _lenient_json(
        self, method: str, path: str, body: Any | None = None
    ) -> tuple[int, Any | None] | None:
        """A round trip retried after each of :data:`RETRY_DELAYS`;
        ``None`` once they are spent (the caller reads that as a miss /
        dropped write). Every record route funnels through here, so
        backoff behavior is uniform across the lenient surface."""
        delays = iter(RETRY_DELAYS)
        while True:
            try:
                return _pool_json(self._pool, method, path, body)
            except CacheError:
                delay = next(delays, None)
                if delay is None:
                    return None
                time.sleep(delay)

    # -- lenient cache traffic ------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        reply = self._lenient_json("GET", self._record_path(key))
        if reply is None:
            return None
        status, payload = reply
        if status != 200 or not isinstance(payload, dict):
            return None
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        # A reply of None is a dropped write: recomputable by contract.
        self._lenient_json("PUT", self._record_path(key), payload)

    def get_many(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Fetch many entries in ``batch_size``-bounded round trips.

        Missing keys are simply absent from the result; a failed chunk
        contributes nothing (its keys read as misses). The server
        splices stored records into its reply unparsed, so one corrupt
        entry spoils the whole reply: a chunk whose reply does not parse
        is fetched again one key at a time, and only the corrupt key
        misses. A record that parses but is not an object misses too,
        and records for keys this call did not ask for are dropped.
        """
        found: dict[str, dict[str, Any]] = {}
        for chunk in self._chunks(list(keys)):
            result = self._lenient_json(
                "POST", "/records:batch", {"get": list(chunk)}
            )
            if result is None:
                continue
            status, reply = result
            if status != 200:
                continue
            if not isinstance(reply, dict):
                for key in chunk:
                    payload = self.get(key)
                    if payload is not None:
                        found[key] = payload
                continue
            records = reply.get("records")
            if isinstance(records, dict):
                wanted = set(chunk)
                for key, payload in records.items():
                    if key in wanted and isinstance(payload, dict):
                        found[key] = payload
        return found

    def put_many(self, entries: Mapping[str, dict[str, Any]]) -> None:
        """Store many entries in ``batch_size``-bounded round trips."""
        items = list(entries.items())
        for chunk in self._chunks(items):
            self._lenient_json("POST", "/records:batch", {"put": dict(chunk)})

    # -- strict introspection -------------------------------------------
    def _strict(self, method: str, path: str, body: Any | None = None) -> Any:
        status, reply = _pool_json(self._pool, method, path, body)
        if status != 200 or not isinstance(reply, dict):
            detail = (
                reply.get("error")
                if isinstance(reply, dict)
                else "no usable JSON body"
            )
            raise CacheError(
                f"cache server {self.url} answered {method} {path} with "
                f"status {status}: {detail}"
            )
        return reply

    def keys(self) -> Iterator[str]:
        reply = self._strict("GET", "/keys")
        keys = reply.get("keys")
        if not isinstance(keys, list):
            raise CacheError(
                f"cache server {self.url} GET /keys returned no 'keys' list"
            )
        yield from (str(key) for key in keys)

    def stats(self, *, deep: bool = True) -> dict[str, Any]:
        """The server's stats, stamped with this client's URL.

        ``deep=True`` (the default) asks the server for the full
        backend walk — entries and bytes — which is the authoritative
        answer introspection wants. ``deep=False`` hits
        the lock-free monitoring snapshot instead: live fabric
        counters, never touching the backend, safe to poll against a
        busy server.
        """
        reply = self._strict("GET", "/stats?deep=1" if deep else "/stats")
        server = reply.get("backend", "?")
        return {
            **reply,
            "backend": f"http({server})",
            "location": self.url,
        }

    def gc(self, older_than: float) -> int:
        reply = self._strict("POST", "/gc", {"older_than": float(older_than)})
        return int(reply.get("removed", 0))

    def close(self) -> None:
        """Release the pool's parked keep-alive connections."""
        self._pool.close()

    def __enter__(self) -> "HttpCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        entries = self._strict("GET", "/stats?deep=1").get("entries")
        if not isinstance(entries, int):
            raise CacheError(
                f"cache server {self.url} GET /stats returned no entry count"
            )
        return entries


class HttpClaimTable:
    """Client of the cache server's shared claim table.

    Joining (the constructor) creates the table idempotently: the first
    worker to arrive creates it, later workers join it, and a worker
    whose ``total`` disagrees is rejected with a
    :class:`~repro.errors.CacheError` — differing totals mean the
    workers compiled different request lists and must not cooperate.

    ``token`` is the server-minted identity of this claim session.
    Every cooperating worker reads back the same token and stamps it
    into its shard file's ``assignment`` slot, which is how ``--merge``
    recognizes dynamically-claimed shards as one run.

    Every claim is leased for ``lease_ttl`` seconds
    (:data:`~repro.engine.runner.DEFAULT_LEASE_TTL` unless given):
    positions this worker claims but never reports :meth:`done` within
    the TTL are reissued by the server to other claimers, so a crashed
    worker's cells are recomputed instead of stranded. All cooperating
    workers must use the same ``lease_ttl`` (the server 409s a
    mismatch, like a total mismatch). Pick a TTL comfortably above the
    most expensive cell — a too-short lease makes healthy-but-slow
    workers race their own reissues.

    Claim traffic rides its own small keep-alive pool. A batched
    handout is one bodiless ``POST /claims/<id>/next?k=N``.
    """

    def __init__(
        self,
        url: str,
        claim_id: str,
        total: int,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        timeout: float = 10.0,
    ) -> None:
        self._pool = HttpConnectionPool(url, timeout=timeout, max_idle=2)
        self.url = self._pool.url
        self.timeout = self._pool.timeout
        self.claim_id = str(claim_id)
        self.total = _check_claim_total(total)
        self.lease_ttl = _check_lease_ttl(lease_ttl)
        self._last_outstanding = 0
        status, reply = _pool_json(
            self._pool,
            "POST",
            self._path(""),
            {"total": total, "lease": self.lease_ttl},
        )
        if status == 409:
            detail = (reply or {}).get("error", "total mismatch")
            raise CacheError(
                f"claim table {self.claim_id} on {self.url} rejected this "
                f"worker: {detail} — the workers compiled different "
                "request lists and cannot cooperate on one sweep"
            )
        if status != 200 or not isinstance(reply, dict) or "token" not in reply:
            raise CacheError(
                f"cache server {self.url} could not create claim table "
                f"{self.claim_id} (status {status}): {reply!r}"
            )
        self.token = str(reply["token"])

    def _path(self, suffix: str) -> str:
        return f"/claims/{urllib.parse.quote(self.claim_id, safe='')}{suffix}"

    def claim(self, count: int = 1) -> list[int]:
        """Atomically claim up to ``count`` unclaimed positions in one
        round trip.

        An empty list with no live leases table-wide (:meth:`pending`)
        means the table is drained. Strict by design: a transport
        failure raises rather than letting the worker invent positions.
        """
        _check_claim_count(count)
        status, reply = _pool_json(
            self._pool, "POST", self._path(f"/next?k={count}")
        )
        positions = (
            reply.get("positions") if isinstance(reply, dict) else None
        )
        # Element-wise validation, not int() coercion: a version-skewed
        # server replying ["abc"] must fail as the claim fault it is
        # (not a raw ValueError), and [1.5] must not silently truncate
        # onto a position another worker legitimately claimed.
        if (
            status != 200
            or not isinstance(positions, list)
            or any(
                not isinstance(position, int) or isinstance(position, bool)
                for position in positions
            )
        ):
            raise CacheError(
                f"claim table {self.claim_id} on {self.url} failed to hand "
                f"out positions (status {status}): {reply!r}"
            )
        outstanding = reply.get("outstanding")
        self._last_outstanding = (
            outstanding
            if isinstance(outstanding, int) and not isinstance(outstanding, bool)
            else 0
        )
        return list(positions)

    def pending(self) -> int:
        """Live leases table-wide, as of the most recent :meth:`claim`.

        Consulted by stealing workers right after an empty claim —
        the reply that returned no positions carries the current
        outstanding count, so no extra round trip is needed.
        """
        return self._last_outstanding

    def done(self, positions: Sequence[int]) -> None:
        """Report computed positions so their leases are never reissued.

        Strict like all claim traffic: a worker that cannot reach the
        table must stop rather than let its leases silently expire into
        recomputation while it keeps going.
        """
        checked = _check_done_positions(positions, self.total)
        status, reply = _pool_json(
            self._pool, "POST", self._path("/done"), {"positions": checked}
        )
        if status != 200:
            raise CacheError(
                f"claim table {self.claim_id} on {self.url} rejected a done "
                f"report (status {status}): {reply!r}"
            )

    def close(self) -> None:
        """Release the claim pool's parked connections."""
        self._pool.close()

    def __enter__(self) -> "HttpClaimTable":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
