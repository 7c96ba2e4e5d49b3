"""The cache fabric service: any local backend, served over HTTP.

``CacheServer`` wraps a :class:`~repro.engine.cache.CacheBackend` (a
directory, a WAL-mode sqlite file, or a plain in-memory dict) behind a
small JSON/HTTP wire protocol, stdlib only (``http.server``), so fleets
of workers on separate machines can share one result cache and one
work-stealing claim table. The CLI front end is ``python -m repro
cache-serve``; the client side is :mod:`repro.engine.remote`.

Wire protocol (Python-dialect JSON — ``NaN`` literals allowed):

| method + path            | request body                    | response |
|--------------------------|---------------------------------|----------|
| ``GET /records/<key>``   | —                               | 200 stored payload text, or 404 |
| ``PUT /records/<key>``   | payload object                  | 204 |
| ``POST /records:batch``  | ``{"get": [keys], "put": {key: payload}}`` | 200 ``{"records": {...}, "stored": n}`` |
| ``GET /keys``            | —                               | 200 ``{"keys": [...]}`` |
| ``GET /stats``           | —                               | 200 lock-free fabric snapshot (never touches the backend) |
| ``GET /stats?deep=1``    | —                               | 200 full backend stats + ``claim_tables`` |
| ``POST /gc``             | ``{"older_than": seconds}``     | 200 ``{"removed": n}``, or 501 |
| ``POST /claims/<id>``    | ``{"total": n, "lease": ttl?}`` | 200 ``{"token", "total", "claimed", "lease_ttl"}``, 409 on total/lease mismatch |
| ``POST /claims/<id>/next?k=N`` | —                         | 200 ``{"positions": [...], "token", "remaining", "outstanding"}`` |
| ``POST /claims/<id>/done`` | ``{"positions": [...]}``      | 200 ``{"token", "done"}`` |

Bodies are identity-encoded JSON both ways: a request declaring any
other ``Content-Encoding`` is answered 415, and a malformed
``Content-Length`` is a 400 that also closes the connection (the
request's framing is lost).

Record replies carry each entry's stored JSON text as the backend's
``get_text`` returns it, spliced unparsed into the reply: the server
never decodes a record to re-encode it. For entries this build wrote
the bytes equal ``json.dumps`` of the decoded reply, so the wire format
is what it always was. A corrupt stored entry is served as it is, and
the client (:class:`~repro.engine.remote.HttpCache`) reads it as a miss
for that key alone. The server therefore fronts only backends with
``get_text`` (the dir, sqlite and memory backends).

Claim tables implement work stealing: a table is created idempotently
under a content-derived id (the experiment fingerprint), hands out
positions ``0..total-1`` in order, at most once each, and remembers a
server-minted session ``token`` that every cooperating worker stamps
into its shard file — the merge step's proof that the shards partition
one claim session. ``?k=N`` leases up to N positions in one round trip
(one without it); a request body on that route is a 400, so a client
sending its count anywhere else fails loudly. With a ``lease`` TTL
(seconds) the table reissues a claimed position whose ``done`` report
never arrives within the TTL, so one crashed worker cannot strand tail
cells; workers of one session must agree on the lease policy (mismatch
is a 409, like a total mismatch).

Locking, three independent planes:

* **record traffic** is striped: each key hashes (crc32) onto one of N
  mutexes, so concurrent handler threads touch *different* keys in
  parallel and only same-stripe traffic serializes. Full-scan routes
  (``keys``, ``gc``, deep stats) take every stripe in index order — a
  deadlock-free global write barrier. Striping is only enabled for
  backends that declare ``thread_safe = True``; anything else (a single
  sqlite connection) collapses to one stripe, which is exactly the old
  global-lock behavior.
* **claim state** is pure in-memory behind its own mutex: a slow disk
  draining bulk record writes cannot stall claim handouts past the
  workers' strict timeout (claim faults abort workers by design).
* **``GET /stats``** is lock-free: served from plain counters
  (:class:`FabricStats`) that record routes bump as they go, so
  monitoring a busy server never queues behind record traffic — the
  old single-lock design made a dashboard poll stall the claim path.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import urllib.parse
import uuid
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator, Sequence

from ..engine.cache import CacheBackend
from ..engine.runner import (
    InProcessClaimTable,
    _check_claim_total,
    _check_lease_ttl,
)
from ..errors import InvalidParameterError, ReproError

__all__ = ["CacheServer", "FabricStats"]

#: Default record-lock stripe count for thread-safe backends. Eight
#: handler threads hashing uniformly across 16 mutexes collide rarely;
#: more stripes buy nothing at sweep-worker fan-in levels.
DEFAULT_STRIPES = 16


class FabricStats:
    """Lock-free fabric counters behind the fast ``GET /stats``.

    Plain integer attributes bumped without any mutex: CPython
    attribute increments on ints are GIL-atomic enough for monitoring
    (a preempted increment can lose a count, never corrupt one), and
    the payoff is that the monitoring path never blocks behind record
    traffic. ``entries`` tracks the backend's live entry count (seeded
    from one startup walk, bumped on first-time puts, decremented by
    gc); a store changed behind the server's back (another process
    sharing the directory or sqlite file) drifts it — ``/stats?deep=1``
    resyncs from the authoritative backend walk.

    ``record_hits`` counts entries found, whether or not their stored
    text parses (the server never parses it). ``claim_reissues``
    counts positions a claim table handed out again after their lease
    expired: each one is a cell some worker may compute twice.
    """

    __slots__ = (
        "requests",
        "record_gets",
        "record_hits",
        "record_puts",
        "new_records",
        "batch_requests",
        "claim_requests",
        "claim_reissues",
        "entries",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.record_gets = 0
        self.record_hits = 0
        self.record_puts = 0
        self.new_records = 0
        self.batch_requests = 0
        self.claim_requests = 0
        self.claim_reissues = 0
        self.entries = 0

    # -- bumps (called from handler threads, no locks) ------------------
    def note_request(self) -> None:
        self.requests += 1

    def note_get(self, *, hit: bool) -> None:
        self.record_gets += 1
        if hit:
            self.record_hits += 1

    def note_put(self, *, new: bool) -> None:
        self.record_puts += 1
        if new:
            self.new_records += 1
            self.entries += 1

    def note_batch(self) -> None:
        self.batch_requests += 1

    def note_claim(self) -> None:
        self.claim_requests += 1

    def note_reissues(self, count: int) -> None:
        self.claim_reissues += count

    def note_removed(self, count: int) -> None:
        self.entries = max(0, self.entries - count)

    def resync_entries(self, count: int) -> None:
        self.entries = count

    def snapshot(self) -> dict[str, int]:
        """One monitoring sample (a plain dict — no backend touched)."""
        return {
            "requests": self.requests,
            "record_gets": self.record_gets,
            "record_hits": self.record_hits,
            "record_puts": self.record_puts,
            "new_records": self.new_records,
            "batch_requests": self.batch_requests,
            "claim_requests": self.claim_requests,
            "claim_reissues": self.claim_reissues,
        }


class _LockStripes:
    """N mutexes fronting the record routes; keys hash onto stripes.

    ``for_key`` serializes same-key (well, same-stripe) traffic only;
    ``all_stripes`` takes every mutex in index order — every holder
    acquires in the same order, so the global barrier cannot deadlock
    against per-key holders.
    """

    def __init__(self, count: int) -> None:
        self._locks = [threading.Lock() for _ in range(count)]

    def __len__(self) -> int:
        return len(self._locks)

    def for_key(self, key: str) -> threading.Lock:
        return self._locks[zlib.crc32(key.encode("utf-8")) % len(self._locks)]

    @contextmanager
    def all_stripes(self) -> Iterator[None]:
        for lock in self._locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._locks):
                lock.release()


@dataclass
class _ClaimState:
    """One claim table: the shared lease state machine plus its session
    token. Guarded by the server's claims lock.

    The cursor/lease/done bookkeeping is
    :class:`~repro.engine.runner.InProcessClaimTable` — the *same*
    class in-process work stealing uses — so the HTTP and in-process
    claim protocols cannot drift. With a lease TTL, handed-out
    positions not reported done are reissued by a later claim — the
    crash-recovery half of the work-stealing protocol (a worker that
    claimed cells and died never reports, so its cells flow back into
    the queue after one TTL).
    """

    table: InProcessClaimTable
    token: str


class _HttpStatus(Exception):
    """An HTTP error response raised from request handling."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class CacheServer:
    """Serve a :class:`CacheBackend` (and claim tables) over HTTP.

    ``port=0`` binds an ephemeral port — read it back from
    :attr:`address` / :attr:`url`. ``start()`` serves on a daemon
    thread (tests, embedding); :meth:`serve_forever` serves on the
    calling thread (the CLI). Neither closes the backend — its owner
    does.

    Record traffic rides :data:`DEFAULT_STRIPES` lock stripes over a
    backend declaring ``thread_safe = True`` and one stripe (the old
    fully-serialized behavior) otherwise, so concurrent handler threads
    never reach an unsynchronized backend's internals. A backend
    without ``get_text`` or ``stats`` is refused: record replies splice
    its stored text, and ``/stats`` reports its ``stats()``. An address
    it cannot bind (a port outside 0..65535, a host that does not
    resolve) is an :class:`~repro.errors.InvalidParameterError` naming
    both.
    """

    def __init__(
        self,
        cache: CacheBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        verbose: bool = False,
    ) -> None:
        if not all(
            callable(getattr(cache, name, None)) for name in ("get_text", "stats")
        ):
            raise InvalidParameterError(
                f"backend {type(cache).__name__} lacks get_text or stats; the "
                "cache server serves records as stored text and reports the "
                "backend's stats (dir, sqlite, memory)"
            )
        self.cache = cache
        self.verbose = verbose
        concurrent = bool(getattr(cache, "thread_safe", False))
        self._records = _LockStripes(DEFAULT_STRIPES if concurrent else 1)
        self.stats_counters = FabricStats()
        # One startup walk pins the backend's identity and seeds the
        # live entry counter, so the fast /stats never needs another.
        identity = cache.stats()
        self._backend_name = str(identity.get("backend", type(cache).__name__))
        self._backend_location = identity.get("location")
        seeded = identity.get("entries")
        self.stats_counters.resync_entries(
            seeded if isinstance(seeded, int) else 0
        )
        # Lifecycle lock: guards only the serve-thread handle now that
        # record traffic rides the stripes.
        self._lock = threading.RLock()
        # Claim state is pure in-memory and never touches the backend,
        # so it gets its own lock: a slow disk draining bulk record
        # writes must not stall claim handouts past the workers' strict
        # timeout (claim faults abort workers by design).
        self._claims_lock = threading.Lock()
        self._claims: dict[str, _ClaimState] = {}
        # Live client sockets, registered by handler setup/finish: with
        # keep-alive transport, stop() must actively sever parked
        # connections — handler threads otherwise sit in readline on
        # warm sockets and keep serving a "stopped" server.
        self._connections: set[socket.socket] = set()
        try:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        except (OverflowError, OSError) as exc:
            # A port outside 0..65535, a host that does not resolve, an
            # address already in use: the caller's input, not a crash.
            raise InvalidParameterError(
                f"cannot bind the cache server to {host}:{port}: {exc}"
            ) from exc
        self._httpd.daemon_threads = True
        self._httpd.fabric = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def start(self) -> "CacheServer":
        thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        # The serve-thread handle is shared state like any other:
        # embedders start/stop from whatever thread owns the server, so
        # the handle swap happens under the lock (and a double start is
        # refused instead of leaking the first thread).
        with self._lock:
            if self._thread is not None:
                raise InvalidParameterError(
                    "cache server is already started; stop() it first"
                )
            self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        # Sever live keep-alive connections: clients must see a real
        # disconnect (their pools redial and find the port closed),
        # exactly as if the server process had died.
        with self._lock:
            live = list(self._connections)
            self._connections.clear()
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closing on its own
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            # Join outside the lock: handler threads still draining
            # their last responses may need it.
            thread.join(timeout=5.0)
        self._httpd.server_close()

    def _track(self, conn: socket.socket) -> None:
        with self._lock:
            self._connections.add(conn)

    def _untrack(self, conn: socket.socket) -> None:
        with self._lock:
            self._connections.discard(conn)

    # -- backend operations (striped per-key locks) ---------------------
    def record_text(self, key: str) -> str | None:
        """One entry's stored JSON text, unparsed, or ``None``."""
        with self._records.for_key(key):
            text = self.cache.get_text(key)
        self.stats_counters.note_get(hit=text is not None)
        return text

    def put_record(self, key: str, payload: dict[str, Any]) -> None:
        with self._records.for_key(key):
            fresh = key not in self.cache
            self.cache.put(key, payload)
        self.stats_counters.note_put(new=fresh)

    def batch(
        self, gets: Sequence[str], puts: dict[str, dict[str, Any]]
    ) -> str:
        """Store ``puts``, then the reply body: ``{"records": {key:
        payload}, "stored": n}`` with each found entry's stored text
        spliced in, the bytes ``json.dumps`` of that object gives."""
        # Per-key locking, not one barrier: records are immutable and
        # content-addressed, so a batch needs no cross-key atomicity —
        # two batches interleaving key-by-key still each read either
        # a miss or the one true payload.
        self.stats_counters.note_batch()
        for key, payload in puts.items():
            self.put_record(key, payload)
        records: dict[str, str] = {}
        for key in gets:
            text = self.record_text(key)
            if text is not None:
                records[key] = text
        body = ", ".join(
            f"{json.dumps(key)}: {text}" for key, text in records.items()
        )
        return f'{{"records": {{{body}}}, "stored": {len(puts)}}}'

    def list_keys(self) -> list[str]:
        with self._records.all_stripes():
            return sorted(self.cache.keys())

    def stats_fast(self) -> dict[str, Any]:
        """The lock-free monitoring snapshot: live counters plus the
        identity pinned at startup. Never touches the backend, never
        waits on record traffic — safe to poll against a busy server.
        ``len(self._claims)`` is read without the claims lock: a dict
        length is GIL-consistent, and monitoring tolerates being one
        table off mid-create."""
        return {
            "backend": self._backend_name,
            "location": self._backend_location,
            "entries": self.stats_counters.entries,
            "claim_tables": len(self._claims),
            "deep": False,
            "fabric": self.stats_counters.snapshot(),
        }

    def stats(self) -> dict[str, Any]:
        """The authoritative deep walk (``/stats?deep=1``): full
        backend stats under the global barrier, resyncing the live
        entry counter while it holds the truth."""
        with self._records.all_stripes():
            out = dict(self.cache.stats())
        entries = out.get("entries")
        if isinstance(entries, int):
            self.stats_counters.resync_entries(entries)
        out["claim_tables"] = len(self._claims)
        out["deep"] = True
        out["fabric"] = self.stats_counters.snapshot()
        return out

    def gc(self, older_than: float) -> int:
        collect = getattr(self.cache, "gc", None)
        if collect is None:
            raise _HttpStatus(
                501, f"backend {type(self.cache).__name__} does not support gc"
            )
        with self._records.all_stripes():
            removed = int(collect(older_than))
        self.stats_counters.note_removed(removed)
        return removed

    # -- claim tables ---------------------------------------------------
    def _claim_state(self, claim_id: str) -> _ClaimState:
        state = self._claims.get(claim_id)
        if state is None:
            raise _HttpStatus(
                404, f"no claim table {claim_id}; create it first"
            )
        return state

    def claim_create(
        self, claim_id: str, total: int, lease_ttl: float | None = None
    ) -> dict[str, Any]:
        with self._claims_lock:
            state = self._claims.get(claim_id)
            if state is None:
                state = _ClaimState(
                    table=InProcessClaimTable(total, lease_ttl=lease_ttl),
                    token=uuid.uuid4().hex,
                )
                self._claims[claim_id] = state
            elif state.table.total != total:
                raise _HttpStatus(
                    409,
                    f"claim table {claim_id} holds {state.table.total} "
                    f"positions, this worker expects {total}",
                )
            elif state.table.lease_ttl != lease_ttl:
                raise _HttpStatus(
                    409,
                    f"claim table {claim_id} was created with lease_ttl="
                    f"{state.table.lease_ttl}, this worker asks for "
                    f"{lease_ttl} — cooperating workers must agree on the "
                    "lease policy",
                )
            return {
                "claim": claim_id,
                "total": state.table.total,
                "token": state.token,
                "claimed": state.table.total - state.table.remaining,
                "lease_ttl": state.table.lease_ttl,
            }

    def claim_next(self, claim_id: str, count: int) -> dict[str, Any]:
        self.stats_counters.note_claim()
        with self._claims_lock:
            state = self._claim_state(claim_id)
            before = state.table.reissued
            positions = state.table.claim(count)
            self.stats_counters.note_reissues(state.table.reissued - before)
            return {
                "positions": positions,
                "token": state.token,
                "remaining": state.table.remaining,
                # Live leases (claimed, not yet done): an empty handout
                # with outstanding > 0 means "wait, cells may flow
                # back", not "drained" — workers poll instead of
                # exiting, so someone is still claiming when a crashed
                # worker's leases expire.
                "outstanding": state.table.pending(),
            }

    def claim_done(
        self, claim_id: str, positions: Sequence[int]
    ) -> dict[str, Any]:
        with self._claims_lock:
            state = self._claim_state(claim_id)
            try:
                state.table.done(positions)
            except InvalidParameterError as exc:
                raise _HttpStatus(400, str(exc)) from None
            return {
                "token": state.token,
                "done": state.table.done_count,
            }


class _Handler(BaseHTTPRequestHandler):
    """Route one request; all state lives on the :class:`CacheServer`."""

    server_version = "repro-cache/1"
    protocol_version = "HTTP/1.1"

    #: Idle keep-alive cutoff: a handler thread parked in readline for
    #: this long closes its connection and exits instead of leaking.
    #: Client pools treat the severed socket as stale and redial.
    timeout = 60.0

    #: Headers and body go out as separate segments; with Nagle on,
    #: the body waits ~40ms for the headers' delayed ACK on every
    #: keep-alive request. TCP_NODELAY is what makes pooling pay off.
    disable_nagle_algorithm = True

    @property
    def fabric(self) -> CacheServer:
        return self.server.fabric  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        self.fabric._track(self.connection)

    def finish(self) -> None:
        self.fabric._untrack(self.connection)
        super().finish()

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.fabric.verbose:
            sys.stderr.write(
                "cache-serve: %s - %s\n"
                % (self.address_string(), format % args)
            )

    def _segments(self) -> list[str]:
        path = urllib.parse.urlparse(self.path).path
        return [
            urllib.parse.unquote(part)
            for part in path.split("/")
            if part
        ]

    def _query(self) -> dict[str, str]:
        query = urllib.parse.urlparse(self.path).query
        return {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(query).items()
        }

    @staticmethod
    def _safe_name(name: str, what: str) -> str:
        """Reject names that could escape a path-backed backend.

        The split-then-unquote in :meth:`_segments` means a percent-
        encoded slash (`..%2F..%2Fetc`) arrives as *one* segment — fed
        raw into ``DirectoryCache._path`` it would join right out of
        the cache directory. Legitimate keys are content hashes (and
        claim ids are experiment fingerprints), so anything with a path
        separator or a dot-dot is an attack or a bug, never traffic.
        """
        if (
            not name
            or "/" in name
            or "\\" in name
            or name in (".", "..")
        ):
            raise _HttpStatus(400, f"illegal {what} {name!r}")
        return name

    def _raw_body(self) -> bytes:
        """The request body's bytes, read in full so the keep-alive
        connection stays framed for the next request."""
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            # No way to tell where this body ends: drop the connection
            # after the 400 instead of parsing body bytes as a request.
            self.close_connection = True
            raise _HttpStatus(
                400, f"Content-Length must be an int >= 0, got {declared!r}"
            )
        raw = self.rfile.read(length) if length > 0 else b""
        encoding = (self.headers.get("Content-Encoding") or "").strip().lower()
        if raw and encoding not in ("", "identity"):
            raise _HttpStatus(
                415, f"unsupported Content-Encoding {encoding!r}"
            )
        return raw

    def _body(self) -> Any:
        raw = self._raw_body()
        if not raw:
            return None
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            raise _HttpStatus(400, "request body is not JSON") from None

    def _fields(self) -> dict[str, Any]:
        """The body as a JSON object (``{}`` when there is none)."""
        body = self._body()
        if body is None:
            return {}
        if not isinstance(body, dict):
            raise _HttpStatus(400, "request body must be a JSON object")
        return body

    def _reply(self, status: int, payload: Any | None = None) -> None:
        self._send(
            status, b"" if payload is None else json.dumps(payload).encode("utf-8")
        )

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _dispatch(self, handler) -> None:
        self.fabric.stats_counters.note_request()
        try:
            handler()
        except _HttpStatus as exc:
            self._reply(exc.status, {"error": str(exc)})
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # noqa: BLE001 - one request, not the server
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch(self._get)

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch(self._put)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._post)

    def _get(self) -> None:
        parts = self._segments()
        if parts == ["stats"]:
            deep = self._query().get("deep", "").lower() in ("1", "true", "yes")
            self._reply(
                200, self.fabric.stats() if deep else self.fabric.stats_fast()
            )
        elif parts == ["keys"]:
            self._reply(200, {"keys": self.fabric.list_keys()})
        elif len(parts) == 2 and parts[0] == "records":
            text = self.fabric.record_text(
                self._safe_name(parts[1], "record key")
            )
            if text is None:
                self._reply(404, {"error": f"no record {parts[1]}"})
            else:
                self._send(200, text.encode("utf-8"))
        else:
            raise _HttpStatus(404, f"unknown route GET {self.path}")

    def _put(self) -> None:
        parts = self._segments()
        if len(parts) == 2 and parts[0] == "records":
            payload = self._body()
            if not isinstance(payload, dict):
                raise _HttpStatus(400, "record payload must be a JSON object")
            self.fabric.put_record(
                self._safe_name(parts[1], "record key"), payload
            )
            self._reply(204)
        else:
            raise _HttpStatus(404, f"unknown route PUT {self.path}")

    def _post(self) -> None:
        parts = self._segments()
        if parts == ["records:batch"]:
            body = self._body()
            if not isinstance(body, dict):
                raise _HttpStatus(400, "batch body must be a JSON object")
            gets = body.get("get", [])
            puts = body.get("put", {})
            if not isinstance(gets, list) or not isinstance(puts, dict):
                raise _HttpStatus(
                    400, "batch body wants {'get': [keys], 'put': {key: payload}}"
                )
            for key in puts:
                self._safe_name(str(key), "record key")
            bad = [k for k, v in puts.items() if not isinstance(v, dict)]
            if bad:
                raise _HttpStatus(
                    400, f"batch put payloads must be objects (bad: {bad[:3]})"
                )
            # Batch *gets* walk the same backend paths as single-record
            # reads, so their keys go through the same traversal gate.
            body = self.fabric.batch(
                [self._safe_name(str(k), "record key") for k in gets], puts
            )
            self._send(200, body.encode("utf-8"))
        elif parts == ["gc"]:
            older_than = self._fields().get("older_than")
            if not isinstance(older_than, (int, float)):
                raise _HttpStatus(400, "gc body wants {'older_than': seconds}")
            self._reply(200, {"removed": self.fabric.gc(float(older_than))})
        elif len(parts) == 2 and parts[0] == "claims":
            fields = self._fields()
            # Invalid values raise InvalidParameterError: a 400.
            total = _check_claim_total(fields.get("total"))
            lease = _check_lease_ttl(fields.get("lease"))
            self._reply(
                200,
                self.fabric.claim_create(
                    self._safe_name(parts[1], "claim id"), total, lease
                ),
            )
        elif len(parts) == 3 and parts[0] == "claims" and parts[2] == "next":
            # The batch size travels only as ?k=N. A body is still read
            # (keeping the connection framed) but refused, so a client
            # sending its count anywhere else fails instead of silently
            # leasing one position.
            if self._raw_body():
                raise _HttpStatus(
                    400, "claim handouts take no body; send ?k=<int >= 1>"
                )
            k = self._query().get("k", "1")
            try:
                count = int(k)
            except ValueError:
                count = 0
            if count < 1:
                raise _HttpStatus(
                    400, f"claim query wants ?k=<int >= 1>, got k={k!r}"
                )
            self._reply(
                200,
                self.fabric.claim_next(
                    self._safe_name(parts[1], "claim id"), count
                ),
            )
        elif len(parts) == 3 and parts[0] == "claims" and parts[2] == "done":
            positions = self._fields().get("positions")
            if not isinstance(positions, list):
                raise _HttpStatus(
                    400, "claim body wants {'positions': [ints]}"
                )
            self._reply(
                200,
                self.fabric.claim_done(
                    self._safe_name(parts[1], "claim id"), positions
                ),
            )
        else:
            raise _HttpStatus(404, f"unknown route POST {self.path}")
