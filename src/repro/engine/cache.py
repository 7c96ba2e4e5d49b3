"""Pluggable content-addressed caches for batch-runner results.

Every backend stores immutable JSON payloads under string keys (the
:func:`repro.io.serialize.stable_hash` of the *request*: algorithm name
+ parsed variant parameters + the instance's serialized form + the
record schema version). Re-running a sweep with one changed cell
therefore recomputes exactly that cell: every other request hashes to an
existing entry.

Three backends ship with this module, behind the common
:class:`CacheBackend` protocol (the fourth, the network client
:class:`~repro.engine.remote.HttpCache`, lives in
:mod:`repro.engine.remote`):

* :class:`DirectoryCache` — one ``<sha256>.json`` file per entry under a
  directory. No index, no eviction, no locking beyond atomic-rename
  writes; ``rm -r`` of the directory is always a safe reset.
* :class:`SqliteCache` — a single-file SQLite database in WAL mode,
  friendlier to filesystems that hate directories with tens of
  thousands of small files, and safe under concurrent writers (content
  addressing makes every write idempotent, so writers can only race to
  store the same bytes; busy-lock collisions retry with backoff).
* :class:`MemoryCache` — an unbounded in-process dict, the zero-setup
  store for tests, micro benches and ``cache-serve --backend memory``.

The three local backends also answer ``get_text(key)``: the entry's
stored JSON text, unparsed. Their ``get`` is a parse of that text, and
:class:`~repro.io.server.CacheServer` splices it into its replies as
is, so a served record is never decoded and re-encoded on the server.

Backends are interchangeable by construction: the parity tests assert
bit-identical records whichever one a :class:`~repro.engine.runner.
BatchRunner` is given.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Protocol, runtime_checkable

from ..errors import InvalidParameterError

__all__ = [
    "CacheBackend",
    "DirectoryCache",
    "MemoryCache",
    "SqliteCache",
    "open_cache",
]

#: Prefix of in-flight temp files a :class:`DirectoryCache` writes before
#: the atomic rename. Key-addressed entries are hex digests, so nothing
#: legitimate ever starts with this.
_TMP_PREFIX = ".tmp-"

#: Minimum age (seconds) before an on-disk temp file is considered
#: orphaned. Live writers hold their temp file for milliseconds; a
#: generous threshold keeps the init-time sweep from racing them.
_TMP_STALE_SECONDS = 3600.0


def _parse_entry(text: str | None) -> dict[str, Any] | None:
    """A local backend's ``get``, given its ``get_text``: a missing,
    unparsable or non-object entry reads as a miss."""
    if text is None:
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


@runtime_checkable
class CacheBackend(Protocol):
    """What the batch runner needs from a result cache.

    Entries are immutable: ``put`` under an existing key must be a no-op
    or an idempotent overwrite with equal content (keys are content
    addresses, so both are indistinguishable). ``get`` of a missing or
    unreadable entry returns ``None`` — a miss, never an error.

    ``get_text`` (see the module docstring) is not part of the
    protocol: the remote backend stores no text of its own.

    ``close`` releases whatever the backend holds open (connections,
    sidecar files); it must be idempotent, and a closed backend may
    lazily reopen on the next use. Every backend is also a context
    manager (``with open_cache(...) as cache: ...``) that closes on
    exit — long-lived callers like the CLI use that instead of leaving
    cleanup to the garbage collector.
    """

    def get(self, key: str) -> dict[str, Any] | None: ...

    def put(self, key: str, payload: dict[str, Any]) -> None: ...

    def keys(self) -> Iterator[str]: ...

    def close(self) -> None: ...

    def __contains__(self, key: str) -> bool: ...

    def __len__(self) -> int: ...


class DirectoryCache:
    """A directory of content-addressed JSON payloads (one file each)."""

    #: Concurrent callers are safe: every write is an atomic rename of
    #: immutable content, every read a single-file parse — the striped
    #: :class:`~repro.io.server.CacheServer` may serve this backend
    #: from parallel handler threads.
    thread_safe = True

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files orphaned by a killed writer.

        An interrupted ``put`` (process killed between ``mkstemp`` and
        ``os.replace``) leaks a ``.tmp-*`` file that nothing would ever
        clean up. Only files older than :data:`_TMP_STALE_SECONDS` are
        swept — a live writer holds its temp file for milliseconds, so
        the age gate keeps concurrent cache users (shards sharing one
        directory) from deleting each other's in-flight writes; should
        that ever happen anyway, ``put`` retries the write.
        """
        cutoff = time.time() - _TMP_STALE_SECONDS
        for stale in self.directory.glob(f"{_TMP_PREFIX}*"):
            try:
                if stale.stat().st_mtime < cutoff:
                    stale.unlink()
            except OSError:
                pass

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _atomic_write(self, path: Path, text: str) -> None:
        """Write-then-rename, retried if a racing cleaner steals the temp
        file — content addressing makes the whole operation idempotent,
        so retrying is always correct."""
        for attempt in range(3):
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=_TMP_PREFIX, suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                if attempt == 2:
                    raise
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def get_text(self, key: str) -> str | None:
        """The stored JSON text for ``key``, unparsed, or ``None`` when
        the file is missing or unreadable."""
        try:
            return self._path(key).read_text()
        except (OSError, UnicodeDecodeError):
            return None

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload for ``key``, or ``None`` on a miss.

        A corrupt file (interrupted write from a pre-atomic-rename tool,
        disk trouble) is treated as a miss, not an error — the entry will
        be recomputed and rewritten.
        """
        return _parse_entry(self.get_text(key))

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (atomic write-then-rename)."""
        self._atomic_write(self._path(key), json.dumps(payload))

    def stats(self) -> dict[str, Any]:
        """Backend, entry count, and payload bytes."""
        entries = total_bytes = 0
        for path in self.directory.glob("*.json"):
            if path.name.startswith(_TMP_PREFIX):
                continue
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue  # deleted under us: not an entry anymore
            entries += 1
        return {
            "backend": "dir",
            "location": str(self.directory),
            "entries": entries,
            "total_bytes": total_bytes,
        }

    def gc(self, older_than: float) -> int:
        """Prune every file not modified in ``older_than`` seconds.

        Stale entries go, and so does any other stale file: ``.tmp-*``
        leftovers of killed writers, and the ``.timing`` sidecars that
        older builds wrote beside their entries. Returns the number of
        *entries* (``*.json`` files, temp files excluded) pruned.
        """
        cutoff = time.time() - float(older_than)
        removed = 0
        for path in list(self.directory.iterdir()):
            try:
                if path.stat().st_mtime >= cutoff:
                    continue
                path.unlink()
            except OSError:
                continue  # gone under us, or not a file
            if path.name.endswith(".json") and not path.name.startswith(
                _TMP_PREFIX
            ):
                removed += 1
        return removed

    def keys(self) -> Iterator[str]:
        """The stored keys (entry files only, never in-flight temp files).

        ``Path.glob`` matches dotfiles, so ``*.json`` alone would also
        yield ``.tmp-*.json`` files from writers we are racing with —
        those are not entries yet and must not be counted or listed.
        """
        for path in self.directory.glob("*.json"):
            if not path.name.startswith(_TMP_PREFIX):
                yield path.stem

    def close(self) -> None:
        """No-op: every operation opens and closes its own file."""

    def __enter__(self) -> "DirectoryCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


class SqliteCache:
    """A single-file SQLite backend (WAL mode, concurrent-writer safe).

    One table, ``entries(key TEXT PRIMARY KEY, payload TEXT, created_at
    REAL)``. Files written by older builds may also carry a ``wall_time``
    column; ``put`` names its columns, so that one stays ``NULL``.
    Writes use ``INSERT OR REPLACE`` inside an
    implicit transaction; WAL mode plus a generous busy timeout lets
    several runner processes share the file, and content addressing
    means the worst a race can do is store the same bytes twice. A write
    that still loses the lock race (``SQLITE_BUSY`` surviving the busy
    timeout — seen with many processes hammering one file) is retried
    with bounded exponential backoff instead of surfacing
    ``sqlite3.OperationalError`` mid-sweep.

    Connections are per-process (reopened after fork) but *not*
    per-thread: ``check_same_thread=False`` so a serving layer like
    :class:`repro.io.server.CacheServer` — which serializes every
    backend call behind one lock — can run handler threads. Callers
    sharing one instance across threads must serialize access the same
    way.
    """

    #: One shared connection, no internal mutex: a serving layer must
    #: keep serializing calls (the striped server collapses to a single
    #: stripe over this backend).
    thread_safe = False

    #: Bounded backoff for writes that lose the WAL lock race: attempt
    #: ``i`` sleeps ``_BUSY_BASE_DELAY * 2**i`` seconds before retrying,
    #: ~0.6 s in total before the error is surfaced for real.
    _BUSY_ATTEMPTS = 6
    _BUSY_BASE_DELAY = 0.02

    def __init__(self, path: str | Path, *, timeout: float = 30.0) -> None:
        self.path = Path(path)
        if self.path.parent:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._timeout = timeout
        self._conn: sqlite3.Connection | None = None
        self._pid = -1
        self._connect()  # fail loudly now if the path is unusable

    def _connect(self) -> sqlite3.Connection:
        # Reopen after fork: SQLite connections must not cross processes
        # (worker pools fork the parent mid-life).
        if self._conn is None or self._pid != os.getpid():
            conn = sqlite3.connect(
                self.path, timeout=self._timeout, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "key TEXT PRIMARY KEY, payload TEXT NOT NULL, created_at REAL)"
            )
            try:
                # Migrate older databases in place (``put`` writes
                # created_at); the duplicate-column error on current
                # ones is the cheap existence probe.
                conn.execute("ALTER TABLE entries ADD COLUMN created_at REAL")
            except sqlite3.OperationalError:
                pass
            conn.commit()
            self._conn = conn
            self._pid = os.getpid()
        return self._conn

    @staticmethod
    def _is_busy(exc: sqlite3.OperationalError) -> bool:
        text = str(exc).lower()
        return "locked" in text or "busy" in text

    def _write_with_retry(self, operation):
        """Run a write closure, retrying lock-contention failures.

        Content addressing makes every write idempotent, so a retry can
        only re-store the same bytes; anything that is not a busy/locked
        condition re-raises immediately.
        """
        for attempt in range(self._BUSY_ATTEMPTS):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                if not self._is_busy(exc) or attempt == self._BUSY_ATTEMPTS - 1:
                    raise
                time.sleep(self._BUSY_BASE_DELAY * (2 ** attempt))

    def get_text(self, key: str) -> str | None:
        """The stored JSON text for ``key``, unparsed, or ``None`` on a
        miss.

        The payload is read as bytes and decoded here: sqlite3 would
        raise on a row whose bytes are not UTF-8, and such a row is a
        corrupt entry, which reads as a miss.
        """
        row = self._connect().execute(
            "SELECT CAST(payload AS BLOB) FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            return row[0].decode("utf-8")
        except UnicodeDecodeError:
            return None

    def get(self, key: str) -> dict[str, Any] | None:
        # A corrupt entry reads as a miss, like the dir backend.
        return _parse_entry(self.get_text(key))

    def put(self, key: str, payload: dict[str, Any]) -> None:
        text = json.dumps(payload)
        conn = self._connect()

        def write() -> None:
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO entries (key, payload, created_at) "
                    "VALUES (?, ?, ?)",
                    (key, text, time.time()),
                )

        self._write_with_retry(write)

    def stats(self) -> dict[str, Any]:
        """Backend, entry count, and payload bytes."""
        row = self._connect().execute(
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) FROM entries"
        ).fetchone()
        return {
            "backend": "sqlite",
            "location": str(self.path),
            "entries": int(row[0]),
            "total_bytes": int(row[1]),
        }

    def gc(self, older_than: float) -> int:
        """Prune entries stored more than ``older_than`` seconds ago.

        Entries written by a pre-timestamp build (``created_at`` NULL)
        have unknowable age and are treated as old — ``gc`` is an
        explicit maintenance request, and keeping undatable entries
        forever would defeat it. Returns the number pruned.
        """
        cutoff = time.time() - float(older_than)
        conn = self._connect()

        def prune() -> int:
            with conn:
                cursor = conn.execute(
                    "DELETE FROM entries "
                    "WHERE created_at IS NULL OR created_at < ?",
                    (cutoff,),
                )
                return int(cursor.rowcount)

        return self._write_with_retry(prune)

    def keys(self) -> Iterator[str]:
        for (key,) in self._connect().execute(
            "SELECT key FROM entries ORDER BY key"
        ):
            yield key

    def __contains__(self, key: str) -> bool:
        return (
            self._connect()
            .execute("SELECT 1 FROM entries WHERE key = ?", (key,))
            .fetchone()
            is not None
        )

    def __len__(self) -> int:
        return int(
            self._connect().execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        )

    def close(self) -> None:
        """Checkpoint the WAL and close the connection.

        The explicit ``wal_checkpoint(TRUNCATE)`` folds the ``-wal`` /
        ``-shm`` sidecar files back into the database before closing, so
        a finished run leaves one shippable file behind instead of
        relying on the garbage collector to get around to it. Safe to
        call twice; the connection reopens lazily on the next use.
        """
        if self._conn is not None and self._pid == os.getpid():
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass  # best effort: closing still detaches the sidecars
            self._conn.close()
        self._conn = None

    def __enter__(self) -> "SqliteCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MemoryCache:
    """An unbounded in-process backend: a dict behind a lock.

    Payloads are stored in their canonical JSON text form and re-parsed
    on ``get`` — the same round trip every other backend performs — so
    a caller mutating a returned dict can never corrupt the stored
    entry, and parity with the on-disk backends holds bit for bit.
    Nothing is ever evicted: under ``cache-serve --backend memory`` the
    memory cache is the whole store, and a bound would drop a fleet's
    results mid-sweep. Entries remember their insertion time, so
    ``gc(older_than)`` works like the durable backends'.

    A small internal mutex makes every operation atomic under
    concurrent callers, so the striped
    :class:`~repro.io.server.CacheServer` can serve this backend from
    parallel handler threads.
    """

    #: See the class docstring: every operation holds the mutex.
    thread_safe = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # key -> (created_at, payload text)
        self._entries: dict[str, tuple[float, str]] = {}

    def get_text(self, key: str) -> str | None:
        """The entry's stored JSON text, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
        return None if entry is None else entry[1]

    def get(self, key: str) -> dict[str, Any] | None:
        return _parse_entry(self.get_text(key))

    def put(self, key: str, payload: dict[str, Any]) -> None:
        created = time.time()
        text = json.dumps(payload)
        with self._lock:
            self._entries[key] = (created, text)

    def keys(self) -> Iterator[str]:
        with self._lock:
            snapshot = list(self._entries)
        yield from snapshot

    def stats(self) -> dict[str, Any]:
        with self._lock:
            entries = list(self._entries.values())
        return {
            "backend": "memory",
            "location": "in-process",
            "entries": len(entries),
            "total_bytes": sum(len(e[1]) for e in entries),
        }

    def gc(self, older_than: float) -> int:
        cutoff = time.time() - float(older_than)
        with self._lock:
            stale = [k for k, e in self._entries.items() if e[0] < cutoff]
            for key in stale:
                del self._entries[key]
        return len(stale)

    def close(self) -> None:
        """No-op: entries live and die with the object."""

    def __enter__(self) -> "MemoryCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _open_http(url: str | Path) -> CacheBackend:
    # Imported here only to keep the module dependency one-way on paper
    # (remote is the layer above); the engine package __init__ loads
    # .remote eagerly anyway, so nothing is actually deferred.
    from .remote import HttpCache

    return HttpCache(str(url))


#: Constructors by backend name. ``http`` interprets the path as the
#: cache server's base URL; ``memory`` ignores it (one process's RAM
#: has no path).
BACKENDS = {
    "dir": DirectoryCache,
    "sqlite": SqliteCache,
    "memory": lambda path=None: MemoryCache(),
    "http": _open_http,
}


def open_cache(path: str | Path, backend: str = "dir") -> CacheBackend:
    """Construct a cache backend by name (``dir``, ``sqlite``,
    ``memory``, or ``http`` — where ``path`` is the server URL).

    A path the backend cannot open (a regular file given to ``dir``, a
    directory or a non-database file given to ``sqlite``) is an
    :class:`~repro.errors.InvalidParameterError` naming both.
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise InvalidParameterError(
            f"unknown cache backend {backend!r}; "
            f"available: {', '.join(sorted(BACKENDS))}"
        ) from None
    try:
        return factory(path)
    except (OSError, sqlite3.Error) as exc:
        raise InvalidParameterError(
            f"cannot open a {backend} cache at {str(path)!r}: {exc}"
        ) from exc
