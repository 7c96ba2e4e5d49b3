"""Streaming batch execution of (algorithm × instance) grids.

The shape every experiment in this library shares — "run these
algorithms on these instances and collect per-cell summaries" — lives
here, once. The core is a *streaming* generator:
:meth:`BatchRunner.iter_records` yields one ``(index, record)`` pair per
:class:`RunRequest` cell **as results complete** (cache hits first, then
pool futures in completion order), so callers can render progress, feed
dashboards, or bail early on very large grids without holding every
record in memory. :meth:`BatchRunner.run` is a thin collecting wrapper
that reorders the stream back into **request order** — byte-identical to
the records the historical eager implementation returned.

Records are plain JSON-able measurements (cost, energy, acceptance,
certified ratio, per-cell wall time, the serialized schedule results),
which buys two properties at once:

* **parallel == serial**: worker processes ship back the exact payload a
  serial run would produce, so results are bit-identical whatever the
  worker count (``wall_time`` is the one measured, non-deterministic
  field; it is excluded from record equality);
* **cacheable**: the same payload is what the content-addressed
  :class:`~repro.engine.cache.CacheBackend` stores, so a cache hit is
  indistinguishable from a fresh run (and a warm sweep recomputes
  nothing — only changed cells miss). The stored wall time is the
  *original* measured cost of the cell. A stored entry that is not a
  record of this build for the cell (another version, a missing or
  ill-typed field, a wrong job count) reads as a miss and is rewritten.

The certified ratio is filled for exactly the algorithms whose registry
entry declares the ``certificate-producing`` capability; other cells
carry ``NaN`` there, never a fake number.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

from ..errors import CacheError, InvalidParameterError
from ..io.serialize import (
    SCHEMA_VERSION,
    canonical_json,
    has_schedule_layout,
    instance_digest,
    schedule_to_dict,
    stable_hash,
)
from ..model.job import Instance
from .cache import CacheBackend, DirectoryCache
from .registry import REGISTRY

__all__ = [
    "RunRequest",
    "RunRecord",
    "RunnerStats",
    "BatchRunner",
    "ClaimTable",
    "InProcessClaimTable",
    "request_key",
    "evaluate_request",
    "record_to_payload",
    "record_from_payload",
]

#: Bumped whenever the record payload changes shape, so stale cache
#: entries from an older build miss instead of deserializing wrongly.
#: Also bumped when a deliberate solver change moves stored results.
#: (2: added the measured ``wall_time`` field. 3: PD's water-fill solves
#: the clearing speed exactly instead of bisecting, which moves accepted
#: speeds and loads within the old bisection tolerance; payload shape
#: unchanged. 4: the schedule drops its instance, which the key fixes,
#: and writes its loads as interval-major columns; keys hash the
#: instance's :func:`~repro.io.serialize.instance_digest` instead of its
#: text. 5: the schedule's boundaries and load columns are base64 text
#: of their little-endian bytes instead of number lists, and the last
#: builtin float sums add left to right (:func:`repro.types.left_sum`),
#: so records agree from Python 3.10 to 3.12. On 3.10 and 3.11 neither
#: 4 nor 5 moved a float of any result.)
RECORD_VERSION = 5

#: Claim-lease length, in seconds, of a claim table whose creator
#: names none: every claim is leased, and a handed-out position not
#: reported done within the TTL is reissued.
DEFAULT_LEASE_TTL = 60.0


class ClaimTable(Protocol):
    """What work-stealing execution needs from a claim source.

    One claim table fronts one compiled request list. ``claim(count)``
    atomically hands out up to ``count`` positions under a **lease** of
    ``lease_ttl`` seconds; ``done(positions)`` reports computed
    positions so their leases are never reissued; ``pending()`` counts
    live leases table-wide. A position not reported done within the TTL
    is *reissued* to a later claimer, so one crashed worker cannot
    strand its cells. Claiming is therefore at-least-once: a position
    can be recomputed (the result cache makes that cheap, and the merge
    step keeps one copy of identical records and fails loudly on
    differing ones). An empty claim with no live leases means the
    table is drained.

    Two implementations ship: :class:`InProcessClaimTable` (threads of
    one process) and :class:`repro.engine.remote.HttpClaimTable`
    (workers on separate machines, served by ``repro cache-serve``).
    """

    lease_ttl: float

    def claim(self, count: int = 1) -> list[int]: ...

    def done(self, positions: Sequence[int]) -> None: ...

    def pending(self) -> int: ...


def _check_claim_count(count: int) -> None:
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise InvalidParameterError(
            f"claim count must be an int >= 1, got {count!r}"
        )


def _check_claim_total(total) -> int:
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise InvalidParameterError(
            f"claim-table total must be an int >= 0, got {total!r}"
        )
    return total


def _check_lease_ttl(lease_ttl) -> float:
    if (
        not isinstance(lease_ttl, (int, float))
        or isinstance(lease_ttl, bool)
        or not math.isfinite(float(lease_ttl))
        or float(lease_ttl) <= 0.0
    ):
        raise InvalidParameterError(
            f"lease_ttl must be a positive number of seconds, "
            f"got {lease_ttl!r}"
        )
    return float(lease_ttl)


def _check_done_positions(positions, total: int) -> list[int]:
    out = []
    for position in positions:
        if (
            not isinstance(position, int)
            or isinstance(position, bool)
            or not 0 <= position < total
        ):
            raise InvalidParameterError(
                f"done positions must be ints in 0..{total - 1}, "
                f"got {position!r}"
            )
        out.append(position)
    return out


class InProcessClaimTable:
    """A lock-guarded claim cursor for single-host runs.

    The in-process coordinator: several runners (threads) sharing one
    instance partition ``0..total-1`` between them dynamically — each
    claims the next position the moment it finishes the last one, so a
    runner stuck on an expensive cell simply claims fewer.

    Every handed-out position carries a lease: if :meth:`done` is not
    called for it within ``lease_ttl`` seconds (by the table's
    ``clock``; :data:`DEFAULT_LEASE_TTL` unless given), the position is
    reissued to the next claimer — the crash-recovery semantics of the
    claim-lease protocol. ``clock`` is injectable for deterministic
    tests.

    A cache server keeps one table per steal session for its lifetime,
    so a drained table must stay small: done positions are one bit each,
    and the lease dict gives its storage back once no lease is out.
    """

    __slots__ = (
        "total", "lease_ttl", "_clock", "_cursor", "_outstanding", "_done",
        "_done_count", "_reissued", "_lock",
    )

    def __init__(
        self,
        total: int,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = _check_claim_total(total)
        self.lease_ttl = _check_lease_ttl(lease_ttl)
        self._clock = clock
        self._cursor = 0
        #: position -> lease deadline (leased, not yet reported done)
        self._outstanding: dict[int, float] = {}
        #: bit ``p % 8`` of byte ``p // 8`` is set once ``p`` is done
        self._done = bytearray((self.total + 7) // 8)
        self._done_count = 0
        self._reissued = 0
        self._lock = threading.Lock()

    def claim(self, count: int = 1) -> list[int]:
        _check_claim_count(count)
        with self._lock:
            now = self._clock()
            deadline = now + self.lease_ttl
            positions = sorted(
                position
                for position, expiry in self._outstanding.items()
                if expiry <= now
            )[:count]
            self._reissued += len(positions)
            take = min(count - len(positions), self.total - self._cursor)
            if take > 0:
                positions.extend(range(self._cursor, self._cursor + take))
                self._cursor += take
            for position in positions:
                self._outstanding[position] = deadline
            return positions

    def done(self, positions: Sequence[int]) -> None:
        """Report computed positions; their leases stop being reissuable."""
        checked = _check_done_positions(positions, self.total)
        with self._lock:
            for position in checked:
                self._outstanding.pop(position, None)
                byte, bit = divmod(position, 8)
                if not self._done[byte] >> bit & 1:
                    self._done[byte] |= 1 << bit
                    self._done_count += 1
            if not self._outstanding:
                self._outstanding.clear()  # an emptied dict keeps its table

    def pending(self) -> int:
        """Leased positions not yet reported done.

        Nonzero after an empty :meth:`claim` means the table is not
        drained — those cells will either be reported done by their
        holders or expire back into the queue, so a stealing worker
        waits instead of exiting (the crash-recovery guarantee needs a
        survivor still claiming when the leases expire).
        """
        with self._lock:
            return len(self._outstanding)

    @property
    def done_count(self) -> int:
        """Positions reported done so far."""
        with self._lock:
            return self._done_count

    @property
    def reissued(self) -> int:
        """Positions handed out again after their lease expired."""
        with self._lock:
            return self._reissued

    @property
    def remaining(self) -> int:
        with self._lock:
            return self.total - self._cursor


@dataclass(frozen=True)
class RunRequest:
    """One grid cell: an algorithm name, an instance, and caller context.

    ``tag`` is an arbitrary JSON-able mapping the caller threads through
    to the record (sweep parameters, seed, ...); it does not participate
    in the cache key — only the algorithm and the instance content do.
    """

    algorithm: str
    instance: Instance
    tag: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class RunRecord:
    """The measurements of one evaluated cell.

    ``schedule`` is the :func:`~repro.io.serialize.schedule_to_dict`
    form of the run's results: grid, finished flags, load columns, cost
    and energy, but not the instance, which the record's ``key`` fixes.
    With the request's instance, ``schedule_from_dict(record.schedule,
    instance)`` rebuilds the schedule to audit or replay the cell.
    ``certified_ratio`` / ``dual_g`` are ``NaN`` unless the algorithm's
    registry entry produces certificates. ``cached`` tells whether this
    record was served without a fresh evaluation for this request —
    from the on-disk result cache, or from an identical cell earlier in
    the same batch.

    ``wall_time`` is the measured evaluation cost of the cell in
    seconds. A cached record carries the time of the *original*
    computation, and the field is excluded from equality/comparison —
    it is a measurement of the machine, not of the algorithm, so two
    otherwise-identical records still compare equal.
    """

    algorithm: str
    cost: float
    energy: float
    lost_value: float
    acceptance: float
    certified_ratio: float
    dual_g: float
    schedule: dict[str, Any] = field(repr=False)
    key: str = ""
    cached: bool = False
    tag: Mapping[str, Any] | None = None
    wall_time: float = field(default=math.nan, compare=False)

    @property
    def finished(self) -> tuple[bool, ...]:
        """Per-job finished flags, in the schedule's job order."""
        return tuple(bool(f) for f in self.schedule["finished"])


#: Instance attribute holding :func:`request_key`'s memo. An
#: :class:`Instance` is immutable, so a key computed once holds for the
#: object's life (a pickled copy carries the memo along).
_KEY_MEMO = "_request_keys"

#: The memo's slot for the instance's digest; every other slot is a
#: ``(base, params, record, schema)`` tuple holding one key.
_DIGEST_SLOT = "instance"


def request_key(algorithm: str, instance: Instance) -> str:
    """Content address of a cell: algorithm (+ parsed variant
    parameters) + the instance's content digest.

    Variant specs are resolved through the registry first, so every
    spelling of the same variant (``pd?delta=0.05`` / ``pd?delta=5e-2``)
    keys identically, and a parameter that changes results always
    changes the key. Base entries and variants share one key *scheme*
    (the ``params`` field is only present for variants), but every key
    also folds in :data:`RECORD_VERSION` — so a payload-shape bump
    (such as the one that added ``wall_time``) deliberately cold-starts
    existing caches rather than serving records an older build wrote.

    The instance enters as its
    :func:`~repro.io.serialize.instance_digest`: two instances key alike
    if and only if their canonical JSON texts are equal, and no float is
    written as text. The digest and each key are memoized on the
    instance — a key under the base algorithm, canonical params text
    and the two versions — so an instance keyed for several algorithms
    hashes its columns once, and a sweep that fingerprints its requests
    and then runs them computes each key once.
    """
    info = REGISTRY.info(algorithm)
    params = canonical_json(dict(info.params)) if info.params else None
    slot = (info.base, params, RECORD_VERSION, SCHEMA_VERSION)
    memo = instance.__dict__.get(_KEY_MEMO)
    if memo is None:
        memo = {}
        object.__setattr__(instance, _KEY_MEMO, memo)
    key = memo.get(slot)
    if key is None:
        digest = memo.get(_DIGEST_SLOT)
        if digest is None:
            digest = memo[_DIGEST_SLOT] = instance_digest(instance)
        payload = {
            "kind": "run-request",
            "schema": SCHEMA_VERSION,
            "record": RECORD_VERSION,
            "algorithm": info.base,
            "instance": digest,
        }
        if info.params:
            payload["params"] = dict(info.params)
        key = memo[slot] = stable_hash(payload)
    return key


def evaluate_request(request: RunRequest) -> dict[str, Any]:
    """Evaluate one cell and return its JSON-able payload.

    Module-level (not a method) so worker processes can unpickle it by
    name; called identically by the serial path, which is what makes
    ``workers=1`` and ``workers=N`` byte-for-byte interchangeable.

    The measured ``wall_time`` covers the algorithm run *and* its
    certificate evaluation — the full cost of the cell, which is what a
    cost-aware scheduler needs to balance.
    """
    info = REGISTRY.info(request.algorithm)
    start = time.perf_counter()
    outcome = REGISTRY.run(request.algorithm, request.instance)
    ratio = g = math.nan
    if info.certificate is not None:
        cert = info.certificate(outcome.raw)
        ratio = float(cert.ratio)
        g = float(cert.g)
    elapsed = time.perf_counter() - start
    schedule = outcome.schedule
    return {
        "kind": "run-record",
        "schema": SCHEMA_VERSION,
        "record": RECORD_VERSION,
        # info.name is canonical: every spelling of a variant spec
        # produces the identical record payload.
        "algorithm": info.name,
        "cost": float(schedule.cost),
        "energy": float(schedule.energy),
        "lost_value": float(schedule.lost_value),
        "acceptance": float(schedule.finished.mean()) if len(schedule.finished) else 1.0,
        "certified_ratio": ratio,
        "dual_g": g,
        "schedule": schedule_to_dict(schedule),
        "wall_time": elapsed,
    }


#: The numeric fields of an evaluated cell's payload (see
#: :func:`evaluate_request`); :func:`_record_from_payload` reads each
#: as a float.
_RECORD_NUMBERS = (
    "cost",
    "energy",
    "lost_value",
    "acceptance",
    "certified_ratio",
    "dual_g",
    "wall_time",
)


def _is_current_record(payload: Any, n: int) -> bool:
    """Whether a cached payload is a record of this build for a cell of
    ``n`` jobs: an object of the ``run-record`` kind, both versions
    current, every field present and typed as
    :func:`_record_from_payload` reads it, and a schedule in this
    version's layout (:func:`~repro.io.serialize.has_schedule_layout`:
    one ``finished`` flag per job, the numeric columns as text). A cache
    probe treats anything else (a miss reads ``None``) as a miss, so the
    cell is recomputed and its entry rewritten.
    """
    if (
        not isinstance(payload, dict)
        or payload.get("kind") != "run-record"
        or payload.get("schema") != SCHEMA_VERSION
        or payload.get("record") != RECORD_VERSION
        or not isinstance(payload.get("algorithm"), str)
    ):
        return False
    for name in _RECORD_NUMBERS:
        value = payload.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
    return has_schedule_layout(payload.get("schedule"), n)


def _record_from_payload(
    payload: dict[str, Any], *, key: str, cached: bool, tag: Mapping[str, Any] | None
) -> RunRecord:
    return RunRecord(
        algorithm=payload["algorithm"],
        cost=float(payload["cost"]),
        energy=float(payload["energy"]),
        lost_value=float(payload["lost_value"]),
        acceptance=float(payload["acceptance"]),
        certified_ratio=float(payload["certified_ratio"]),
        dual_g=float(payload["dual_g"]),
        schedule=payload["schedule"],
        key=key,
        cached=cached,
        tag=tag,
        wall_time=float(payload.get("wall_time", math.nan)),
    )


def record_to_payload(record: RunRecord) -> dict[str, Any]:
    """Serialize a record (shard files, archival) — JSON-able, lossless.

    ``certified_ratio`` / ``dual_g`` / ``wall_time`` may be ``NaN``; the
    payload is meant for :func:`json.dump` with the default
    (Python-dialect) ``allow_nan=True``, which round-trips them.
    """
    return {
        "kind": "run-record",
        "schema": SCHEMA_VERSION,
        "record": RECORD_VERSION,
        "algorithm": record.algorithm,
        "cost": record.cost,
        "energy": record.energy,
        "lost_value": record.lost_value,
        "acceptance": record.acceptance,
        "certified_ratio": record.certified_ratio,
        "dual_g": record.dual_g,
        "schedule": record.schedule,
        "key": record.key,
        "cached": record.cached,
        "tag": dict(record.tag) if record.tag is not None else None,
        "wall_time": record.wall_time,
    }


#: Every key :func:`record_to_payload` emits — the full vocabulary of a
#: record payload. :func:`record_from_payload` rejects anything else:
#: an unknown key means the payload came from a different build (or was
#: hand-edited), and silently dropping it would quietly lose data.
_RECORD_PAYLOAD_KEYS = frozenset({
    "kind",
    "schema",
    "record",
    "algorithm",
    "cost",
    "energy",
    "lost_value",
    "acceptance",
    "certified_ratio",
    "dual_g",
    "schedule",
    "key",
    "cached",
    "tag",
    "wall_time",
})


def record_from_payload(payload: dict[str, Any]) -> RunRecord:
    """Inverse of :func:`record_to_payload`, with version validation.

    Unknown keys raise a clear :class:`~repro.errors.ReproError`
    (rather than being silently dropped), and so do missing or
    ill-typed fields; the measured ``wall_time`` round-trips losslessly.
    """
    if payload.get("kind") != "run-record":
        raise InvalidParameterError(
            f"expected a 'run-record' payload, got {payload.get('kind')!r}"
        )
    unknown = set(payload) - _RECORD_PAYLOAD_KEYS
    if unknown:
        raise InvalidParameterError(
            f"unknown record payload key(s) {sorted(unknown)}; this build "
            f"understands exactly {sorted(_RECORD_PAYLOAD_KEYS)} — refusing "
            "to silently drop data from a different build"
        )
    if (
        payload.get("schema") != SCHEMA_VERSION
        or payload.get("record") != RECORD_VERSION
    ):
        raise InvalidParameterError(
            f"record payload versions (schema={payload.get('schema')!r}, "
            f"record={payload.get('record')!r}) do not match this build "
            f"(schema={SCHEMA_VERSION}, record={RECORD_VERSION})"
        )
    try:
        return _record_from_payload(
            payload,
            key=str(payload.get("key", "")),
            cached=bool(payload.get("cached", False)),
            tag=payload.get("tag"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"malformed record payload: {type(exc).__name__} {exc}"
        ) from None


@dataclass
class RunnerStats:
    """Cumulative work accounting of a :class:`BatchRunner`.

    ``computed`` counts algorithm evaluations; ``cache_hits`` requests
    served from the on-disk cache; ``deduplicated`` requests that
    repeated another cell of the same batch and reused its result
    (possible with or without a cache).
    """

    computed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0

    @property
    def total(self) -> int:
        return self.computed + self.cache_hits + self.deduplicated


#: Queue sentinel telling a :class:`_PutBatcher`'s drain thread to
#: flush what it holds and exit.
_FLUSH_STOP = object()


class _PutBatcher:
    """Background write-behind batcher for the stolen path's cache puts.

    Computed payloads are handed to a daemon thread that groups them
    into ``put_many`` calls, so the steal loop's claim/compute cycle
    never blocks on cache-write round trips — the flush half of the
    pipelined stolen sweep. Engaged only for backends exposing
    ``put_many`` (the HTTP client), where a write is a network round
    trip worth hiding; local backends keep their cheap synchronous
    writes and immediate-visibility semantics.

    Batches flush at ``batch_size`` entries (default: the backend's
    own ``batch_size``) or after ``max_delay`` seconds of quiet,
    whichever comes first — a crashing worker therefore loses at most
    a few tens of milliseconds of finished work to the shared cache,
    and those cells' claim leases were already reported done by the
    caller, so correctness never depends on the flush. ``close()``
    drains the queue, joins the thread, and re-raises the first
    backend error it swallowed (the remote put path is lenient by
    contract, so normally there is none).
    """

    def __init__(
        self,
        cache: CacheBackend,
        *,
        batch_size: int | None = None,
        max_delay: float = 0.05,
    ) -> None:
        self._cache = cache
        if batch_size is None:
            batch_size = max(1, int(getattr(cache, "batch_size", 32)))
        self._batch_size = batch_size
        self._max_delay = max_delay
        self._queue: queue.Queue[Any] = queue.Queue()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Enqueue one write; returns immediately."""
        self._queue.put((key, payload))

    def _flush(self, buffered: list[tuple[str, dict[str, Any]]]) -> None:
        if not buffered:
            return
        try:
            self._cache.put_many(dict(buffered))  # type: ignore[attr-defined]
        except BaseException as exc:  # noqa: BLE001 - reported at close()
            if self._failure is None:
                self._failure = exc
        buffered.clear()

    def _drain(self) -> None:
        buffered: list[tuple[str, dict[str, Any]]] = []
        while True:
            try:
                item = self._queue.get(timeout=self._max_delay)
            except queue.Empty:
                self._flush(buffered)
                continue
            if item is _FLUSH_STOP:
                self._flush(buffered)
                return
            buffered.append(item)
            if len(buffered) >= self._batch_size:
                self._flush(buffered)

    def close(self) -> None:
        """Flush everything queued, stop the thread, surface errors."""
        self._queue.put(_FLUSH_STOP)
        self._thread.join()
        if self._failure is not None:
            raise self._failure


class _InlineExecutor:
    """The stolen path's executor for ``workers=1``.

    ``submit`` evaluates the cell in this process and returns an already
    finished :class:`~concurrent.futures.Future`, so one pipelined loop
    serves every worker count. Nothing is pickled, so registry runners
    monkeypatched in this process are the ones that run; an evaluation
    error raises from ``submit`` itself.
    """

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Nothing to stop: every submitted cell already ran."""


class BatchRunner:
    """Evaluates request grids, optionally in parallel and/or cached.

    Parameters
    ----------
    workers:
        ``1`` runs cells serially in-process (no pool, no pickling —
        also the mode where monkeypatching registry runners works, which
        tests rely on). ``> 1`` fans uncached cells out to that many
        worker processes; each returns its :func:`evaluate_request`
        payload through the pool's own result channel, so a pooled
        record is the identical dict a serial run builds.
    cache:
        ``None`` (no caching), a directory path (opened as a
        :class:`~repro.engine.cache.DirectoryCache`), or any ready
        :class:`~repro.engine.cache.CacheBackend` — e.g. a
        :class:`~repro.engine.cache.SqliteCache`. Hits skip evaluation
        entirely; backends are interchangeable bit for bit.
    claim_batch:
        Positions leased per claim round trip on the stolen path
        (:meth:`iter_stolen`) — the ``k`` of the server's
        ``claim_next?k=N``. ``None`` (default) picks ``workers`` — 1,
        the finest stealing granularity, for a serial runner. Larger
        batches amortize claim latency against a remote table at the
        cost of coarser stealing: a worker holds at most one batch
        beyond its executor's capacity.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache: CacheBackend | str | Path | None = None,
        claim_batch: int | None = None,
    ) -> None:
        if not isinstance(workers, int) or workers < 1:
            raise InvalidParameterError(
                f"workers must be an int >= 1, got {workers!r}"
            )
        self.workers = workers
        if claim_batch is not None and (
            not isinstance(claim_batch, int)
            or isinstance(claim_batch, bool)
            or claim_batch < 1
        ):
            raise InvalidParameterError(
                f"claim_batch must be an int >= 1 or None, got {claim_batch!r}"
            )
        self.claim_batch = claim_batch
        if isinstance(cache, (str, Path)):
            cache = DirectoryCache(cache)
        elif cache is not None and not (
            hasattr(cache, "get") and hasattr(cache, "put")
        ):
            raise InvalidParameterError(
                f"cache must be a path or a CacheBackend, got {cache!r}"
            )
        self.cache = cache
        self.stats = RunnerStats()

    # ------------------------------------------------------------------
    def run_one(self, algorithm: str, instance: Instance) -> RunRecord:
        """Convenience wrapper: evaluate a single cell."""
        return self.run([RunRequest(algorithm, instance)])[0]

    def _probe_cache(
        self, job_counts: Mapping[str, int]
    ) -> Iterator[tuple[str, dict[str, Any]]]:
        """Yield ``(key, payload)`` for every cache hit among the keys
        of ``job_counts``, which maps each key to its cell's job count.

        Backends with a ``get_many`` (the HTTP client) are probed in
        chunks of their ``batch_size`` — one round trip per chunk
        instead of one per key; everything else falls back to per-key
        ``get``. Either way hits stream out chunk by chunk. An entry
        that is not a current record for its cell
        (:func:`_is_current_record`) is not a hit.
        """
        keys = list(job_counts)
        fetch_many = getattr(self.cache, "get_many", None)
        if fetch_many is None:
            for key in keys:
                payload = self.cache.get(key)
                if _is_current_record(payload, job_counts[key]):
                    yield key, payload
            return
        chunk = max(1, int(getattr(self.cache, "batch_size", 32)))
        for start in range(0, len(keys), chunk):
            block = keys[start : start + chunk]
            found = fetch_many(block)
            for key in block:
                payload = found.get(key)
                if _is_current_record(payload, job_counts[key]):
                    yield key, payload

    def iter_records(
        self, requests: Sequence[RunRequest]
    ) -> Iterator[tuple[int, RunRecord]]:
        """Yield ``(index, record)`` pairs in **completion order**.

        The streaming core every other entry point wraps. ``index`` is
        the request's position in ``requests``. Cache hits stream first
        (they are complete before any work starts), then freshly
        computed cells as they finish — serially in request order for
        ``workers=1``, in pool completion order otherwise. Duplicate
        cells (same algorithm + instance content) are computed once;
        when their payload lands, every requesting position is yielded,
        the lowest marked fresh and the rest ``cached`` (in-batch
        deduplication, exactly the eager semantics).

        Each record is yielded exactly once; fully consuming the stream
        and sorting by ``index`` reproduces :meth:`run`'s output.
        """
        requests = list(requests)
        keys = [request_key(r.algorithm, r.instance) for r in requests]

        # Positions per unique cell, ascending (ascending order is what
        # makes "first occurrence is the computation" reproducible).
        positions: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            positions.setdefault(key, []).append(index)

        # Stream cache hits as they are fetched — each payload (which
        # carries a full serialized schedule) is yielded and released
        # before the next chunk is read, so a warm sweep's peak memory
        # is one probe chunk, not the whole grid. Backends exposing
        # get_many (the HTTP backend) are probed in batched round trips
        # to amortize network latency.
        hit_keys: set[str] = set()
        if self.cache is not None:
            job_counts = {
                key: requests[indexes[0]].instance.n
                for key, indexes in positions.items()
            }
            for key, payload in self._probe_cache(job_counts):
                hit_keys.add(key)
                for index in positions[key]:
                    self.stats.cache_hits += 1
                    yield index, _record_from_payload(
                        payload, key=key, cached=True, tag=requests[index].tag
                    )

        # Unique cells still to compute, in first-appearance order.
        pending = [
            (key, requests[indexes[0]])
            for key, indexes in positions.items()
            if key not in hit_keys
        ]

        def deliver(
            key: str, payload: dict[str, Any]
        ) -> Iterator[tuple[int, RunRecord]]:
            self.stats.computed += 1
            if self.cache is not None:
                self.cache.put(key, payload)
            for order, index in enumerate(positions[key]):
                cached = order > 0
                if cached:
                    self.stats.deduplicated += 1
                yield index, _record_from_payload(
                    payload,
                    key=key,
                    cached=cached,
                    tag=requests[index].tag,
                )

        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for key, request in pending:
                yield from deliver(key, evaluate_request(request))
        else:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            try:
                futures = {
                    pool.submit(evaluate_request, request): key
                    for key, request in pending
                }
                for future in as_completed(futures):
                    yield from deliver(futures[future], future.result())
            finally:
                # Reached on exhaustion, on a worker exception, and on
                # GeneratorExit when the consumer abandons the stream
                # early: cancel queued cells instead of silently
                # computing-and-discarding the rest of the grid.
                pool.shutdown(wait=False, cancel_futures=True)

    def run(
        self,
        requests: Sequence[RunRequest],
        *,
        on_record: Callable[[RunRecord, int, int], None] | None = None,
    ) -> list[RunRecord]:
        """Evaluate all cells; results are in request order.

        A thin collecting wrapper over :meth:`iter_records`: the stream
        arrives in completion order and is reordered back to request
        order, so the returned list is byte-identical to the historical
        eager implementation whatever the worker count or cache state.

        ``on_record(record, done, total)`` (if given) fires once per
        record *in completion order* as results land — progress bars and
        live dashboards hook in here without giving up the ordered
        return value.
        """
        requests = list(requests)
        total = len(requests)
        records: list[RunRecord | None] = [None] * total
        done = 0
        for index, record in self.iter_records(requests):
            records[index] = record
            done += 1
            if on_record is not None:
                on_record(record, done, total)
        return records  # type: ignore[return-value]  # every slot filled

    def iter_stolen(
        self, requests: Sequence[RunRequest], claims: ClaimTable
    ) -> Iterator[tuple[int, RunRecord]]:
        """Work-stealing streaming execution over a shared claim table.

        Every cooperating worker holds the *same* ``requests`` list and
        a claim table fronting it; each claims positions one at a time
        and yields ``(position, record)`` pairs as they complete, so a
        worker bogged down in an expensive cell simply claims fewer —
        the queue drains into whoever is fastest *right now*, with no
        precomputed split and no cost model needed.

        Per claimed block: one claim round trip (``claim_batch``
        positions — see the constructor), one batched cache probe
        (hits stream back without occupying an executor slot), then
        evaluation on an executor that keeps at most ``workers`` cells
        in flight: a process pool, or for ``workers=1`` an inline
        executor that evaluates each cell as it is submitted. The loop
        is *pipelined*: while a pool computes, the next claim batch is
        already being leased and probed (the worker processes run
        independently, so those round trips overlap compute instead of
        serializing with it), and completed payloads flush to the cache
        through a background ``put_many`` batcher when the backend has
        one. A worker therefore holds at most one claim batch beyond its
        executor's capacity — bounded hoarding, traded for claim traffic
        that scales with batches instead of cells. In-batch
        deduplication does not apply — positions are claimed
        individually — but a shared cache gives duplicate cells across
        workers one computation in practice.

        Every claim is leased. Hits are reported ``done`` once per
        block and computed cells once per harvest, so healthy workers'
        leases are never reissued; a worker that finds the table empty
        while other workers hold live leases polls instead of exiting,
        so someone is still claiming when a crashed worker's leases
        lapse. The union of every worker's pairs covers the full
        request list; each worker yields a position at most once (a
        lease the *same* worker re-receives after expiry is skipped
        here), so sorting by position reproduces the unsharded
        :meth:`run` measurements bit for bit.
        """
        requests = list(requests)
        total = len(requests)
        poll = min(max(claims.lease_ttl / 20.0, 0.005), 0.5)
        seen: set[int] = set()
        completed: set[int] = set()

        def claim_new(count: int) -> tuple[list[int], str]:
            """Claim; classify the outcome and filter re-leases.

            A slow worker can outlive its own lease; the table may then
            hand a position straight back to it. Re-receipts of cells
            this worker *finished* are re-reported done (the original
            report raced the expiry); re-receipts of cells still in
            flight here are simply dropped — their lease stays live and
            the eventual completion reports it. Returns the genuinely
            new positions plus a status: ``"ok"``, ``"drained"`` (empty
            claim with no unexpired leases outstanding anywhere), or
            ``"waiting"`` (empty claim but other workers still hold
            leases — cells may yet flow back, so do not exit).
            """
            claimed = claims.claim(count)
            if not claimed:
                return [], "waiting" if claims.pending() else "drained"
            finished = [p for p in claimed if p in completed]
            if finished:
                claims.done(finished)
            fresh_positions = [p for p in claimed if p not in seen]
            if not fresh_positions:
                # Everything handed out was a re-lease of our own work
                # (reported or still in flight): no new cells right now,
                # but not drained either — harvest/poll, don't spin.
                return [], "waiting"
            return fresh_positions, "ok"

        def resolve(position: int) -> tuple[RunRequest, str]:
            if not isinstance(position, int) or not 0 <= position < total:
                # A fabric fault, not a parameter problem: CacheError,
                # like every other claim-table conflict.
                raise CacheError(
                    f"claim table handed out position {position!r}, valid "
                    f"range is 0..{total - 1} — claim table and request "
                    "list are out of sync"
                )
            request = requests[position]
            return request, request_key(request.algorithm, request.instance)

        # Write-behind batcher: computed payloads flush to the cache on
        # a background thread through put_many, so the steal loop never
        # blocks on a cache-write round trip. Backends without put_many
        # (local disk, memory) keep synchronous writes — they are cheap
        # and their immediate visibility is part of their contract.
        flusher = (
            _PutBatcher(self.cache)
            if self.cache is not None and hasattr(self.cache, "put_many")
            else None
        )

        def fresh(
            position: int, key: str, payload: dict[str, Any]
        ) -> tuple[int, RunRecord]:
            self.stats.computed += 1
            if flusher is not None:
                flusher.put(key, payload)
            elif self.cache is not None:
                self.cache.put(key, payload)
            return position, _record_from_payload(
                payload, key=key, cached=False, tag=requests[position].tag
            )

        def claim_block(count: int) -> tuple[
            list[tuple[int, RunRequest, str, dict[str, Any] | None]], str
        ]:
            """One pipeline stage: claim a block, batch-probe the cache.

            Returns ``(staged, status)`` where each staged element is
            ``(position, request, key, hit_payload_or_None)``. Hits are
            done-reported here, one round trip per block, so their
            leases clear as soon as they are known good.
            """
            claimed, status = claim_new(count)
            if status != "ok":
                return [], status
            resolved = [resolve(position) for position in claimed]
            seen.update(claimed)
            hits = (
                dict(
                    self._probe_cache(
                        {key: request.instance.n for request, key in resolved}
                    )
                )
                if self.cache is not None
                else {}
            )
            hit_positions = [
                position
                for position, (_, key) in zip(claimed, resolved)
                if key in hits
            ]
            if hit_positions:
                completed.update(hit_positions)
                claims.done(hit_positions)
            return [
                (position, request, key, hits.get(key))
                for position, (request, key) in zip(claimed, resolved)
            ], "ok"

        batch = self.claim_batch or self.workers
        pool: ProcessPoolExecutor | _InlineExecutor = (
            _InlineExecutor()
            if self.workers == 1
            else ProcessPoolExecutor(max_workers=self.workers)
        )
        in_flight: dict[Any, tuple[int, str]] = {}
        ready: deque[tuple[int, RunRequest, str, dict[str, Any] | None]] = (
            deque()
        )
        drained = False
        try:
            while True:
                # Drain the staged queue: hits stream straight out
                # without occupying a slot, misses fill free slots.
                while ready:
                    position, request, key, payload = ready[0]
                    if payload is not None:
                        ready.popleft()
                        self.stats.cache_hits += 1
                        yield position, _record_from_payload(
                            payload, key=key, cached=True, tag=request.tag
                        )
                    elif len(in_flight) < self.workers:
                        ready.popleft()
                        future = pool.submit(evaluate_request, request)
                        in_flight[future] = (position, key)
                    else:
                        break
                # Prefetch: with nothing staged, claim+probe the next
                # block *now* — while the pool is computing — so the
                # next free slot finds work already staged instead of
                # waiting out a claim and a probe round trip. Bounded
                # hoarding: never more than one batch beyond capacity.
                if not drained and not ready:
                    staged, status = claim_block(batch)
                    if status == "drained":
                        drained = True
                    elif staged:
                        ready.extend(staged)
                        continue
                if in_flight:
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    pairs = []
                    for future in done:
                        position, key = in_flight.pop(future)
                        pairs.append(fresh(position, key, future.result()))
                        completed.add(position)
                    # One done round trip per harvest, not per cell.
                    claims.done([position for position, _ in pairs])
                    for pair in pairs:
                        yield pair
                    continue
                if drained:
                    return
                # Other workers hold live leases; cells may yet flow
                # back. Idle-poll instead of exiting — the crash-recovery
                # guarantee needs a claimer alive at expiry.
                time.sleep(poll)
        finally:
            # Reached on exhaustion, on a worker exception, and on
            # GeneratorExit: cancel queued cells instead of silently
            # computing-and-discarding. Their leases were never reported
            # done, so the table reissues them to a surviving worker
            # after the TTL. The flush batcher drains after the pool
            # stops feeding it.
            pool.shutdown(wait=False, cancel_futures=True)
            if flusher is not None:
                flusher.close()

    def run_stolen(
        self,
        requests: Sequence[RunRequest],
        claims: ClaimTable,
        *,
        on_record: Callable[[RunRecord, int, int], None] | None = None,
    ) -> list[tuple[int, RunRecord]]:
        """Drain the claim table; return this worker's ``(position,
        record)`` pairs sorted by position.

        The work-stealing analogue of :meth:`run`: positions are
        ascending (a worker's records are in request order for the
        positions it won), so concatenating every worker's pairs and
        sorting by position is byte-identical to the unsharded run.
        ``on_record(record, done, total)`` fires in completion order;
        ``total`` is the full grid size — how much of it this worker
        ends up doing is decided by the stealing itself.
        """
        pairs: list[tuple[int, RunRecord]] = []
        done = 0
        for position, record in self.iter_stolen(requests, claims):
            pairs.append((position, record))
            done += 1
            if on_record is not None:
                on_record(record, done, len(requests))
        pairs.sort(key=lambda pair: pair[0])
        return pairs
