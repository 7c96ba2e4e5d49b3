"""Spans and counters for the traced run, and the hooks that emit them.

A span is one timed call at a layer boundary: id, name, start, end, the
id of the span that was open on the same thread when it began (its
parent), a cell id and the traced pass it belongs to. Spans and counters
are kept in memory and written as JSONL once the run ends; the summary
is then computed from that file, so the file alone reproduces the table.

The hooks wrap the public functions each layer exposes, from outside
the program: module attributes are swapped for timing wrappers while a
traced pass runs and restored after it. A hook whose target no longer
exists is skipped, and the layers it fed read 0, so the benchmark keeps
running when a later change deletes a layer.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterable


class Recorder:
    """In-memory spans and per-pass counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[int, dict[str, float]] = {}
        self.passes: list[dict[str, Any]] = []
        self.current: dict[str, float] = defaultdict(float)
        self._pass = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()

    # -- passes -----------------------------------------------------------
    def begin_pass(self, mode: str) -> None:
        self._pass = len(self.passes)
        self.current = self.counters.setdefault(self._pass, defaultdict(float))
        self.passes.append({"pass": self._pass, "mode": mode, "wall": None})

    def end_pass(self, wall: float) -> None:
        self.passes[self._pass]["wall"] = wall
        self._pass = -1
        self.current = defaultdict(float)

    # -- spans and counters -------------------------------------------------
    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str | Callable[..., str], fn: Callable, cell=None):
        """``fn`` wrapped in a span; ``name`` may be a function of the
        call's arguments, ``cell`` likewise."""

        def traced(*args, **kwargs):
            stack = self._stack()
            label = name(*args, **kwargs) if callable(name) else name
            own = cell(*args, **kwargs) if callable(cell) else cell
            parent = stack[-1] if stack else (None, None)
            if own is None:
                own = parent[1]
            sid = next(self._ids)
            stack.append((sid, own))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, label, start, end, parent[0], own, self._pass)
                )

        return traced

    def span(self, name: str, fn: Callable, *args, cell=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span."""
        return self.wrap(name, fn, cell)(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        self.current[name] += amount

    # -- output -------------------------------------------------------------
    def write_jsonl(self, path: Path) -> None:
        t0 = self._t0
        with open(path, "w") as fh:
            for sid, name, start, end, parent, cell, pass_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "span": sid,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "cell": cell,
                            "pass": pass_id,
                        }
                    )
                    + "\n"
                )
            for pass_id, values in sorted(self.counters.items()):
                for name, value in sorted(values.items()):
                    fh.write(
                        json.dumps(
                            {"counter": name, "pass": pass_id, "value": value}
                        )
                        + "\n"
                    )
            for entry in self.passes:
                fh.write(json.dumps(entry) + "\n")


def read_jsonl(path: Path) -> tuple[list[dict], list[dict], list[dict]]:
    """``(spans, counters, passes)`` as written by :meth:`Recorder.write_jsonl`."""
    spans, counters, passes = [], [], []
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            if "span" in row:
                spans.append(row)
            elif "counter" in row:
                counters.append(row)
            else:
                passes.append(row)
    return spans, counters, passes


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children may overlap each other (spans opened on other threads under
    an explicit parent), so the covered part is the union of the child
    intervals, clipped to the parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        clipped = (
            (max(c_lo, lo), min(c_hi, hi))
            for c_lo, c_hi in children.get(span["span"], ())
        )
        out[span["span"]] = (hi - lo) - union_length(clipped)
    return out


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
class Hooks:
    """Swaps layer entry points for traced wrappers; ``undo`` restores."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: list[Callable[[], None]] = []
        self.skipped: list[str] = []

    def patch(self, owner, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            label = getattr(owner, "__name__", type(owner).__name__)
            self.skipped.append(f"{label}.{attr}")
            return
        own = attr in vars(owner)
        setattr(owner, attr, make(original))
        if own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:  # inherited or bound method: drop the shadowing attribute
            self._undo.append(lambda: delattr(owner, attr))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- hook sets ----------------------------------------------------------
    def install_parent(self) -> None:
        """Layers the benchmark process itself runs: request compilation,
        keys, cache traffic, result decoding, the fabric client."""
        import repro.engine.cache as cache_mod
        import repro.engine.experiment as experiment
        import repro.engine.remote as remote
        import repro.engine.runner as runner

        rec = self.rec

        def requests(fn):
            def counted(spec):
                out = fn(spec)
                rec.count("workloads.instances", len({id(r.instance) for r in out}))
                return out

            return rec.wrap("experiment.requests", counted)

        self.patch(experiment.ExperimentSpec, "requests", requests)
        self.patch(
            experiment.ExperimentSpec,
            "fingerprint",
            lambda fn: rec.wrap("experiment.fingerprint", fn),
        )
        self.patch(
            experiment,
            "aggregate_records",
            lambda fn: rec.wrap("experiment.aggregate", fn),
        )

        self.patch(runner, "request_key", _counted(rec, "runner.request_key"))

        def stepped(gen_fn):
            # Time each step of the record stream: the parent is blocked
            # in next() while cells compute; child spans take out the
            # cache and decode work done inside the step.
            def iterate(self_, *args, **kwargs):
                gen = gen_fn(self_, *args, **kwargs)
                step = rec.wrap("runner.next", lambda: next(gen, _DONE))
                try:
                    while True:
                        item = step()
                        if item is _DONE:
                            return
                        yield item
                finally:
                    gen.close()

            return iterate

        self.patch(runner.BatchRunner, "iter_records", stepped)
        self.patch(runner.BatchRunner, "iter_stolen", stepped)

        def cache_get(fn):
            traced = rec.wrap("cache.get", fn)

            def counted(self_, key):
                payload = traced(self_, key)
                rec.count("cache.get_calls")
                if payload is not None:
                    rec.count("cache.get_hits")
                return payload

            return counted

        def cache_put(fn):
            traced = rec.wrap("cache.put", fn)

            def counted(self_, key, payload):
                traced(self_, key, payload)
                rec.count("cache.put_calls")
                rec.count("cache.put_bytes", len(json.dumps(payload)))

            return counted

        self.patch(cache_mod.DirectoryCache, "get", cache_get)
        self.patch(cache_mod.DirectoryCache, "put", cache_put)

        wire_bytes = None
        try:
            from repro.engine.transport import wire_bytes
        except ImportError:
            pass

        def decode(fn):
            traced = rec.wrap("transport.decode", fn)

            def counted(wire):
                if wire_bytes is not None:
                    rec.count("transport.wire_bytes", wire_bytes(wire))
                rec.count("transport.decodes")
                return traced(wire)

            return counted

        self.patch(runner, "decode_wire", decode)

        for owner, attr, name in (
            (remote.HttpClaimTable, "claim", "remote.claim"),
            (remote.HttpClaimTable, "done", "remote.done"),
            (remote.HttpCache, "get_many", "remote.get_many"),
        ):
            self.patch(owner, attr, _counted(rec, name))

    def install_inline(self) -> None:
        """Layers that run inside a cell evaluation: only installed when
        cells evaluate in this process (pool workers would inherit the
        wrappers and record into a copy of the recorder)."""
        import repro.core.pd as pd
        import repro.engine.runner as runner
        import repro.perf.epochs as epochs
        from repro.engine.registry import REGISTRY

        rec = self.rec

        def evaluate(fn):
            def cell_of(request):
                tag = request.tag or {}
                return f"{tag.get('cell')}:{request.algorithm}:{tag.get('seed')}"

            traced = rec.wrap("runner.evaluate", fn, cell=cell_of)

            def measured(request):
                payload = traced(request)
                rec.count("serialize.payloads")
                rec.count("serialize.payload_bytes", len(json.dumps(payload)))
                return payload

            return measured

        self.patch(runner, "evaluate_request", evaluate)
        self.patch(
            runner, "schedule_to_dict", lambda fn: rec.wrap("serialize.encode", fn)
        )

        info_of = REGISTRY.info

        def run(fn):
            def name_of(name, instance):
                return f"algo.{info_of(name).base}"

            traced = rec.wrap(name_of, fn)

            def counted(name, instance):
                rec.count(f"{name_of(name, instance)}.jobs", instance.n)
                return traced(name, instance)

            return counted

        self.patch(REGISTRY, "run", run)

        def info(fn):
            memo: dict[int, tuple[Any, Any]] = {}

            def with_timed_certificate(name):
                entry = fn(name)
                if getattr(entry, "certificate", None) is None:
                    return entry
                hit = memo.get(id(entry))
                if hit is None or hit[0] is not entry:
                    timed = rec.wrap(f"certificate.{entry.base}", entry.certificate)
                    hit = memo[id(entry)] = (entry, replace(entry, certificate=timed))
                return hit[1]

            return with_timed_certificate

        self.patch(REGISTRY, "info", info)

        for module in (pd, epochs):
            self.patch(module, "waterfill_job", _counted(rec, "waterfill"))
            self.patch(module, "WindowKernel", lambda base: _counting_kernel(rec, base))
        self.patch(pd, "Grid", lambda base: _GridCounter(rec, base))


_DONE = object()


def _counted(rec: Recorder, name: str):
    def make(fn):
        traced = rec.wrap(name, fn)

        def counted(*args, **kwargs):
            rec.count(f"{name}.calls")
            return traced(*args, **kwargs)

        return counted

    return make


def _counting_kernel(rec: Recorder, base):
    # Counted, not spanned: one water-fill makes up to ~35 total_at_speed
    # calls, too many for a span each.
    class CountingKernel(base):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            rec.current["kernels.window_builds"] += 1
            super().__init__(*args, **kwargs)

        def total_at_speed(self, speed):
            rec.current["kernels.total_at_speed_calls"] += 1
            return base.total_at_speed(self, speed)

    return CountingKernel


class _GridCounter:
    """Stands in for ``Grid`` where PD builds it: every grid built is a
    refinement (the first one refines the empty grid)."""

    def __init__(self, rec: Recorder, base) -> None:
        self._rec = rec
        self._base = base

    def __call__(self, *args, **kwargs):
        self._rec.count("grid.refinements")
        return self._base(*args, **kwargs)

    def from_points(self, points):
        self._rec.count("grid.refinements")
        return self._base.from_points(points)

    def __getattr__(self, attr):
        return getattr(self._base, attr)
