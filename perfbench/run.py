#!/usr/bin/env python3
"""End-to-end benchmark of the PD/CLL reproduction, one workload per run.

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 20 --trace 0

Runs the workload's timed passes until ``--seconds`` of them are
measured, checks every output, prints a table and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, with the
span and counter table computed from the trace JSONL it writes under
``.perfbench-work/``. Exits 1 when an output check failed and 2 when the
program under test is not beside this directory. Workloads, metrics and
their rationale: ``perfbench/NOTE.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
import measure  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sweep-cold", "sweep-warm", "pd-stream", "steal-warm")

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150
#: Untraced/traced pass pairs a traced run makes at least.
MIN_TRACE_PAIRS = 2

#: Per-layer metrics read from the in-process serial pass on workloads
#: that have one (their layers otherwise run inside pool workers).
INLINE_LAYERS = frozenset({
    "serialize.encode_s", "serialize.payload_bytes_per_cell",
    "algo.pd_s", "algo.cll_s", "certificate.pd_s", "certificate.cll_s",
    "epochs.screen_reject_frac", "waterfill.calls", "waterfill.s",
    "kernels.window_builds", "kernels.total_at_speed_calls",
    "kernels.total_at_speed_per_fill", "grid.refinements",
})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds to measure (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    ruler = measure.Yardstick()
    ruler.sample()
    sys.path.insert(0, str(SRC))
    import scenarios

    import_s = time.perf_counter() - T_START
    ruler.sample()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = measure.Tally()
    scenario = scenarios.SCENARIOS[args.workload](work, args.seed, tally, ruler)
    try:
        phases = {"import": import_s, **scenario.setup()}
        if args.setup_probe:
            ready = time.monotonic()
            print(f"READY {ready!r} {ruler.slowdown()!r} {ruler.spent!r}", flush=True)
            return 0
        if args.trace:
            return traced_run(scenario, args, phases, tally)
        return timed_run(scenario, args, phases, tally)
    finally:
        scenario.close()
        reap_children()
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def timed_run(scenario, args, phases, tally) -> int:
    mark = scenario.ruler.mark()
    results = []
    timed = 0.0
    while not results or (
        timed < args.seconds
        and (scenario.max_passes is None or len(results) < scenario.max_passes)
    ):
        results.append(scenario.run_pass(len(results)))
        timed += results[-1].wall
        if not results[-1].jobs:
            break  # the pass failed outright; repeating it measures nothing
    slowdown = scenario.ruler.slowdown(mark)
    scenario.close()
    reap_children()
    peak = peak_rss_mb()
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    jobs = sum(r.jobs for r in results)
    metrics = {
        "jobs_per_s": jobs / timed * slowdown,
        "setup_s": statistics.median(wall / factor for wall, factor in probes),
        "peak_rss_mb": peak,
    }
    notes = {
        "jobs_per_s": f"{jobs} jobs in {len(results)} passes, {timed:.2f} s timed: "
        f"{jobs / timed:.6g} jobs/s raw, machine {slowdown:.3f}x slower than nominal",
        "setup_s": "median of fresh-process set-ups, raw s / slowdown: "
        + ", ".join(f"{wall:.3f}/{factor:.3f}" for wall, factor in probes)
        + " (this process: "
        + ", ".join(f"{k} {v:.3f}" for k, v in phases.items())
        + ")",
        "peak_rss_mb": "max RSS of this process and its pool children",
    }
    print(f"perfbench {args.workload}  seed={args.seed}  {scenario.shape}")
    for name, unit in measure.END_TO_END:
        print(f"  {name:<12} {metrics[name]:>14.6g} {unit:<4} {notes[name]}")
    print(f"  {'fail_frac':<12} {tally.fail_frac:>14.6g} {'1':<4} "
          f"{tally.failed} of {tally.attempted} {scenario.op_name} failed")
    for reason in tally.reasons:
        print(f"    failure: {reason}")
    return emit(tally, metrics, measure.END_TO_END)


def probe_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh benchmark process to its first
    timed call (it sets up, reports, tears down and exits), less its
    yardstick sampling, and the slowdown it measured meanwhile."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    ready = [line for line in proc.stdout.splitlines() if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    _, at, slowdown, spent = ready[-1].split()
    return float(at) - start - float(spent), float(slowdown)


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every pool worker this process started has exited,
    then stop the resource tracker the shared-memory transport started
    (it exits once no process holds its pipe, so workers go first)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    if multiprocessing.active_children():
        return
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def emit(tally, metrics, declared) -> int:
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared
        },
    }))
    return 0 if tally.failed == 0 else 1


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def traced_run(scenario, args, phases, tally) -> int:
    rec = tracing.Recorder()
    hooks = tracing.Hooks(rec)

    def traced_pass(slot, mode):
        rec.begin_pass(mode)
        try:
            hooks.install_parent()
            if scenario.inline or mode == "serial":
                hooks.install_inline()
            result = scenario.run_pass(slot, rec, serial=mode == "serial")
        finally:
            hooks.undo()
        rec.end_pass(result.wall)
        return result

    # Untraced and traced passes alternate on the same inputs, so the
    # pairs measure the tracing overhead under the same machine load.
    mark = scenario.ruler.mark()
    plain, traced = [], []
    while True:
        slot = len(plain)
        plain.append(scenario.run_pass(slot))
        traced.append(traced_pass(slot, "traced"))
        if not (plain[-1].jobs and traced[-1].jobs):
            break  # a failed pass: stop rather than repeat it
        if scenario.max_passes is not None and len(plain) >= scenario.max_passes:
            break
        spent = sum(r.wall for r in plain + traced)
        if len(plain) >= MIN_TRACE_PAIRS and spent >= args.seconds:
            break
    serial = [traced_pass(len(plain), "serial")] if scenario.traced_serial else []
    scenario.close()

    path = WORK / f"trace-{args.workload}.jsonl"
    rec.write_jsonl(path)
    spans, counters, passes = tracing.read_jsonl(path)
    pooled = plain + traced
    extras = {
        "eval_ms": [ms for r in pooled for ms in r.eval_ms],
        "ratio_over_bound": [x for r in pooled + serial for x in r.pd_ratio_over_bound],
        "phases": phases,
        "overhead": sum(r.wall for r in traced) / sum(r.wall for r in plain) - 1.0,
    }
    metrics = layer_metrics(spans, counters, passes, extras)
    print(f"perfbench {args.workload}  seed={args.seed}  traced run  {scenario.shape}")
    print(f"  trace: {path} ({len(spans)} spans)")
    print(f"  passes: {len(plain)} untraced + {len(traced)} traced on the same inputs"
          + (", 1 serial traced pass (in-worker layers, workers=1)" if serial else ""))
    print(f"  tracing overhead: {extras['overhead']:+.1%} wall, traced vs untraced")
    print(f"  machine {scenario.ruler.slowdown(mark):.3f}x slower than nominal "
          "(per-layer times are raw)")
    print_span_table(spans, counters, passes)
    print("  per-layer metrics:")
    for name, unit in measure.PER_LAYER:
        note = "  (serial pass)" if serial and name in INLINE_LAYERS else ""
        print(f"    {name:<36} {metrics[name]:>14.6g} {unit}{note}")
    samples = {
        "runner.eval_p90_ms": len(extras["eval_ms"]),
        "epochs.chunk_p90_ms": sum(s["name"] == "epochs.arrive" for s in spans),
    }
    for name, count in samples.items():
        if count:
            print(f"    {name}: {count} samples, "
                  f"{measure.beyond(count, 90.0)} beyond p90")
    for reason in tally.reasons:
        print(f"    failure: {reason}")
    return emit(tally, metrics, measure.PER_LAYER)


def _sums(spans, counters):
    selfs = tracing.self_times(spans)
    spent = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        spent[(span["name"], span["pass"])] += selfs[span["span"]]
        calls[(span["name"], span["pass"])] += 1
    counts = defaultdict(float)
    for row in counters:
        counts[(row["counter"], row["pass"])] += row["value"]
    return spent, calls, counts


def layer_metrics(spans, counters, passes, extras) -> dict[str, float]:
    """The :data:`measure.PER_LAYER` values from one trace."""
    spent, _, counts = _sums(spans, counters)
    parent = [p["pass"] for p in passes if p["mode"] == "traced"]
    inline = [p["pass"] for p in passes if p["mode"] == "serial"] or parent

    def self_s(name, ids):
        return sum(spent[(name, p)] for p in ids) / len(ids) if ids else 0.0

    def count(name, ids):
        return sum(counts[(name, p)] for p in ids) / len(ids) if ids else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def pct(samples, p):
        value = measure.reportable(samples, p) if samples else None
        return 0.0 if value is None else value

    chunk_ms = [(s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "epochs.arrive"]
    fills = count("waterfill.calls", inline)
    arrivals = count("epochs.arrivals", inline) + count("algo.pd.jobs", inline)
    phases = extras["phases"]
    return {
        "experiment.requests_s": self_s("experiment.requests", parent),
        "workloads.instances": count("workloads.instances", parent),
        "experiment.aggregate_s": self_s("experiment.aggregate", parent),
        "experiment.fingerprint_s": self_s("experiment.fingerprint", parent),
        "runner.request_key_s": self_s("runner.request_key", parent),
        "runner.request_key_calls": count("runner.request_key.calls", parent),
        "runner.eval_p50_ms": pct(extras["eval_ms"], 50.0),
        "runner.eval_p90_ms": pct(extras["eval_ms"], 90.0),
        "runner.cells_computed": count("runner.cells_computed", parent),
        "runner.pool_wait_s": self_s("runner.next", parent),
        "cache.get_s": self_s("cache.get", parent),
        "cache.get_calls": count("cache.get_calls", parent),
        "cache.hit_ratio": ratio(count("cache.get_hits", parent),
                                 count("cache.get_calls", parent)),
        "cache.put_s": self_s("cache.put", parent),
        "cache.put_calls": count("cache.put_calls", parent),
        "cache.put_bytes": count("cache.put_bytes", parent),
        "transport.decode_s": self_s("transport.decode", parent),
        "transport.wire_bytes_per_cell": ratio(count("transport.wire_bytes", parent),
                                               count("transport.decodes", parent)),
        "serialize.encode_s": self_s("serialize.encode", inline),
        "serialize.payload_bytes_per_cell": ratio(
            count("serialize.payload_bytes", inline), count("serialize.payloads", inline)
        ),
        "algo.pd_s": self_s("algo.pd", inline),
        "algo.cll_s": self_s("algo.cll", inline),
        "certificate.pd_s": self_s("certificate.pd", inline),
        "certificate.cll_s": self_s("certificate.cll", inline),
        "certificate.worst_ratio_over_bound": max(extras["ratio_over_bound"], default=0.0),
        "epochs.arrive_s": self_s("epochs.arrive", inline),
        "epochs.chunk_p50_ms": pct(chunk_ms, 50.0),
        "epochs.chunk_p90_ms": pct(chunk_ms, 90.0),
        "epochs.screen_reject_frac": 1.0 - ratio(fills, arrivals) if arrivals else 0.0,
        "waterfill.calls": fills,
        "waterfill.s": self_s("waterfill", inline),
        "kernels.window_builds": count("kernels.window_builds", inline),
        "kernels.total_at_speed_calls": count("kernels.total_at_speed_calls", inline),
        "kernels.total_at_speed_per_fill": ratio(
            count("kernels.total_at_speed_calls", inline), fills
        ),
        "grid.refinements": count("grid.refinements", inline),
        "energy.streaming_cost_s": self_s("energy.streaming_cost", inline),
        "remote.claim_calls": count("remote.claim.calls", parent),
        "remote.claim_s": self_s("remote.claim", parent),
        "remote.done_calls": count("remote.done.calls", parent),
        "remote.done_s": self_s("remote.done", parent),
        "remote.get_many_calls": count("remote.get_many.calls", parent),
        "remote.get_many_s": self_s("remote.get_many", parent),
        "server.requests": count("server.requests", parent),
        "server.batch_requests": count("server.batch_requests", parent),
        "server.deflate_bodies_out": count("server.deflate_bodies_out", parent),
        "server.record_hit_ratio": ratio(count("server.record_hits", parent),
                                         count("server.record_gets", parent)),
        "setup.import_s": phases.get("import", 0.0),
        "setup.fill_s": phases.get("fill", 0.0),
        "setup.instance_s": phases.get("instance", 0.0),
        "trace.overhead_frac": extras["overhead"],
    }


def print_span_table(spans, counters, passes) -> None:
    """Self time and calls per span name, per traced pass, by pass mode."""
    spent, calls, counts = _sums(spans, counters)
    modes = defaultdict(list)
    for entry in passes:
        modes[entry["mode"]].append(entry["pass"])
    mode_of = {entry["pass"]: entry["mode"] for entry in passes}
    durations = defaultdict(list)
    for span in spans:
        durations[(span["name"], mode_of.get(span["pass"]))].append(
            (span["end"] - span["start"]) * 1e3
        )
    for mode, ids in modes.items():
        print(f"  spans, {mode} passes ({len(ids)}), per pass:")
        print(f"    {'span':<24} {'calls':>9} {'self s':>10} {'p50 ms':>9}  tail")
        names = sorted({name for name, p in spent if p in ids},
                       key=lambda n: -sum(spent[(n, p)] for p in ids))
        for name in names:
            n_calls = sum(calls[(name, p)] for p in ids) / len(ids)
            self_s = sum(spent[(name, p)] for p in ids) / len(ids)
            samples = durations[(name, mode)]
            tail = measure.tail_percentile(samples)
            tail_text = (
                f"p{tail[0]:g} {tail[1]:.3f} ms" if tail else "no tail (<10 beyond p90)"
            )
            print(f"    {name:<24} {n_calls:>9.1f} {self_s:>10.5f} "
                  f"{measure.percentile(samples, 50.0):>9.3f}  {tail_text} "
                  f"(n={len(samples)})")
        names = sorted({name for name, p in counts if p in ids})
        if names:
            print(f"  counters, {mode} passes, per pass:")
            for name in names:
                value = sum(counts[(name, p)] for p in ids) / len(ids)
                print(f"    {name:<36} {value:>14.6g}")


if __name__ == "__main__":
    sys.exit(main())
