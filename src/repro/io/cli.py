"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``generate``
    Produce an instance from a named workload family and write it as JSON.
``run``
    Run any registered algorithm on an instance file; print the summary
    and optionally save the schedule.
``compare``
    Run several algorithms on the same instance and print a cost table.
``certify``
    Run PD and print the full Theorem 3 audit report.
``figures``
    Regenerate the paper's Figure 2 / Figure 3 renderings.
``discrete``
    Run PD on a finite speed menu and report the emulation overhead.
``profit``
    Profit accounting of a PD run (the Pruhs–Stein objective), with
    optional resource augmentation.
``adversary``
    Hill-climb for hard instances and report the hardest certified ratio.
``sweep``
    Declarative parameter sweep on the experiment engine: an
    (alpha × m × value-multiplier) grid over one workload family — or a
    *workload axis* (repeatable ``--workload`` specs like
    ``heavy-tail?n=64&alpha=3.0``) — for any set of registered
    algorithms, including parameterized variant specs (``pd?delta=0.05``)
    and declarative variant axes (``--variant delta=0.01,0.05``).
    Optionally parallel (``--workers``), cached (``--cache`` +
    ``--cache-backend {dir,sqlite,http}``; ``http`` talks to a
    ``cache-serve`` process at ``--cache-url``), streamed
    (``--progress`` prints a completion-order ticker to stderr), and
    split across machines (``--shard i/k`` to compute one deterministic
    round-robin slice —
    ``--shard-strategy steal`` claims cells dynamically from the cache
    server's shared claim table instead —
    ``--merge shard0.json shard1.json ...`` to recombine slices into
    the exact unsharded result).
``cache-serve``
    Serve a local cache backend (and the work-stealing claim table)
    over HTTP for a fleet of sweep workers.
``cache``
    Cache maintenance: ``stats`` (backend, entries, bytes — any
    backend, including a remote server) and ``gc --older-than`` (prune
    old entries and stale temp files).
``bench``
    Run named perf scenarios (``pd-scaling``, ``oa-scaling``,
    ``yds-scaling``, ``cache-micro``, ...) and write
    machine-readable ``BENCH_<scenario>.json`` series; ``--baseline
    DIR`` gates on >``--factor``× per-point regressions against the
    committed baselines (machine-calibrated).

The CLI is a thin shell over the library: every subcommand body is a few
calls into the public API, which keeps it honest as documentation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Callable, Sequence

from ..analysis.report import audit_run
from ..core.pd import run_pd
from ..engine.registry import REGISTRY
from ..engine.runner import DEFAULT_LEASE_TTL
from ..errors import InvalidParameterError, ReproError
from ..model.job import Instance
from ..workloads.registry import WORKLOADS
from .serialize import (
    instance_from_dict,
    instance_to_dict,
    load_json,
    save_json,
    schedule_to_dict,
    stable_hash,
)

__all__ = ["main", "build_parser"]


def _cache_backends() -> list[str]:
    """The ``--cache-backend`` choices: every backend but ``memory``,
    whose store would die with the invocation (``cache-serve --backend
    memory`` keeps it)."""
    from ..engine.cache import BACKENDS

    return sorted(set(BACKENDS) - {"memory"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Profitable scheduling on multiple speed-scalable processors "
            "(Kling & Pietrzyk, SPAA 2013) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a workload instance")
    gen.add_argument("family", choices=WORKLOADS.names())
    gen.add_argument("output", help="output JSON path")
    gen.add_argument("-n", type=int, default=20, help="number of jobs")
    gen.add_argument("-m", type=int, default=1, help="processors")
    gen.add_argument("--alpha", type=float, default=3.0)
    gen.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="run one algorithm on an instance file")
    run.add_argument(
        "algorithm",
        metavar="algorithm",
        help=(
            "registry name or variant spec (e.g. pd?delta=0.05); "
            f"names: {', '.join(REGISTRY.names())}"
        ),
    )
    run.add_argument("instance", help="instance JSON path")
    run.add_argument(
        "--save-schedule",
        help=(
            "write the schedule JSON here; it holds the run's results, "
            "not the jobs, so it pairs with the instance file"
        ),
    )
    run.add_argument("--gantt", action="store_true", help="print a Gantt chart")

    cmp_ = sub.add_parser("compare", help="run several algorithms side by side")
    cmp_.add_argument("instance", help="instance JSON path")
    cmp_.add_argument(
        "--algorithms",
        default="pd,cll,oa",
        help="comma-separated registry names (default: pd,cll,oa)",
    )

    cert = sub.add_parser("certify", help="run PD and print the audit report")
    cert.add_argument("instance", help="instance JSON path")
    cert.add_argument("--delta", type=float, default=None)

    sub.add_parser("figures", help="regenerate the paper's Figures 2 and 3")

    disc = sub.add_parser(
        "discrete", help="run PD on a finite speed menu (SpeedStep-style)"
    )
    disc.add_argument("instance", help="instance JSON path")
    disc.add_argument(
        "--levels", type=int, default=8, help="number of geometric speed levels"
    )
    disc.add_argument(
        "--cap",
        type=float,
        default=None,
        help="explicit top speed (default: cover the continuous run)",
    )

    prof = sub.add_parser(
        "profit", help="profit accounting (Pruhs-Stein objective) of a PD run"
    )
    prof.add_argument("instance", help="instance JSON path")
    prof.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="speed augmentation (0 = plain PD)",
    )

    adv = sub.add_parser(
        "adversary", help="hill-climb for instances maximizing PD's ratio"
    )
    adv.add_argument("instance", help="seed instance JSON path")
    adv.add_argument("--rounds", type=int, default=100)
    adv.add_argument("--seed", type=int, default=0)
    adv.add_argument("--save", help="write the hardest instance JSON here")

    swp = sub.add_parser(
        "sweep", help="parameter-grid sweep on the experiment engine"
    )
    swp.add_argument(
        "family",
        nargs="?",
        default=None,
        help=(
            "workload family name or parameterized spec (e.g. "
            f"heavy-tail?pareto_shape=2.0); families: "
            f"{', '.join(WORKLOADS.names())}. Omit when sweeping a "
            "--workload axis or merging shards"
        ),
    )
    swp.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "workload-axis entry (repeatable): a registry spec like "
            "heavy-tail?n=64&alpha=3.0, swept alongside the other "
            "entries; replaces the positional family"
        ),
    )
    swp.add_argument(
        "--algorithms",
        default="pd",
        help="comma-separated registry names (default: pd)",
    )
    swp.add_argument(
        "--alphas",
        default=None,
        help="comma-separated alpha grid (default: 3.0)",
    )
    swp.add_argument(
        "--ms",
        default=None,
        help="comma-separated processor counts (default: 1)",
    )
    swp.add_argument(
        "--value-x",
        default=None,
        help="comma-separated value multipliers (extra grid axis)",
    )
    swp.add_argument("-n", type=int, default=20, help="jobs per instance")
    swp.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    swp.add_argument(
        "--variant",
        action="append",
        default=None,
        metavar="KEY=V1,V2,...",
        help=(
            "algorithm-parameter axis applied to every algorithm as a "
            "variant spec (repeatable; e.g. --variant delta=0.01,0.05)"
        ),
    )
    swp.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = serial)"
    )
    swp.add_argument(
        "--cache",
        default=None,
        help="content-addressed result-cache path (directory or sqlite file)",
    )
    swp.add_argument(
        "--cache-backend",
        choices=_cache_backends(),
        default="dir",
        help=(
            "cache backend for --cache (default: dir); http talks to a "
            "cache-serve process at --cache-url"
        ),
    )
    swp.add_argument(
        "--cache-url",
        default=None,
        metavar="URL",
        help=(
            "base URL of a `repro cache-serve` process (for "
            "--cache-backend http, and the claim table of "
            "--shard-strategy steal)"
        ),
    )
    swp.add_argument(
        "--shard",
        default=None,
        metavar="I/K",
        help=(
            "compute only the deterministic shard I of K (0-based) and "
            "write its records to --json for a later --merge"
        ),
    )
    swp.add_argument(
        "--shard-strategy",
        choices=["rr", "steal"],
        default="rr",
        help=(
            "how --shard splits the grid: positional round-robin (rr, "
            "default; shard I owns positions I, I+K, I+2K, ...), or "
            "dynamic work stealing (steal; each worker claims cells from "
            "the cache server's shared claim table at --cache-url, so the "
            "shard index only labels the worker)"
        ),
    )
    swp.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "claim-lease TTL for --shard-strategy steal (default "
            f"{DEFAULT_LEASE_TTL:g}): a claimed cell whose completion is "
            "not reported within this many seconds is reissued to another "
            "worker (crash recovery; all cooperating workers must use the "
            "same value). A worker that finds no unclaimed cell waits for "
            "its peers' live leases instead of exiting. Pick a TTL "
            "comfortably above the most expensive cell"
        ),
    )
    swp.add_argument(
        "--claim-batch",
        type=int,
        default=None,
        metavar="N",
        help=(
            "positions leased per claim round trip for --shard-strategy "
            "steal (the server's claim_next?k=N). Default: --workers for "
            "pooled runs, 1 for serial. Larger batches amortize claim "
            "latency against a remote table at the cost of coarser "
            "stealing"
        ),
    )
    swp.add_argument(
        "--claim-session",
        default="",
        metavar="LABEL",
        help=(
            "label folded into the steal claim-table id (all cooperating "
            "workers must pass the same one); use a fresh label to re-run "
            "a sweep whose previous claim table the server still holds"
        ),
    )
    swp.add_argument(
        "--progress",
        action="store_true",
        help="print a completion-order progress ticker to stderr",
    )
    swp.add_argument(
        "--merge",
        nargs="+",
        default=None,
        metavar="SHARD.json",
        help=(
            "merge shard record files (one per shard, any order) into "
            "the full sweep instead of computing anything"
        ),
    )
    swp.add_argument(
        "--json", dest="json_out", default=None, help="also write cells as JSON"
    )

    srv = sub.add_parser(
        "cache-serve",
        help="serve a result cache (and the steal claim table) over HTTP",
    )
    srv.add_argument("path", help="cache path (directory or sqlite file)")
    srv.add_argument(
        "--backend",
        choices=["dir", "memory", "sqlite"],
        default="dir",
        help="local backend to serve (default: dir; memory ignores path)",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    srv.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )

    bch = sub.add_parser(
        "bench",
        help="run named perf scenarios and write BENCH_<scenario>.json",
    )
    bch.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "scenario to run (repeatable; default: all). Known names "
            "come from repro.perf.bench.SCENARIOS — see --list"
        ),
    )
    bch.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="print every scenario with its full and smoke grids, then exit",
    )
    bch.add_argument(
        "--grid",
        choices=["full", "smoke"],
        default="full",
        help="point grid: full (tracked) or smoke (reduced, for CI)",
    )
    bch.add_argument(
        "--out",
        default=os.path.join("benchmarks", "results"),
        help="directory for BENCH_<scenario>.json (default: benchmarks/results)",
    )
    bch.add_argument(
        "--baseline",
        default=None,
        metavar="DIR",
        help=(
            "baseline directory to compare against (exit 1 on any point "
            "slower than --factor x its baseline, machine-calibrated, "
            "whose cost differs from its baseline by more than 1e-9 "
            "relative, or that matches no baseline row)"
        ),
    )
    bch.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="regression gate multiplier (default: 2.0)",
    )
    bch.add_argument(
        "--update-baseline",
        default=None,
        metavar="DIR",
        help="also write the fresh results into this baseline directory",
    )
    bch.add_argument(
        "--profile",
        action="store_true",
        help=(
            "additionally run each point once under cProfile and write "
            "the top-25 cumulative-time tables to a .profile.txt "
            "sibling of the BENCH json (timed measurements stay "
            "unprofiled)"
        ),
    )

    lnt = sub.add_parser(
        "lint",
        help="AST-based invariant checker (RPR determinism/lock/parity codes)",
    )
    lnt.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files or directories to check (default: src)",
    )
    lnt.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="CODES",
        help=(
            "only report these codes (comma-separated, prefix match: "
            "RPR2 selects the whole lock-coverage family; repeatable)"
        ),
    )
    lnt.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="lint_format",
        help="output format (default: text)",
    )
    lnt.add_argument(
        "--list-codes",
        action="store_true",
        help="print every RPR code with its description, then exit",
    )

    cch = sub.add_parser("cache", help="inspect and maintain result caches")
    cch_sub = cch.add_subparsers(dest="cache_command", required=True)
    for name, blurb in (
        ("stats", "backend, entry count, total bytes"),
        ("gc", "prune entries older than --older-than (plus stale temp files)"),
    ):
        ccmd = cch_sub.add_parser(name, help=blurb)
        ccmd.add_argument(
            "--cache",
            default=None,
            help="cache path (directory or sqlite file)",
        )
        ccmd.add_argument(
            "--cache-backend",
            choices=_cache_backends(),
            default="dir",
            help="backend at --cache (default: dir)",
        )
        ccmd.add_argument(
            "--cache-url",
            default=None,
            metavar="URL",
            help="a cache-serve URL (for --cache-backend http)",
        )
        if name == "gc":
            ccmd.add_argument(
                "--older-than",
                required=True,
                metavar="AGE",
                help=(
                    "prune entries older than this: seconds, or a number "
                    "with an s/m/h/d/w suffix (e.g. 30d)"
                ),
            )
    return parser


def _load_instance(path: str) -> Instance:
    payload = load_json(path)
    try:
        return instance_from_dict(payload)
    except ReproError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from None


def _cmd_generate(args: argparse.Namespace) -> int:
    inst = WORKLOADS.info(args.family).generator(
        args.n, m=args.m, alpha=args.alpha, seed=args.seed
    )
    save_json(instance_to_dict(inst), args.output)
    print(f"wrote {inst.n} jobs (m={inst.m}, alpha={inst.alpha}) to {args.output}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    outcome = REGISTRY.run(args.algorithm, inst)
    print(outcome.schedule.summary())
    if args.save_schedule:
        save_json(schedule_to_dict(outcome.schedule), args.save_schedule)
        print(f"schedule written to {args.save_schedule}")
    if args.gantt:
        from ..viz import gantt

        print(gantt(outcome.schedule))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    names = [s.strip() for s in args.algorithms.split(",") if s.strip()]
    print(f"{'algorithm':<12} {'cost':>12} {'energy':>12} {'lost value':>12} {'accepted':>9}")
    print("-" * 62)
    for name in names:
        try:
            outcome = REGISTRY.run(name, inst)
        except ReproError as exc:
            print(f"{name:<12} (skipped: {exc})")
            continue
        sched = outcome.schedule
        acc = int(sched.finished.sum())
        print(
            f"{name:<12} {sched.cost:>12.4f} {sched.energy:>12.4f} "
            f"{sched.lost_value:>12.4f} {acc:>5d}/{inst.n}"
        )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    result = run_pd(inst, delta=args.delta)
    report = audit_run(result)
    print(report.text)
    return 0 if report.ok else 1


def _cmd_figures(_: argparse.Namespace) -> int:
    from ..model.power import PolynomialPower
    from ..chen import schedule_interval
    from ..viz import interval_gantt, speed_profile
    from ..classical.oa import run_oa

    power = PolynomialPower(3.0)
    print("Figure 2a — before the new job:")
    before = schedule_interval([3.0, 1.2, 1.0, 0.8], m=4, start=0.0, end=1.0, power=power)
    print(interval_gantt([before], width=56, m=4))
    print("\nFigure 2b — after a new job of size 1.5:")
    after = schedule_interval(
        [3.0, 1.2, 1.0, 0.8, 1.5], m=4, start=0.0, end=1.0, power=power
    )
    print(interval_gantt([after], width=56, m=4))

    inst = Instance.classical([(0.0, 3.0, 1.5), (1.0, 2.0, 1.2)], m=1, alpha=3.0)
    print("\nFigure 3a — PD:")
    print(speed_profile(run_pd(inst).schedule, width=56, height=6))
    print("\nFigure 3b — OA:")
    print(speed_profile(run_oa(inst).schedule, width=56, height=6))
    return 0


def _cmd_discrete(args: argparse.Namespace) -> int:
    from ..discrete import (
        SpeedSet,
        menu_covering_schedule,
        run_pd_discrete,
        worst_overhead_factor,
    )

    inst = _load_instance(args.instance)
    continuous = run_pd(inst)
    if args.cap is not None:
        menu = SpeedSet.geometric(
            0.02 * args.cap, args.cap, args.levels
        ) if args.levels > 1 else SpeedSet([args.cap])
    else:
        menu = menu_covering_schedule(continuous, args.levels)
    result = run_pd_discrete(inst, menu)
    print(result.summary())
    bound = worst_overhead_factor(menu, inst.alpha)
    print(f"  analytic envelope bound on the overhead: x{bound:.4f}")
    return 0


def _cmd_profit(args: argparse.Namespace) -> int:
    from ..profit import profit_of_result, run_pd_augmented

    inst = _load_instance(args.instance)
    if args.epsilon == 0.0:
        result = run_pd(inst)
        print(result.schedule.summary())
        print(f"  {profit_of_result(result)}")
    else:
        augmented = run_pd_augmented(inst, args.epsilon)
        print(augmented.summary())
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    from ..analysis.adversary import search_adversarial

    seed_inst = _load_instance(args.instance)
    out = search_adversarial([seed_inst], rounds=args.rounds, rng=args.seed)
    print(
        f"hardest certified ratio: {out.ratio:.4f} of bound {out.bound:.4f} "
        f"({100 * out.ratio / out.bound:.1f}%), {out.evaluations} evaluations"
    )
    print(f"hardest instance: {out.instance.n} jobs")
    if args.save:
        save_json(instance_to_dict(out.instance), args.save)
        print(f"written to {args.save}")
    return 0


def _number(text: str):
    """Parse a variant-axis value: int if it looks like one, else float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _csv(text: str, cast: Callable, option: str) -> list:
    """The items of a comma-separated option value, each cast; an item
    the cast refuses is an error naming the option and the item."""
    items = []
    for item in (part.strip() for part in text.split(",")):
        if not item:
            continue
        try:
            items.append(cast(item))
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise InvalidParameterError(f"{option}: {item!r} is not {kind}") from None
    return items


def _parse_shard(text: str) -> tuple[int, int]:
    index, sep, count = text.partition("/")
    try:
        if not sep:
            raise ValueError
        return int(index), int(count)
    except ValueError:
        raise InvalidParameterError(
            f"--shard expects I/K (e.g. 0/2), got {text!r}"
        ) from None


#: Age-suffix multipliers ``cache gc --older-than`` understands.
_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def _parse_age(text: str) -> float:
    """``"90"`` → 90 s; ``"30d"`` → 30 days of seconds."""
    cleaned = text.strip().lower()
    multiplier = 1.0
    if cleaned and cleaned[-1] in _AGE_UNITS:
        multiplier = _AGE_UNITS[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = float(cleaned)
    except ValueError:
        value = -1.0
    # Non-finite values must not slip through: NaN is incomparable (so
    # `< 0` alone would admit it) and a NaN cutoff makes the sqlite
    # backend's "created_at IS NULL" clause prune every legacy entry.
    if not math.isfinite(value) or value < 0.0:
        raise InvalidParameterError(
            f"--older-than expects seconds or <number><s|m|h|d|w>, "
            f"got {text!r}"
        )
    return value * multiplier


def _open_cli_cache(
    cache: str | None,
    backend: str,
    url: str | None,
    *,
    allow_bare_url: bool = False,
):
    """Open the cache a subcommand asked for, or ``None`` for no cache.

    ``--cache-backend http`` is the server alone (``--cache-url``);
    ``allow_bare_url`` lets a local-backend invocation carry a
    ``--cache-url`` anyway (the steal strategy needs the server for its
    claim table even when results cache elsewhere).
    """
    from ..engine.cache import open_cache

    if backend == "http":
        if url is None:
            raise InvalidParameterError(
                "--cache-backend http needs --cache-url URL "
                "(a running `repro cache-serve` process)"
            )
        if cache is not None:
            raise InvalidParameterError(
                "--cache-backend http stores nothing locally; drop --cache"
            )
        return open_cache(url, "http")
    if url is not None and not allow_bare_url:
        raise InvalidParameterError(
            "--cache-url only applies to --cache-backend http (or to "
            "--shard-strategy steal, whose claim table lives on the "
            "server)"
        )
    if cache is None:
        return None
    return open_cache(cache, backend)


def _format_stats(stats: dict) -> list[str]:
    """Human-readable lines for a backend-stats dict."""
    location = stats.get("location") or stats.get("url")
    lines = [
        f"backend        : {stats.get('backend', '?')}"
        + (f" ({location})" if location else "")
    ]
    if stats.get("entries") is not None:
        lines.append(f"entries        : {stats['entries']}")
    if stats.get("total_bytes") is not None:
        lines.append(f"total bytes    : {stats['total_bytes']}")
    if stats.get("claim_tables"):
        lines.append(f"claim tables   : {stats['claim_tables']}")
    return lines


def _cmd_cache_serve(args: argparse.Namespace) -> int:
    from ..engine.cache import open_cache
    from .server import CacheServer

    # The backend closes on every way out, a server that refuses to
    # start included.
    with open_cache(args.path, args.backend) as cache:
        server = CacheServer(
            cache,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
        )
        host, port = server.address
        print(
            f"serving {args.backend} cache {args.path} at "
            f"http://{host}:{port} (ctrl-c to stop)",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from ..perf.bench import (
        SCENARIOS,
        compare_to_baseline,
        load_result,
        run_scenario,
        write_result,
    )

    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            print(f"{name}: {scenario.summary}")
            for grid in ("full", "smoke"):
                points = scenario.points(grid)
                rendered = ", ".join(
                    "{" + ", ".join(f"{k}={v}" for k, v in p.items()) + "}"
                    for p in points
                )
                print(f"  {grid} ({len(points)} points): {rendered}")
        return 0

    names = args.scenario or sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise InvalidParameterError(
            f"unknown scenario(s) {unknown}; "
            f"available: {', '.join(sorted(SCENARIOS))}"
        )
    if args.update_baseline and args.grid != "full":
        # A smoke series replacing a committed full-grid baseline would
        # silently shrink the set of gated points — the tripwire would
        # still "pass" while watching a fraction of the grid.
        raise InvalidParameterError(
            "--update-baseline requires --grid full: baselines must "
            "cover every tracked point, not the reduced smoke grid"
        )
    regressions: list[str] = []
    payloads: list[dict] = []
    for name in names:
        payload = run_scenario(
            name,
            grid=args.grid,
            progress=lambda line: print(line, file=sys.stderr),
            profile=args.profile,
        )
        # Profile tables live next to the BENCH json, not inside it —
        # the committed series (and baselines) stay measurement-only.
        profiles = payload.pop("profiles", None)
        payloads.append(payload)
        path = write_result(payload, args.out)
        print(f"{name}: {len(payload['series'])} points -> {path}")
        if profiles:
            profile_path = path[: -len(".json")] + ".profile.txt"
            with open(profile_path, "w") as fh:
                for entry in profiles:
                    fh.write(f"=== {name} {entry['point']} ===\n")
                    fh.write(entry["table"])
                    fh.write("\n")
            print(f"{name}: {len(profiles)} profiles -> {profile_path}")
        if args.baseline:
            base_path = os.path.join(args.baseline, f"BENCH_{name}.json")
            if os.path.exists(base_path):
                regressions.extend(
                    compare_to_baseline(
                        payload, load_result(base_path), factor=args.factor
                    )
                )
            else:
                print(
                    f"(no baseline for {name} at {base_path}; skipping gate)",
                    file=sys.stderr,
                )
    if regressions:
        print("PERF REGRESSIONS:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        if args.update_baseline:
            print(
                "(baselines NOT updated: fix or accept the regression "
                "by re-running without --baseline)",
                file=sys.stderr,
            )
        return 1
    # Baselines are refreshed only after the gate (if any) passed, so a
    # regressed run can never quietly become the new normal.
    for payload in payloads:
        if args.update_baseline:
            write_result(payload, args.update_baseline)
    if args.baseline:
        print(f"baseline gate passed (factor {args.factor:g}x)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from ..analysis.static import format_findings, known_codes, run_lint

    if args.list_codes:
        for code, description in known_codes().items():
            print(f"{code}  {description}")
        return 0
    select = None
    if args.select:
        select = [
            code.strip()
            for chunk in args.select
            for code in chunk.split(",")
            if code.strip()
        ]
    findings = run_lint(args.paths or ["src"], select=select)
    print(format_findings(findings, args.lint_format))
    return 1 if findings else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.cache is None and args.cache_url is None:
        raise InvalidParameterError(
            "give --cache PATH (a local cache) or --cache-backend http "
            "--cache-url URL (a cache server)"
        )
    if args.cache is not None and not os.path.exists(args.cache):
        # Opening would silently create an empty store, and stats/gc on
        # a cache born this very invocation could only mislead (a
        # typo'd path would report "0 entries" for a populated cache).
        raise InvalidParameterError(
            f"no cache at {args.cache!r} — maintenance commands do not "
            "create stores; check the path"
        )
    cache = _open_cli_cache(args.cache, args.cache_backend, args.cache_url)
    try:
        if args.cache_command == "stats":
            for line in _format_stats(cache.stats()):
                print(line)
            return 0
        removed = cache.gc(_parse_age(args.older_than))
        print(f"pruned {removed} entries older than {args.older_than}")
        return 0
    finally:
        cache.close()


def _variant_axes(specs: Sequence[str] | None) -> dict[str, list]:
    axes: dict[str, list] = {}
    for spec in specs or ():
        key, sep, values = spec.partition("=")
        if not sep or not key or not values:
            raise InvalidParameterError(
                f"--variant expects KEY=V1,V2,..., got {spec!r}"
            )
        axes[key.strip()] = _csv(values, _number, f"--variant {spec!r}")
    return axes


def _cells_payload(experiment: str, cells) -> dict:
    """The sweep's machine-readable form — shared by the direct and the
    merged paths so a merged sharded sweep is byte-identical to an
    unsharded one."""
    return {
        "schema": 1,
        "kind": "sweep",
        "experiment": experiment,
        "cells": [
            {
                "algorithm": c.algorithm,
                "params": c.params,
                "mean_cost": c.mean_cost,
                "mean_energy": c.mean_energy,
                "mean_acceptance": c.mean_acceptance,
                # strict-JSON friendly: no NaN literals in the output
                "worst_certified_ratio": (
                    None
                    if math.isnan(c.worst_certified_ratio)
                    else c.worst_certified_ratio
                ),
                "runs": c.runs,
            }
            for c in cells
        ],
    }


def _print_cells(experiment: str, cells) -> None:
    if experiment:
        print(experiment)
    for c in cells:
        params = {"algorithm": c.algorithm, **c.params}
        keys = " ".join(f"{k}={v!r}" for k, v in params.items())
        print(
            f"{keys:<32} cost={c.mean_cost:>12.4f} "
            f"worst_ratio={c.worst_certified_ratio:>8.3f} "
            f"acc={100 * c.mean_acceptance:>5.1f}%"
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The fields ``--merge`` reads from every shard file, each with what it
#: must hold.
_SHARD_FIELDS = {
    "shard": (
        "an [index, count] pair with 0 <= index < count",
        lambda v: isinstance(v, list)
        and len(v) == 2
        and all(map(_is_int, v))
        and 0 <= v[0] < v[1],
    ),
    "total": ("an int >= 0", lambda v: _is_int(v) and v >= 0),
    "positions": (
        "a list of ints",
        lambda v: isinstance(v, list) and all(map(_is_int, v)),
    ),
    "records": (
        "a list of record objects",
        lambda v: isinstance(v, list) and all(isinstance(r, dict) for r in v),
    ),
}


def _merge_shard_files(paths: Sequence[str]):
    """Load shard record files and recombine them in request order.

    Every shard file carries the grid's ``total`` and the request
    ``positions`` its records belong to, so the grid is rebuilt
    position by position whatever strategy cut it. A file missing one
    of :data:`_SHARD_FIELDS`, or holding it with the wrong type, is
    refused naming the file and the field; files that disagree on the
    experiment, the shard count, the strategy, the grid size or (for
    steal shards) the claim session are refused too.
    """
    from ..engine import record_from_payload, record_to_payload

    shards: dict[int, tuple[list[int], list]] = {}
    agreed: dict[str, Any] = {}
    for path in paths:
        payload = load_json(path)
        if payload.get("kind") != "sweep-shard":
            raise InvalidParameterError(
                f"{path} is not a sweep shard file (kind="
                f"{payload.get('kind')!r}); produce one with --shard I/K"
            )
        for name, (expected, valid) in _SHARD_FIELDS.items():
            if not valid(payload.get(name)):
                problem = (
                    f"must be {expected}" if name in payload else "is missing"
                )
                raise InvalidParameterError(
                    f"shard file {path}: field {name!r} {problem}"
                )
        index, count = payload["shard"]
        header = {
            "experiment": payload.get("experiment"),
            "shard count": count,
            "strategy": payload.get("strategy"),
            "grid size": payload["total"],
        }
        for name, value in header.items():
            first = agreed.setdefault(name, value)
            if value != first:
                raise InvalidParameterError(
                    f"shard files disagree on the {name} ({first!r} in "
                    f"{paths[0]}, {value!r} in {path}); merge shards of one "
                    "sweep only"
                )
        # Every worker of one steal session stamps its server-minted
        # token; static shards need none, their positions suffice.
        session = payload.get("assignment")
        if header["strategy"] == "steal" and (
            agreed.setdefault("session", session) != session
        ):
            raise InvalidParameterError(
                "shard files come from different claim sessions (the cache "
                "server restarted between steal workers?); re-run the "
                "workers against one server lifetime"
            )
        if index in shards:
            raise InvalidParameterError(f"shard {index} given twice")
        positions, records = payload["positions"], payload["records"]
        if len(positions) != len(records):
            raise InvalidParameterError(
                f"shard {index} lists {len(positions)} positions for "
                f"{len(records)} records"
            )
        try:
            shards[index] = (positions, [record_from_payload(r) for r in records])
        except InvalidParameterError as exc:
            raise InvalidParameterError(
                f"shard file {path}: field 'records' holds a bad record ({exc})"
            ) from None
    count = agreed["shard count"]
    missing = sorted(set(range(count)) - set(shards))
    if missing:
        raise InvalidParameterError(
            f"missing shard file(s) for index(es) {missing} of {count}"
        )

    def dedup_form(record) -> str:
        """Identity of a record minus per-worker bookkeeping.

        ``cached`` reflects each worker's own cache state and
        ``wall_time`` is a machine measurement; two workers that both
        computed one cell (a lease reissued mid-compute) must compare
        equal on everything else.
        """
        payload = record_to_payload(record)
        payload.pop("cached")
        payload.pop("wall_time")
        return stable_hash(payload)

    # Lease reissue makes steal claiming at-least-once: a
    # slower-than-its-lease worker and the reissue's recipient can both
    # legitimately record one cell. Keep the lowest shard's copy after
    # checking the duplicates agree; for static strategies a duplicate
    # still means broken shard files and fails loudly.
    allow_duplicates = agreed["strategy"] == "steal"
    # The declared grid size, not the record count, bounds the grid:
    # with dynamic (steal) shards, a worker that claimed cells and died
    # leaves a hole that only the declared total can expose — if the
    # lost cells are the last positions of the grid, the surviving
    # records still form a dense prefix.
    total = agreed["grid size"]
    chosen: dict[int, object] = {}
    duplicates = 0
    for index in sorted(shards):
        for position, record in zip(*shards[index]):
            if not 0 <= position < total:
                raise InvalidParameterError(
                    f"shard position lists do not partition the request "
                    f"list (bad position {position!r})"
                )
            kept = chosen.get(position)
            if kept is None:
                chosen[position] = record
                continue
            if not allow_duplicates:
                raise InvalidParameterError(
                    f"shard position lists do not partition the request "
                    f"list (duplicate position {position})"
                )
            if dedup_form(kept) != dedup_form(record):
                raise InvalidParameterError(
                    f"two workers recorded different results for grid "
                    f"position {position} — the claim session is "
                    "corrupt (mixed request lists?); re-run against a "
                    "fresh claim session"
                )
            duplicates += 1
    if duplicates:
        print(
            f"(dropped {duplicates} duplicate record(s) from reissued "
            "claim leases; kept the lowest shard's copy)",
            file=sys.stderr,
        )
    missing = total - len(chosen)
    if missing:
        raise InvalidParameterError(
            f"shard files cover {total - missing} of {total} grid "
            f"positions — {missing} cell(s) were claimed but never "
            "computed (a worker died mid-run?); re-run the missing "
            "worker(s) against a fresh claim session (cached cells "
            "stream back instantly)"
        )
    return agreed["experiment"], [chosen[position] for position in range(total)]


def _progress_printer(args: argparse.Namespace):
    """The ``--progress`` ticker: one stderr line per completed record.

    Completion order, not request order — that is the point: the
    runner's streaming core reports cells the moment they land, so a
    long sweep shows life (and per-cell cost) immediately.
    """
    if not args.progress:
        return None

    def progress(record, done: int, total: int) -> None:
        note = (
            " (cached)" if record.cached else f" {record.wall_time:.3f}s"
        )
        print(
            f"[{done}/{total}] {record.algorithm}{note}", file=sys.stderr
        )

    return progress


def _cmd_sweep(args: argparse.Namespace) -> int:
    from ..engine import (
        BatchRunner,
        ExperimentSpec,
        aggregate_records,
        record_to_payload,
    )

    if args.shard and args.merge:
        raise InvalidParameterError(
            "--shard computes a slice, --merge recombines slices; "
            "use one per invocation"
        )

    if args.merge:
        experiment, records = _merge_shard_files(args.merge)
        cells = aggregate_records(records)
        _print_cells(experiment, cells)
        print(f"(merged {len(args.merge)} shards, {len(records)} records)")
        if args.json_out:
            save_json(_cells_payload(experiment, cells), args.json_out)
            print(f"cells written to {args.json_out}")
        return 0

    if (args.family is None) == (not args.workload):
        raise InvalidParameterError(
            "specify a positional workload family or --workload SPEC "
            "entries (one source, not both)"
        )

    # alpha/m become grid axes by default on the plain positional-family
    # path (the historical grid), but only when asked for explicitly if
    # the workload itself may pin them — a --workload axis entry or a
    # parameterized positional spec (`heavy-tail?alpha=2.5`): a silent
    # default axis would clash with the pin. An *explicit* --alphas/--ms
    # against a pinned knob still fails loudly, as it should.
    pinned: set[str] = set()
    if args.family and "?" in args.family:
        from ..workloads.registry import WORKLOADS

        pinned = set(WORKLOADS.info(args.family).params)
    grid: dict[str, list] = {}
    if args.alphas is not None or (not args.workload and "alpha" not in pinned):
        grid["alpha"] = _csv(args.alphas or "3.0", float, "--alphas")
    if args.ms is not None or (not args.workload and "m" not in pinned):
        grid["m"] = _csv(args.ms or "1", int, "--ms")
    if args.value_x:
        grid["value_x"] = _csv(args.value_x, float, "--value-x")
    common = dict(
        grid=grid,
        algorithms=tuple(_csv(args.algorithms, str, "--algorithms")),
        variants=_variant_axes(args.variant),
        n=args.n,
        seeds=tuple(_csv(args.seeds, int, "--seeds")),
        skip_incapable=True,
    )
    if args.workload:
        from ..workloads.registry import WORKLOADS

        # Label the sweep with *canonical* spec names so every spelling
        # of the same workload axis writes byte-identical cells JSON.
        canonical = [WORKLOADS.info(entry).name for entry in args.workload]
        spec = ExperimentSpec(
            name=f"sweep:{','.join(canonical)}",
            workloads=tuple(args.workload),
            **common,
        )
    else:
        spec = ExperimentSpec(
            name=f"sweep:{args.family}", family=args.family, **common
        )
    if args.lease_ttl is not None and args.shard_strategy != "steal":
        raise InvalidParameterError(
            "--lease-ttl only applies to --shard-strategy steal (claim "
            "leases live on the server's claim table)"
        )
    if args.claim_batch is not None and args.shard_strategy != "steal":
        raise InvalidParameterError(
            "--claim-batch only applies to --shard-strategy steal "
            "(static shards have no claim round trips to batch)"
        )
    if args.shard_strategy == "steal":
        if args.cache_url is None:
            raise InvalidParameterError(
                "--shard-strategy steal needs --cache-url: the shared "
                "claim table lives on the cache server"
            )
        if not args.shard:
            raise InvalidParameterError(
                "--shard-strategy steal needs --shard I/K — each worker "
                "invocation is one of the K cooperating shard files"
            )
    cache = _open_cli_cache(
        args.cache,
        args.cache_backend,
        args.cache_url,
        allow_bare_url=args.shard_strategy == "steal",
    )
    runner = BatchRunner(
        workers=args.workers, cache=cache, claim_batch=args.claim_batch
    )
    progress = _progress_printer(args)

    try:
        if args.shard:
            if not args.json_out:
                raise InvalidParameterError(
                    "--shard needs --json FILE to store the shard's records "
                    "for the --merge step"
                )
            index, count = _parse_shard(args.shard)
            if count < 1 or not 0 <= index < count:
                raise InvalidParameterError(
                    f"--shard index must satisfy 0 <= I < K, got {args.shard!r}"
                )
            requests = spec.requests()
            if args.shard_strategy == "steal":
                from ..engine.remote import HttpClaimTable

                # The claim id is the experiment fingerprint: workers
                # that compiled different request lists land on
                # different tables (or are rejected on a total
                # mismatch) instead of interleaving mismatched grids.
                # Claim tables live for the server's lifetime, so
                # re-running a finished sweep against the same server
                # needs a fresh --claim-session label (the drained
                # table would otherwise hand every worker nothing and
                # the merge would fail loudly).
                claim_id = spec.fingerprint(requests)
                if args.claim_session:
                    claim_id = f"{claim_id}-{args.claim_session}"
                claims = HttpClaimTable(
                    args.cache_url,
                    claim_id,
                    len(requests),
                    lease_ttl=(
                        DEFAULT_LEASE_TTL
                        if args.lease_ttl is None
                        else args.lease_ttl
                    ),
                )
                try:
                    pairs = runner.run_stolen(
                        requests, claims, on_record=progress
                    )
                finally:
                    claims.close()
                positions = [position for position, _ in pairs]
                records = [record for _, record in pairs]
                # Every worker of one claim session stamps the same
                # server-minted token, so --merge recognizes
                # dynamically-claimed shards as one run.
                token = claims.token
            else:
                positions = list(range(index, len(requests), count))
                records = runner.run(
                    [requests[p] for p in positions], on_record=progress
                )
                token = None
            save_json(
                {
                    "schema": 1,
                    "kind": "sweep-shard",
                    "experiment": spec.name,
                    "shard": [index, count],
                    "strategy": args.shard_strategy,
                    "assignment": token,
                    # The full grid size: --merge validates the shards'
                    # positions partition 0..total-1 exactly, so cells a
                    # crashed steal worker claimed but never computed
                    # are detected even when they sit at the very end
                    # of the grid (a record-count sum could not see
                    # such a tail hole).
                    "total": len(requests),
                    "positions": positions,
                    "records": [record_to_payload(r) for r in records],
                },
                args.json_out,
            )
            print(
                f"shard {index}/{count} ({args.shard_strategy}): "
                f"{len(records)} records written to "
                f"{args.json_out} ({runner.stats.computed} computed, "
                f"{runner.stats.cache_hits} from cache)"
            )
            return 0

        cells = aggregate_records(runner.run(spec.requests(), on_record=progress))
        _print_cells(spec.name, cells)
        stats = runner.stats
        note = (
            f", {stats.deduplicated} deduplicated" if stats.deduplicated else ""
        )
        print(
            f"({stats.computed} cells computed, "
            f"{stats.cache_hits} served from cache{note})"
        )
        if args.json_out:
            save_json(_cells_payload(spec.name, cells), args.json_out)
            print(f"cells written to {args.json_out}")
        return 0
    finally:
        # Release the backend promptly (checkpoints sqlite's WAL sidecar
        # files) instead of leaving the connection to the GC.
        if cache is not None:
            cache.close()


_DISPATCH = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "certify": _cmd_certify,
    "figures": _cmd_figures,
    "discrete": _cmd_discrete,
    "profit": _cmd_profit,
    "adversary": _cmd_adversary,
    "sweep": _cmd_sweep,
    "cache-serve": _cmd_cache_serve,
    "cache": _cmd_cache,
    "bench": _cmd_bench,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
