"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``info``
    Print the prototype configuration.
``run``
    Run one kernel/stride/alignment point on one or more memory systems.
``grid``
    Run any (sub-)grid of the section-6.2 evaluation through the
    parallel experiment engine (``--jobs N``) with optional result
    caching (``--cache DIR``).
``figure``
    Regenerate one of the paper's figures (7, 8, 9, 10, 11).
``ablation``
    Run one of the ablation sweeps (row-policy, vector-contexts, bypass,
    banks).
``complexity``
    Print the Table 1 complexity comparison.
``bench``
    Time the reference tick loop against the event-driven
    cycle-skipping loop on the stride-19 grid slice and write
    ``BENCH_sim.json`` (``--quick`` for the CI smoke workload).
``faults-smoke``
    Prove failure containment end to end: run a pool batch with a
    raising point, a watchdog-tripping cycle burner, and a killed
    worker injected, and verify every healthy point still returns its
    exact cycle count.
``serve``
    Run the simulation service daemon: accept simulate/grid/bench jobs
    over HTTP, journal them to a write-ahead log, and survive
    restarts (``--state-dir`` holds the journal and result cache).
``submit`` / ``status`` / ``cancel``
    Client commands against a running daemon (``--url``).
``service-chaos``
    The service's chaos tier: SIGKILL the daemon mid-batch, corrupt
    its cache, restart it, and verify every job still reaches a
    terminal state with cached points reused.

Engine subcommands (``grid``, ``figure``, ``ablation``, ``all``) accept
``--jobs``/``--cache`` plus the resilience options ``--on-error
raise|collect``, ``--retries N``, and ``--timeout SECONDS``; with
``--on-error collect`` a failing point no longer aborts the batch —
its cells render as ``FAILED`` and the rest of the grid survives.

Examples::

    python -m repro run --kernel copy --stride 19
    python -m repro grid --jobs 4 --cache .engine-cache
    python -m repro grid --jobs 4 --on-error collect --retries 1 --timeout 120
    python -m repro figure 9 --elements 256 --jobs 4
    python -m repro ablation row-policy
    python -m repro faults-smoke
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import available_systems
from repro.engine import EngineHooks, ExperimentEngine
from repro.errors import ConfigurationError
from repro.experiments.ablations import (
    ablate_bank_scaling,
    ablate_bypass_paths,
    ablate_row_policy,
    ablate_vector_contexts,
)
from repro.experiments.complexity import complexity_table
from repro.experiments.figures import FIGURE_GRIDS, run_figure
from repro.experiments.grid import (
    EVAL_KERNELS,
    EVAL_STRIDES,
    run_grid,
    run_point,
)
from repro.experiments.report import format_table
from repro.kernels import ALIGNMENTS, alignment_by_name
from repro.params import SystemParams

__all__ = ["main", "build_parser"]

_ABLATIONS = {
    "row-policy": ablate_row_policy,
    "vector-contexts": ablate_vector_contexts,
    "bypass": ablate_bypass_paths,
    "banks": ablate_bank_scaling,
}


class _MetricsLine(EngineHooks):
    """Prints the engine's throughput/caching summary after each batch
    (to stderr, keeping result tables clean on stdout), plus one line
    per terminally failed point in collect mode."""

    def point_failed(self, failure, metrics):
        print(f"[engine] FAILED {failure.describe()}", file=sys.stderr)

    def batch_complete(self, metrics):
        resilience = ""
        if metrics.failures or metrics.retries or metrics.timeouts:
            resilience = (
                f", {metrics.failures} failed / {metrics.retries} "
                f"retried / {metrics.timeouts} timed out"
            )
        throughput = ""
        if metrics.sim_seconds > 0:
            throughput = (
                f", {metrics.sim_cycles_per_second / 1000.0:.1f}k "
                f"sim-cycles/s"
            )
        print(
            f"[engine] {metrics.points_done} points "
            f"({metrics.simulated} simulated, "
            f"cache hit rate {metrics.cache_hit_rate:.0%}) "
            f"in {metrics.elapsed_seconds:.2f}s — "
            f"{metrics.points_per_second:.1f} points/s, "
            f"{metrics.jobs} job{'s' if metrics.jobs != 1 else ''}"
            f"{throughput}{resilience}{metrics.fallback_note()}",
            file=sys.stderr,
        )
        service_counters = [
            ("rejected", metrics.queue_rejected),
            ("replayed", metrics.journal_replayed),
            ("breaker trips", metrics.breaker_trips),
            ("quarantined", metrics.cache_quarantined),
            ("aborted", metrics.aborted),
        ]
        live = [
            f"{value} {label}"
            for label, value in service_counters
            if value
        ]
        if live:
            print(
                "[engine] service: " + ", ".join(live), file=sys.stderr
            )
        if metrics.component_cycles:
            # Collapse the per-bank components into one aggregate line
            # item; the full per-bank ledger stays in summary() and the
            # bench report.
            collapsed: dict = {}
            for name, buckets in metrics.component_cycles.items():
                label = "banks" if name.startswith("bank-") else name
                entry = collapsed.setdefault(
                    label, {"busy": 0, "stalled": 0, "idle": 0}
                )
                for bucket in entry:
                    entry[bucket] += buckets[bucket]
            parts = []
            for name, buckets in sorted(collapsed.items()):
                total = (
                    buckets["busy"] + buckets["stalled"] + buckets["idle"]
                )
                busy = buckets["busy"] / total if total else 0.0
                parts.append(f"{name} {busy:.0%} busy")
            print(
                "[engine] attribution: " + ", ".join(parts),
                file=sys.stderr,
            )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the experiment engine (default: 1)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="directory for the content-addressed result cache",
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "collect"),
        default="raise",
        help=(
            "collect: record per-point failures and keep the batch "
            "running (failed cells render as FAILED); raise (default): "
            "abort on the first failure"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-attempts per failed point, with exponential backoff",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-point wall-clock budget in worker pools; recovers "
            "hung simulations and killed workers (default: wait forever)"
        ),
    )


def _engine_from(args: argparse.Namespace) -> ExperimentEngine:
    return ExperimentEngine(
        jobs=args.jobs,
        cache_dir=args.cache,
        hooks=_MetricsLine(),
        on_error=args.on_error,
        retry=args.retries,
        timeout=args.timeout,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel Vector Access (PVA) reproduction — run the paper's "
            "experiments from the command line."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the prototype configuration")

    run_parser = sub.add_parser("run", help="run one experiment point")
    run_parser.add_argument(
        "--kernel", default="copy", choices=sorted(EVAL_KERNELS)
    )
    run_parser.add_argument("--stride", type=int, default=1)
    run_parser.add_argument(
        "--alignment",
        default=ALIGNMENTS[0].name,
        choices=[a.name for a in ALIGNMENTS],
    )
    run_parser.add_argument("--elements", type=int, default=1024)
    run_parser.add_argument(
        "--system",
        action="append",
        choices=sorted(available_systems()),
        help="memory system(s) to run (default: all four)",
    )

    grid_parser = sub.add_parser(
        "grid",
        help="run a (sub-)grid of the evaluation through the engine",
    )
    grid_parser.add_argument(
        "--kernel",
        action="append",
        choices=sorted(EVAL_KERNELS),
        help="kernel(s) to run (default: all eight)",
    )
    grid_parser.add_argument(
        "--stride",
        action="append",
        type=int,
        help="stride(s) to run (default: 1 2 4 8 16 19)",
    )
    grid_parser.add_argument(
        "--alignment",
        action="append",
        choices=[a.name for a in ALIGNMENTS],
        help="alignment(s) to run (default: all five)",
    )
    grid_parser.add_argument(
        "--system",
        action="append",
        choices=sorted(available_systems()),
        help="memory system(s) to run (default: all four)",
    )
    grid_parser.add_argument("--elements", type=int, default=1024)
    _add_engine_options(grid_parser)

    figure_parser = sub.add_parser(
        "figure", help="regenerate one of the paper's figures"
    )
    figure_parser.add_argument("number", choices=sorted(FIGURE_GRIDS))
    figure_parser.add_argument("--elements", type=int, default=1024)
    _add_engine_options(figure_parser)

    ablation_parser = sub.add_parser("ablation", help="run an ablation sweep")
    ablation_parser.add_argument("name", choices=sorted(_ABLATIONS))
    _add_engine_options(ablation_parser)

    sub.add_parser(
        "complexity", help="print the Table 1 complexity comparison"
    )

    smoke_parser = sub.add_parser(
        "faults-smoke",
        help=(
            "inject faults (raise, hang, killed worker) into a pool "
            "batch and verify the engine contains all of them"
        ),
    )
    smoke_parser.add_argument("--jobs", type=int, default=2)
    smoke_parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-point budget; bounds how long the killed worker stalls",
    )
    smoke_parser.add_argument("--elements", type=int, default=64)

    bench_parser = sub.add_parser(
        "bench",
        help=(
            "time the reference tick loop against the event-driven "
            "cycle-skipping loop on the stride-19 grid slice"
        ),
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke workload: two kernels, one alignment",
    )
    bench_parser.add_argument("--elements", type=int, default=1024)
    bench_parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="measurements per (system, mode); the best is kept",
    )
    bench_parser.add_argument(
        "--out",
        default="BENCH_sim.json",
        metavar="FILE",
        help="JSON report path ('' to skip writing)",
    )
    bench_parser.add_argument(
        "--system",
        action="append",
        choices=sorted(available_systems()),
        help="memory system(s) to benchmark (default: all four)",
    )
    bench_parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless skip is at least X times faster",
    )
    bench_parser.add_argument(
        "--min-precompute-speedup",
        type=float,
        default=None,
        metavar="X",
        help=(
            "exit non-zero unless the hit-schedule precompute path's "
            "dense-slice tick rate is at least X times the incremental "
            "expansion rate measured in the same run"
        ),
    )
    bench_parser.add_argument(
        "--min-soa-speedup",
        type=float,
        default=None,
        metavar="X",
        help=(
            "exit non-zero unless the structure-of-arrays bank "
            "automaton's dense-slice rate is at least X times the "
            "precompute rate measured in the same run"
        ),
    )
    bench_parser.add_argument(
        "--min-window-speedup",
        type=float,
        default=None,
        metavar="X",
        help=(
            "exit non-zero unless the closed-form window backend's "
            "dense-slice rate is at least X times the SoA rate "
            "measured in the same run"
        ),
    )
    bench_parser.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="FILE",
        help=(
            "append a one-line summary record per published run "
            "('' to skip; only written when --out is non-empty)"
        ),
    )
    bench_parser.add_argument(
        "--profile",
        default="",
        metavar="DIR",
        help=(
            "write per-section cProfile summaries (top 25 by "
            "cumulative time) into DIR"
        ),
    )

    explore_parser = sub.add_parser(
        "explore",
        help=(
            "design-space exploration: sweep GenParams axes, prune with "
            "analytic lower bounds, emit the cycles-vs-complexity "
            "Pareto frontier"
        ),
    )
    explore_parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="JSON sweep spec (axes + workload); overrides axis flags",
    )
    explore_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sweep: 12 banks x contexts x channels points",
    )
    explore_parser.add_argument(
        "--banks", default=None, metavar="LIST",
        help="comma-separated num_banks values, e.g. 4,8,16",
    )
    explore_parser.add_argument(
        "--channels", default=None, metavar="LIST",
        help="comma-separated num_channels values",
    )
    explore_parser.add_argument(
        "--ranks", default=None, metavar="LIST",
        help="comma-separated ranks_per_channel values",
    )
    explore_parser.add_argument(
        "--contexts", default=None, metavar="LIST",
        help="comma-separated num_vector_contexts values",
    )
    explore_parser.add_argument(
        "--fifo", default=None, metavar="LIST",
        help="comma-separated request_fifo_depth values",
    )
    explore_parser.add_argument(
        "--line-words", default=None, metavar="LIST",
        help="comma-separated cache_line_words values",
    )
    explore_parser.add_argument(
        "--row-policy", default=None, metavar="LIST",
        help="comma-separated row policies, e.g. paper,close",
    )
    explore_parser.add_argument(
        "--kernel", default=None, choices=sorted(EVAL_KERNELS)
    )
    explore_parser.add_argument("--stride", type=int, default=None)
    explore_parser.add_argument(
        "--alignment",
        default=None,
        choices=[a.name for a in ALIGNMENTS],
    )
    explore_parser.add_argument("--elements", type=int, default=None)
    explore_parser.add_argument(
        "--system", default=None, choices=["pva-sdram", "pva-sram"]
    )
    explore_parser.add_argument(
        "--prune-slack",
        type=float,
        default=None,
        metavar="X",
        help=(
            "also prune candidates whose bound is within X of the best "
            "simulated cycles (0 = exact, frontier-preserving pruning)"
        ),
    )
    explore_parser.add_argument(
        "--min-prune-fraction",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless pruning skipped at least fraction X",
    )
    explore_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the JSON exploration report here",
    )
    _add_engine_options(explore_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="dense stride sweep on one kernel"
    )
    sweep_parser.add_argument(
        "--kernel", default="scale", choices=sorted(EVAL_KERNELS)
    )
    sweep_parser.add_argument("--max-stride", type=int, default=32)
    sweep_parser.add_argument("--elements", type=int, default=512)

    all_parser = sub.add_parser(
        "all", help="regenerate every experiment artifact into a directory"
    )
    all_parser.add_argument("--out", default="results")
    all_parser.add_argument("--elements", type=int, default=1024)
    _add_engine_options(all_parser)

    serve_parser = sub.add_parser(
        "serve",
        help=(
            "run the simulation service daemon (HTTP job API with a "
            "write-ahead journal and crash recovery)"
        ),
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="listen port (0 picks a free one; see --port-file)",
    )
    serve_parser.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="write the actually-bound port here once listening",
    )
    serve_parser.add_argument(
        "--state-dir",
        default=".repro-service",
        metavar="DIR",
        help="journal + result cache location (survives restarts)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker processes per job's engine pool (default: 2)",
    )
    serve_parser.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="jobs run simultaneously (default: 1)",
    )
    serve_parser.add_argument("--queue-depth", type=int, default=64)
    serve_parser.add_argument("--tenant-quota", type=int, default=8)
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-point wall-clock budget (default: 60)",
    )
    serve_parser.add_argument("--retries", type=int, default=1)
    serve_parser.add_argument(
        "--drain-seconds",
        type=float,
        default=30.0,
        help="graceful-shutdown budget for in-flight jobs",
    )
    serve_parser.add_argument("--breaker-threshold", type=int, default=3)
    serve_parser.add_argument(
        "--breaker-cooldown", type=float, default=30.0
    )
    serve_parser.add_argument(
        "--install-faults",
        default=None,
        metavar="DIR",
        help=(
            "register the fault-* injector systems (chaos testing); "
            "DIR holds their cross-process markers"
        ),
    )

    submit_parser = sub.add_parser(
        "submit", help="submit a job to a running daemon"
    )
    submit_parser.add_argument(
        "kind", choices=("simulate", "grid", "bench")
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8642", help="daemon address"
    )
    submit_parser.add_argument("--tenant", default="default")
    submit_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock deadline once running",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the job reaches a terminal state",
    )
    submit_parser.add_argument(
        "--wait-timeout", type=float, default=600.0, metavar="SECONDS"
    )
    submit_parser.add_argument(
        "--kernel",
        action="append",
        help="kernel(s); simulate uses the first (default: copy)",
    )
    submit_parser.add_argument(
        "--stride",
        action="append",
        type=int,
        help="stride(s); simulate uses the first (default: 1)",
    )
    submit_parser.add_argument(
        "--alignment",
        action="append",
        help="alignment(s); simulate uses the first (default: aligned)",
    )
    submit_parser.add_argument(
        "--system",
        action="append",
        help="memory system(s); simulate uses the first",
    )
    submit_parser.add_argument("--elements", type=int, default=1024)
    submit_parser.add_argument(
        "--quick", action="store_true", help="bench: CI smoke workload"
    )
    submit_parser.add_argument(
        "--repeats", type=int, default=1, help="bench: runs per system"
    )

    status_parser = sub.add_parser(
        "status",
        help="show one job (or all jobs + service metrics) on a daemon",
    )
    status_parser.add_argument("job_id", nargs="?", default=None)
    status_parser.add_argument("--url", default="http://127.0.0.1:8642")

    cancel_parser = sub.add_parser(
        "cancel", help="cancel a queued or running job on a daemon"
    )
    cancel_parser.add_argument("job_id")
    cancel_parser.add_argument("--url", default="http://127.0.0.1:8642")

    chaos_parser = sub.add_parser(
        "service-chaos",
        help=(
            "kill and restart a real daemon mid-batch (plus worker "
            "kills, a hang, and cache corruption) and verify no job "
            "is lost"
        ),
    )
    chaos_parser.add_argument("--elements", type=int, default=64)
    chaos_parser.add_argument("--jobs", type=int, default=2)
    chaos_parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-point budget inside the daemon",
    )
    return parser


def _cmd_info() -> int:
    params = SystemParams()
    rows = list(params.describe().items())
    print(format_table(("parameter", "value"), rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    alignment = alignment_by_name(args.alignment)
    systems = tuple(args.system) if args.system else available_systems()
    try:
        cycles = run_point(
            args.kernel,
            stride=args.stride,
            alignment=alignment,
            elements=args.elements,
            systems=systems,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    baseline = min(cycles.values())
    rows = [
        (name, count, f"{count / baseline:.2f}x")
        for name, count in sorted(cycles.items(), key=lambda kv: kv[1])
    ]
    print(
        f"{args.kernel} stride={args.stride} alignment={args.alignment} "
        f"elements={args.elements}"
    )
    print(format_table(("system", "cycles", "vs best"), rows))
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    kernels = tuple(args.kernel) if args.kernel else EVAL_KERNELS
    strides = tuple(args.stride) if args.stride else EVAL_STRIDES
    alignments = (
        tuple(alignment_by_name(name) for name in args.alignment)
        if args.alignment
        else None
    )
    systems = tuple(args.system) if args.system else available_systems()
    try:
        grid = run_grid(
            kernels=kernels,
            strides=strides,
            alignments=alignments,
            elements=args.elements,
            systems=systems,
            engine=_engine_from(args),
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    headers = ("kernel", "stride", "alignment") + tuple(grid.systems)
    rows = [
        (kernel, stride, alignment)
        + tuple(
            "FAILED" if point[name] is None else point[name]
            for name in grid.systems
        )
        for (kernel, stride, alignment), point in grid.cycles.items()
    ]
    print(format_table(headers, rows))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    fig = run_figure(args.number, args.elements, _engine_from(args))
    print(fig.text)
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    _, text = _ABLATIONS[args.name](engine=_engine_from(args))
    print(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import simulate
    from repro.core.decode import decompose_stride
    from repro.kernels import build_trace, kernel_by_name

    params = SystemParams()
    rows = []
    try:
        for stride in range(1, args.max_stride + 1):
            trace = build_trace(
                kernel_by_name(args.kernel),
                stride=stride,
                params=params,
                elements=args.elements,
            )
            pva = simulate(trace, params, system="pva-sdram").cycles
            serial = simulate(trace, params, system="cacheline-serial").cycles
            rows.append(
                (
                    stride,
                    decompose_stride(stride, params.num_banks).banks_hit,
                    pva,
                    serial,
                    f"{serial / pva:.1f}x",
                )
            )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        format_table(
            ("stride", "banks hit", "pva", "cacheline-serial", "speedup"),
            rows,
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import ServiceConfig, serve

    return serve(
        ServiceConfig(
            host=args.host,
            port=args.port,
            port_file=args.port_file,
            state_dir=args.state_dir,
            engine_jobs=args.jobs,
            concurrency=args.concurrency,
            queue_depth=args.queue_depth,
            tenant_quota=args.tenant_quota,
            point_timeout=args.timeout,
            retries=args.retries,
            drain_seconds=args.drain_seconds,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            install_faults=args.install_faults,
        )
    )


def _submit_payload(args: argparse.Namespace) -> dict:
    kernels = args.kernel or ["copy"]
    strides = args.stride or [1]
    alignments = args.alignment or ["aligned"]
    if args.kind == "simulate":
        return {
            "system": (args.system or ["pva-sdram"])[0],
            "kernel": kernels[0],
            "stride": strides[0],
            "alignment": alignments[0],
            "elements": args.elements,
        }
    if args.kind == "grid":
        return {
            "systems": args.system or ["pva-sdram"],
            "kernels": kernels,
            "strides": strides,
            "alignments": alignments,
            "elements": args.elements,
        }
    return {  # bench
        "quick": args.quick,
        "repeats": args.repeats,
        "elements": args.elements,
        "systems": args.system,
    }


def _print_job(job: dict) -> None:
    import json

    print(json.dumps(job, indent=2, sort_keys=True))


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient
    from repro.service.jobs import JobState

    client = ServiceClient(args.url)
    try:
        job = client.submit(
            args.kind,
            _submit_payload(args),
            tenant=args.tenant,
            deadline_seconds=args.deadline,
        )
        print(
            f"[submit] job {job['id']} ({args.kind}) {job['state']}",
            file=sys.stderr,
        )
        if args.wait:
            job = client.wait(job["id"], timeout=args.wait_timeout)
        _print_job(job)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.wait and job["state"] != JobState.DONE:
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.job_id:
            _print_job(client.status(args.job_id))
            return 0
        jobs = client.jobs()
        metrics = client.metrics()
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [
        (
            job["id"],
            job["spec"]["kind"],
            job["state"],
            f"{job['progress']['points_done']}"
            f"/{job['progress']['points_total']}",
            "yes" if job["recovered"] else "",
        )
        for job in sorted(jobs, key=lambda j: j["submitted_at"])
    ]
    print(
        format_table(("job", "kind", "state", "points", "recovered"), rows)
    )
    engine = metrics["engine"]
    queue = metrics["queue"]
    breaker = metrics["breaker"]
    print(
        f"[service] queue {queue['depth']}/{queue['max_depth']} "
        f"({engine['queue_rejected']} rejected), "
        f"breaker {breaker['state']} "
        f"({engine['breaker_trips']} trips), "
        f"{engine['journal_replayed']} replayed, "
        f"{engine['cache_quarantined']} quarantined, "
        f"{engine['aborted']} aborted",
        file=sys.stderr,
    )
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    try:
        _print_job(ServiceClient(args.url).cancel(args.job_id))
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "grid":
        return _cmd_grid(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "ablation":
        return _cmd_ablation(args)
    if args.command == "complexity":
        print(complexity_table(SystemParams()))
        return 0
    if args.command == "faults-smoke":
        from repro.faults.smoke import run_faults_smoke

        return run_faults_smoke(
            jobs=args.jobs, timeout=args.timeout, elements=args.elements
        )
    if args.command == "bench":
        from repro.bench import main as bench_main

        return bench_main(args)
    if args.command == "explore":
        from repro.explore import main as explore_main

        return explore_main(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "cancel":
        return _cmd_cancel(args)
    if args.command == "service-chaos":
        from repro.service.chaos import run_service_chaos

        return run_service_chaos(
            elements=args.elements,
            engine_jobs=args.jobs,
            point_timeout=args.timeout,
        )
    if args.command == "all":
        from repro.experiments.report_all import generate_all

        engine = _engine_from(args)
        written = generate_all(
            out_dir=args.out,
            elements=args.elements,
            progress=print,
            engine=engine,
        )
        print(f"{len(written)} artifacts in {args.out}/")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
