"""Wall-clock benchmark harness for the simulation core.

``python -m repro bench`` times every registered memory system twice
over the same workload — once with the reference (``sim_mode="tick"``:
the object graph on the cycle-by-cycle loop) and once with the default
fast backend (``sim_mode="soa"``: the structure-of-arrays bank
automaton on the next-event skip loop; the report's ``skip_*`` keys,
kept for metric continuity) — and reports simulated-cycles-per-second
for each plus the fast-vs-reference wall-clock speedup.  The workload
is the stride-19 slice of the section-6.2 evaluation grid (every kernel
x every alignment), the densest bank-conflict case in the paper and the
headline configuration recorded in ``BENCH_sim.json``.  A throttled
scenario (``issue_interval=256``) times the same pair on the two PVA
systems.

Every report carries the resolved canonical config document
(``config``/``config_key``, from :meth:`GenParams.to_dict`) and the
harness verifies each section ran that identical configuration (modulo
the section's declared ``sim_mode``, and ``issue_interval`` for the
throttled scenario) before publishing numbers.

The harness also cross-checks correctness for free: both backends must
report identical total cycle counts and attribution ledgers, or the run
aborts — a benchmark of a wrong simulator is worthless.

Methodology notes:

* traces are built outside the timed region; the timer covers system
  construction plus simulation, the same work either backend does;
* each (system, mode) measurement is repeated ``repeats`` times and the
  **best** wall time is kept (the usual minimum-of-N noise filter);
* the ``REPRO_SIM_MODE`` environment override is suspended for the
  duration so the modes really are what they claim to be;
* every speed gate compares rates measured in the same run, so it
  gates the backends' relative cost rather than runner speed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.api import available_systems, build_system
from repro.errors import ConfigurationError
from repro.experiments.grid import EVAL_KERNELS
from repro.kernels import ALIGNMENTS, build_trace, kernel_by_name
from repro.params import ENV_SIM_MODE, SystemParams

__all__ = [
    "HEADLINE_STRIDE",
    "run_bench",
    "format_bench",
    "history_record",
    "main",
]

#: The grid slice the benchmark times: the paper's worst-case stride.
HEADLINE_STRIDE = 19

#: ``--quick`` workload (CI smoke): two kernels, one alignment.
QUICK_KERNELS = ("copy", "saxpy")


def _assert_same_config(base: SystemParams, params: SystemParams, section: str) -> None:
    """Cross-check: ``params`` must be ``base`` with at most a different
    ``sim_mode`` — every bench section times the same machine."""
    want = base.to_dict()
    got = params.to_dict()
    want.pop("sim_mode")
    got.pop("sim_mode")
    if got != want:
        raise ConfigurationError(
            f"bench section {section!r} ran a different machine config "
            "than the report header — refusing to publish numbers for it"
        )


def _cases(quick: bool):
    kernels = QUICK_KERNELS if quick else EVAL_KERNELS
    alignments = ALIGNMENTS[:1] if quick else ALIGNMENTS
    return [(kernel, alignment) for kernel in kernels for alignment in alignments]


def _profile_section(
    profile_dir: str, section: str, system: str, params: SystemParams, traces: List
) -> None:
    """Write a cProfile top-25-cumulative listing for one extra
    (untimed) pass of a bench section to ``profile_dir``.

    Profiling runs *after* the timed repeats on a separate pass, so the
    published numbers are never measured under instrumentation.
    """
    import cProfile
    import io
    import pstats

    os.makedirs(profile_dir, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    for trace in traces:
        build_system(system, params).run(trace)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(25)
    path = os.path.join(profile_dir, f"{section}-{system}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(stream.getvalue())


def _time_mode(
    system: str,
    params: SystemParams,
    traces: List,
    repeats: int,
    *,
    profile_dir: Optional[str] = None,
    section: str = "",
) -> Dict[str, float]:
    """Run the workload under ``params``; return cycles, best wall time,
    and the summed per-component attribution ledger."""
    cycles = None
    best = None
    attribution: Dict[str, Dict[str, int]] = {}
    for repeat in range(max(1, repeats)):
        total = 0
        started = time.perf_counter()
        results = [build_system(system, params).run(trace) for trace in traces]
        elapsed = time.perf_counter() - started
        for result in results:
            total += result.cycles
            if not result.attribution_consistent():
                raise ConfigurationError(
                    f"{system}: per-component attribution does not sum to "
                    f"the run's cycle count — the kernel ledger is broken"
                )
            if repeat == 0 and result.attribution:
                for name, buckets in result.attribution.items():
                    entry = attribution.setdefault(
                        name, {"busy": 0, "stalled": 0, "idle": 0}
                    )
                    for bucket in entry:
                        entry[bucket] += getattr(buckets, bucket)
        if cycles is None:
            cycles = total
        elif total != cycles:
            raise ConfigurationError(
                f"{system}: nondeterministic cycle count across repeats "
                f"({cycles} vs {total})"
            )
        if best is None or elapsed < best:
            best = elapsed
    if profile_dir:
        _profile_section(profile_dir, section or params.sim_mode, system, params, traces)
    return {"cycles": cycles, "seconds": best, "attribution": attribution}


def run_bench(
    *,
    elements: int = 1024,
    repeats: int = 3,
    quick: bool = False,
    stride: int = HEADLINE_STRIDE,
    systems: Optional[Sequence[str]] = None,
    params: Optional[SystemParams] = None,
    profile: Optional[str] = None,
) -> Dict:
    """Benchmark the reference against the fast backend on the
    stride-``stride`` grid slice.

    Returns the ``BENCH_sim.json`` document: per-system wall seconds,
    simulated cycles and cycles/second for both backends, the summed
    per-component busy/stalled/idle attribution of the workload, plus
    the aggregate slice ("grid") totals and the headline ``speedup``.
    Raises :class:`~repro.errors.ConfigurationError` if the two backends
    disagree on any system's total cycle count or attribution ledger,
    or if any run's ledger fails to sum to its cycle count.
    """
    names = tuple(systems) if systems else available_systems()
    unknown = set(names) - set(available_systems())
    if unknown:
        raise ConfigurationError(f"unknown system(s): {sorted(unknown)}")
    cases = _cases(quick)

    # Suspend the environment override *before* building any params —
    # a forced global mode must not warp the backend pair each section
    # claims to time.
    saved_mode_env = os.environ.pop(ENV_SIM_MODE, None)
    try:
        base = params or SystemParams()
        tick_params = replace(base, sim_mode="tick")
        skip_params = replace(base, sim_mode="soa")
        for section, section_params in (
            ("tick", tick_params),
            ("skip", skip_params),
        ):
            _assert_same_config(base, section_params, section)
        report: Dict = {
            "benchmark": "tick-vs-soa",
            "stride": stride,
            "elements": elements,
            "repeats": max(1, repeats),
            "quick": quick,
            "kernels": sorted({kernel for kernel, _ in cases}),
            "alignments": sorted({alignment.name for _, alignment in cases}),
            "config": base.to_dict(),
            "config_key": base.config_key(),
            "systems": {},
        }

        tick_total = 0.0
        skip_total = 0.0
        for name in names:
            traces = [
                build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    params=base,
                    elements=elements,
                    alignment=alignment,
                )
                for kernel, alignment in cases
            ]
            tick = _time_mode(
                name, tick_params, traces, repeats,
                profile_dir=profile, section="tick",
            )
            skip = _time_mode(
                name, skip_params, traces, repeats,
                profile_dir=profile, section="skip",
            )
            if tick["cycles"] != skip["cycles"]:
                raise ConfigurationError(
                    f"{name}: tick and soa disagree on total cycles "
                    f"({tick['cycles']} vs {skip['cycles']}) — the "
                    "fast backend is broken; refusing to benchmark it"
                )
            if tick["attribution"] != skip["attribution"]:
                raise ConfigurationError(
                    f"{name}: tick and soa disagree on the per-component "
                    "attribution ledger — cycle attribution must be "
                    "independent of the backend"
                )
            tick_total += tick["seconds"]
            skip_total += skip["seconds"]
            report["systems"][name] = {
                "simulated_cycles": tick["cycles"],
                "tick_seconds": round(tick["seconds"], 4),
                "skip_seconds": round(skip["seconds"], 4),
                "tick_cycles_per_second": round(
                    tick["cycles"] / tick["seconds"], 1
                )
                if tick["seconds"] > 0
                else 0.0,
                "skip_cycles_per_second": round(
                    skip["cycles"] / skip["seconds"], 1
                )
                if skip["seconds"] > 0
                else 0.0,
                "speedup": round(tick["seconds"] / skip["seconds"], 3)
                if skip["seconds"] > 0
                else 0.0,
                "attribution": {
                    component: dict(buckets)
                    for component, buckets in sorted(
                        tick["attribution"].items()
                    )
                },
            }
        report["grid"] = {
            "tick_seconds": round(tick_total, 4),
            "skip_seconds": round(skip_total, 4),
        }
        report["speedup"] = (
            round(tick_total / skip_total, 3) if skip_total > 0 else 0.0
        )

        # Throttled scenario: a finite-rate processor (issue_interval)
        # leaves real idle gaps between commands — the regime next-event
        # skipping exists for.  Here tick cost grows with simulated
        # cycles while the fast backend's cost stays proportional to
        # events.
        sparse_interval = 256
        sparse_cases = _cases(True)  # the quick kernels x one alignment
        sparse_tick = 0.0
        sparse_skip = 0.0
        sparse_cycles = 0
        for name in ("pva-sdram", "pva-sram"):
            if name not in names:
                continue
            s_tick_params = replace(tick_params, issue_interval=sparse_interval)
            s_skip_params = replace(skip_params, issue_interval=sparse_interval)
            traces = [
                build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    params=s_tick_params,
                    elements=elements,
                    alignment=alignment,
                )
                for kernel, alignment in sparse_cases
            ]
            tick = _time_mode(
                name, s_tick_params, traces, repeats,
                profile_dir=profile, section="sparse-tick",
            )
            skip = _time_mode(
                name, s_skip_params, traces, repeats,
                profile_dir=profile, section="sparse-skip",
            )
            if tick["cycles"] != skip["cycles"]:
                raise ConfigurationError(
                    f"{name} (issue_interval={sparse_interval}): tick and "
                    f"soa disagree on total cycles ({tick['cycles']} vs "
                    f"{skip['cycles']})"
                )
            if tick["attribution"] != skip["attribution"]:
                raise ConfigurationError(
                    f"{name} (issue_interval={sparse_interval}): tick and "
                    "soa disagree on the per-component attribution ledger"
                )
            sparse_tick += tick["seconds"]
            sparse_skip += skip["seconds"]
            sparse_cycles += tick["cycles"]
        if sparse_skip > 0:
            report["sparse"] = {
                "issue_interval": sparse_interval,
                "simulated_cycles": sparse_cycles,
                "tick_seconds": round(sparse_tick, 4),
                "skip_seconds": round(sparse_skip, 4),
                "speedup": round(sparse_tick / sparse_skip, 3),
            }

        return report
    finally:
        if saved_mode_env is not None:
            os.environ[ENV_SIM_MODE] = saved_mode_env


def format_bench(report: Dict) -> str:
    """Render a benchmark report as the CLI's result table."""
    from repro.experiments.report import format_table

    rows = []
    for name, entry in report["systems"].items():
        rows.append(
            (
                name,
                entry["simulated_cycles"],
                f"{entry['tick_seconds']:.2f}",
                f"{entry['skip_seconds']:.2f}",
                f"{entry['skip_cycles_per_second'] / 1000.0:.0f}k",
                f"{entry['speedup']:.2f}x",
            )
        )
    table = format_table(
        (
            "system",
            "sim cycles",
            "tick s",
            "soa s",
            "soa cyc/s",
            "speedup",
        ),
        rows,
    )
    summary = (
        f"stride-{report['stride']} slice ({report['elements']} elements, "
        f"best of {report['repeats']}): "
        f"tick {report['grid']['tick_seconds']:.2f}s, "
        f"soa {report['grid']['skip_seconds']:.2f}s — "
        f"speedup {report['speedup']:.2f}x"
    )
    sparse = report.get("sparse")
    if sparse:
        summary += (
            f"\nthrottled front end (issue_interval="
            f"{sparse['issue_interval']}): "
            f"tick {sparse['tick_seconds']:.2f}s, "
            f"soa {sparse['skip_seconds']:.2f}s — "
            f"speedup {sparse['speedup']:.2f}x"
        )
    return f"{table}\n{summary}"


def history_record(report: Dict) -> Dict:
    """The one-line ``BENCH_history.jsonl`` record for a bench report:
    the headline rates and speedups, small enough to append forever."""
    record: Dict = {
        "quick": report["quick"],
        "elements": report["elements"],
        "repeats": report["repeats"],
        "stride": report["stride"],
        "config_key": report["config_key"],
        "speedup": report["speedup"],
    }
    dense = report["systems"].get("pva-sdram")
    if dense:
        record["tick_cycles_per_second"] = dense["tick_cycles_per_second"]
        record["skip_cycles_per_second"] = dense["skip_cycles_per_second"]
    return record


def main(args: argparse.Namespace) -> int:
    """``python -m repro bench`` entry point (invoked from the CLI)."""
    try:
        report = run_bench(
            elements=args.elements,
            repeats=args.repeats,
            quick=args.quick,
            systems=tuple(args.system) if args.system else None,
            profile=getattr(args, "profile", None) or None,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_bench(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
        # One appended line per published run; suppressed alongside the
        # report itself (--out '') so test invocations never touch the
        # tracked history, and individually via --history ''.
        history = getattr(args, "history", "BENCH_history.jsonl")
        if history:
            record = history_record(report)
            record["date"] = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            )
            with open(history, "a", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
                handle.write("\n")
            print(f"appended {history}", file=sys.stderr)
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(
            f"error: soa is only {report['speedup']:.3f}x faster than the "
            f"tick reference in the same run; required "
            f"{args.min_speedup:.3f}x",
            file=sys.stderr,
        )
        return 1
    return 0
