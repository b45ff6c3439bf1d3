"""Wall-clock benchmark harness for the simulation core.

``python -m repro bench`` times every registered memory system twice
over the same workload — once with the reference tick loop
(``sim_mode="tick"``) and once with the object backend's fast path
(``sim_mode="precompute"``: the event-driven skip loop plus
broadcast-time hit schedules; the report's ``skip_*`` keys, kept for
metric continuity) — and reports simulated-cycles-per-second for each
mode plus the fast-vs-tick wall-clock speedup.  The workload is the
stride-19 slice of the section-6.2 evaluation grid (every kernel x
every alignment), the densest bank-conflict case in the paper and the
headline configuration tracked in ``BENCH_sim.json``.  The default
backend, ``sim_mode="soa"`` (the structure-of-arrays bank automaton),
and ``sim_mode="window"`` are timed against the same slice in sections
of their own.

Every report carries the resolved canonical config document
(``config``/``config_key``, from :meth:`GenParams.to_dict`) and the
harness verifies each section ran that identical configuration (modulo
the section's declared ``sim_mode``, and ``issue_interval`` for the
sparse scenario) before publishing numbers.

The harness also cross-checks correctness for free: both modes must
report identical total cycle counts, or the run aborts — a benchmark of
a wrong simulator is worthless.

Methodology notes:

* traces are built outside the timed region; the timer covers system
  construction plus simulation, the same work either run loop does;
* each (system, mode) measurement is repeated ``repeats`` times and the
  **best** wall time is kept (the usual minimum-of-N noise filter);
* the ``REPRO_TIME_SKIP`` and ``REPRO_SIM_MODE`` environment overrides
  are suspended for the duration so the modes really are what they
  claim to be.

Two kinds of baseline appear in the report.  *Measured* rates come from
this run, on this machine.  *Recorded* rates are constants frozen into
this module from the ``BENCH_sim.json`` of the run that preceded an
optimization layer — the denominators CI gates hold speedups against.
Both are reported side by side so a stale recorded constant is visible
as a recorded-vs-measured gap instead of silently inflating (or
deflating) ``speedup_vs_baseline`` on faster or slower hardware.
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
from repro.sim.events import ENV_TOGGLE

__all__ = [
    "HEADLINE_STRIDE",
    "run_bench",
    "format_bench",
    "history_record",
    "main",
]

#: The grid slice the benchmark times: the paper's worst-case stride.
HEADLINE_STRIDE = 19

#: pva-sdram dense stride-19 tick rate (cycles/second) recorded in
#: BENCH_sim.json immediately before the hit-schedule precompute layer
#: landed.  Reported next to the measured rate so host drift stays
#: visible; every ``--min-*-speedup`` CI gate holds against rates
#: measured in the same run instead (recorded constants made the gates
#: fail on slower shared runners with nothing actually regressed).
BASELINE_TICK_CYCLES_PER_SECOND = 18099.8

#: pva-sdram dense stride-19 cycles/second recorded in BENCH_sim.json
#: immediately before the structure-of-arrays bank automaton landed —
#: reported for drift visibility, as above.  (ROADMAP.md quotes the
#: same figure as "~38.6k cycles/sec".)
BASELINE_DENSE_CYCLES_PER_SECOND = 38600.0

#: pva-sdram dense stride-19 ``soa_cycles_per_second`` recorded in
#: BENCH_sim.json immediately before the closed-form window backend
#: landed — the recorded denominator the window section reports next to
#: its measured-SoA speedup (the ``--min-window-speedup`` gate holds
#: against the *measured* SoA rate of the same run, so it survives
#: hardware changes; the recorded constant makes drift visible).
BASELINE_SOA_CYCLES_PER_SECOND = 66195.1

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
    """Benchmark tick vs skip on the stride-``stride`` grid slice.

    Returns the ``BENCH_sim.json`` document: per-system wall seconds,
    simulated cycles and cycles/second for both run loops, the summed
    per-component busy/stalled/idle attribution of the workload, plus
    the aggregate slice ("grid") totals and the headline ``speedup``.
    Raises :class:`~repro.errors.ConfigurationError` if the two modes
    disagree on any system's total cycle count or attribution ledger,
    or if any run's ledger fails to sum to its cycle count.
    """
    names = tuple(systems) if systems else available_systems()
    unknown = set(names) - set(available_systems())
    if unknown:
        raise ConfigurationError(f"unknown system(s): {sorted(unknown)}")
    cases = _cases(quick)

    # Suspend the environment overrides *before* building any params —
    # a forced global mode must not warp the backend matrix each
    # section claims to time.
    saved_env = os.environ.pop(ENV_TOGGLE, None)
    saved_mode_env = os.environ.pop(ENV_SIM_MODE, None)
    try:
        base = params or SystemParams()
        tick_params = replace(base, sim_mode="tick")
        skip_params = replace(base, sim_mode="precompute")
        for section, section_params in (
            ("tick", tick_params),
            ("skip", skip_params),
        ):
            _assert_same_config(base, section_params, section)
        report: Dict = {
            "benchmark": "tick-vs-skip",
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
            traces_tick = [
                build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    params=tick_params,
                    elements=elements,
                    alignment=alignment,
                )
                for kernel, alignment in cases
            ]
            traces_skip = [
                build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    params=skip_params,
                    elements=elements,
                    alignment=alignment,
                )
                for kernel, alignment in cases
            ]
            tick = _time_mode(
                name, tick_params, traces_tick, repeats,
                profile_dir=profile, section="tick",
            )
            skip = _time_mode(
                name, skip_params, traces_skip, repeats,
                profile_dir=profile, section="skip",
            )
            if tick["cycles"] != skip["cycles"]:
                raise ConfigurationError(
                    f"{name}: tick and skip disagree on total cycles "
                    f"({tick['cycles']} vs {skip['cycles']}) — the "
                    "time-skip engine is broken; refusing to benchmark it"
                )
            if tick["attribution"] != skip["attribution"]:
                raise ConfigurationError(
                    f"{name}: tick and skip disagree on the per-component "
                    "attribution ledger — cycle attribution must be "
                    "independent of the run-loop mode"
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

        # Secondary scenario: a finite-rate processor (issue_interval)
        # leaves real idle gaps between commands — the regime next-event
        # skipping exists for.  The dense slice above is bus-limited
        # (events on most cycles), so its ratio is Amdahl-capped; here
        # tick cost grows with simulated cycles while skip cost stays
        # proportional to events.
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
                    f"skip disagree on total cycles ({tick['cycles']} vs "
                    f"{skip['cycles']})"
                )
            if tick["attribution"] != skip["attribution"]:
                raise ConfigurationError(
                    f"{name} (issue_interval={sparse_interval}): tick and "
                    "skip disagree on the per-component attribution ledger"
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

        # Tertiary scenario: the broadcast-time hit-schedule precompute
        # (repro.pva.schedule) against the incremental FirstHit/NextHit
        # expansion it replaces — sim_mode="precompute" vs
        # sim_mode="skip", both on the event-driven loop, on the
        # headline pva-sdram system.  The two paths must agree on
        # cycles *and* the attribution ledger — the precompute layer is
        # a pure representation change.
        if "pva-sdram" in names:
            pre_params = replace(base, sim_mode="precompute")
            inc_params = replace(base, sim_mode="skip")
            _assert_same_config(base, pre_params, "precompute")
            _assert_same_config(base, inc_params, "incremental")
            traces = [
                build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    params=pre_params,
                    elements=elements,
                    alignment=alignment,
                )
                for kernel, alignment in cases
            ]
            pre = _time_mode(
                "pva-sdram", pre_params, traces, repeats,
                profile_dir=profile, section="precompute",
            )
            inc = _time_mode(
                "pva-sdram", inc_params, traces, repeats,
                profile_dir=profile, section="incremental",
            )
            if pre["cycles"] != inc["cycles"]:
                raise ConfigurationError(
                    "pva-sdram: precomputed and incremental expansion "
                    f"disagree on total cycles ({pre['cycles']} vs "
                    f"{inc['cycles']}) — the hit-schedule table is broken; "
                    "refusing to benchmark it"
                )
            if pre["attribution"] != inc["attribution"]:
                raise ConfigurationError(
                    "pva-sdram: precomputed and incremental expansion "
                    "disagree on the per-component attribution ledger"
                )
            pre_rate = (
                pre["cycles"] / pre["seconds"] if pre["seconds"] > 0 else 0.0
            )
            report["precompute"] = {
                "system": "pva-sdram",
                "simulated_cycles": pre["cycles"],
                "precompute_seconds": round(pre["seconds"], 4),
                "incremental_seconds": round(inc["seconds"], 4),
                "precompute_cycles_per_second": round(pre_rate, 1),
                "incremental_cycles_per_second": round(
                    inc["cycles"] / inc["seconds"], 1
                )
                if inc["seconds"] > 0
                else 0.0,
                "speedup": round(inc["seconds"] / pre["seconds"], 3)
                if pre["seconds"] > 0
                else 0.0,
                # Recorded vs measured baseline, side by side: the
                # recorded constant (the pre-precompute-era tick rate)
                # keeps host drift visible across runs; the CI gate
                # (``--min-precompute-speedup``) holds against the
                # same-run ``speedup`` instead, so it gates the
                # algorithmic win rather than runner speed.
                "baseline_tick_cycles_per_second": (
                    BASELINE_TICK_CYCLES_PER_SECOND
                ),
                "measured_incremental_cycles_per_second": round(
                    inc["cycles"] / inc["seconds"], 1
                )
                if inc["seconds"] > 0
                else 0.0,
                "speedup_vs_baseline": round(
                    pre_rate / BASELINE_TICK_CYCLES_PER_SECOND, 3
                ),
            }

        # Quaternary scenario: the structure-of-arrays bank automaton
        # (sim_mode="soa") against the same dense slice.  The main
        # section's pva-sdram entry already cross-checked tick against
        # skip; here the SoA run must reproduce the *tick* loop's cycle
        # count and per-component attribution ledger exactly — three
        # backends, one answer.
        if "pva-sdram" in names:
            soa_params = replace(base, sim_mode="soa")
            _assert_same_config(base, soa_params, "soa")
            traces = [
                build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    params=soa_params,
                    elements=elements,
                    alignment=alignment,
                )
                for kernel, alignment in cases
            ]
            soa = _time_mode(
                "pva-sdram", soa_params, traces, repeats,
                profile_dir=profile, section="soa",
            )
            dense = report["systems"]["pva-sdram"]
            if soa["cycles"] != dense["simulated_cycles"]:
                raise ConfigurationError(
                    "pva-sdram: sim_mode='soa' disagrees with the tick "
                    f"loop on total cycles ({soa['cycles']} vs "
                    f"{dense['simulated_cycles']}) — the bank automaton "
                    "is broken; refusing to benchmark it"
                )
            if soa["attribution"] != dense["attribution"]:
                raise ConfigurationError(
                    "pva-sdram: sim_mode='soa' disagrees with the tick "
                    "loop on the per-component attribution ledger"
                )
            soa_rate = (
                soa["cycles"] / soa["seconds"] if soa["seconds"] > 0 else 0.0
            )
            measured_pre = dense["skip_cycles_per_second"]
            report["soa"] = {
                "system": "pva-sdram",
                "simulated_cycles": soa["cycles"],
                "soa_seconds": round(soa["seconds"], 4),
                "soa_cycles_per_second": round(soa_rate, 1),
                # Recorded vs measured baseline, as in the precompute
                # section: the recorded dense rate keeps host drift
                # visible; the CI gate (``--min-soa-speedup``) holds
                # against the measured precompute rate of the same run
                # (the dense slice's skip timing).
                "baseline_recorded_cycles_per_second": (
                    BASELINE_DENSE_CYCLES_PER_SECOND
                ),
                "baseline_measured_cycles_per_second": measured_pre,
                "speedup_vs_recorded_baseline": round(
                    soa_rate / BASELINE_DENSE_CYCLES_PER_SECOND, 3
                ),
                "speedup_vs_measured_precompute": round(
                    soa_rate / measured_pre, 3
                )
                if measured_pre > 0
                else 0.0,
                "attribution": {
                    component: dict(buckets)
                    for component, buckets in sorted(
                        soa["attribution"].items()
                    )
                },
            }

        # Quinary scenario: the closed-form window backend
        # (sim_mode="window") against the same dense slice.  Like the
        # SoA section it must reproduce the tick loop's cycle count and
        # attribution ledger exactly; its headline figure is the
        # speedup over the *measured* SoA rate of this very run (the
        # backend it replaces at the top of the ladder), with the
        # recorded pre-window SoA rate published beside it.
        if "pva-sdram" in names and "soa" in report:
            window_params = replace(base, sim_mode="window")
            _assert_same_config(base, window_params, "window")
            traces = [
                build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    params=window_params,
                    elements=elements,
                    alignment=alignment,
                )
                for kernel, alignment in cases
            ]
            window = _time_mode(
                "pva-sdram", window_params, traces, repeats,
                profile_dir=profile, section="window",
            )
            dense = report["systems"]["pva-sdram"]
            if window["cycles"] != dense["simulated_cycles"]:
                raise ConfigurationError(
                    "pva-sdram: sim_mode='window' disagrees with the tick "
                    f"loop on total cycles ({window['cycles']} vs "
                    f"{dense['simulated_cycles']}) — the closed-form "
                    "resolution is broken; refusing to benchmark it"
                )
            if window["attribution"] != dense["attribution"]:
                raise ConfigurationError(
                    "pva-sdram: sim_mode='window' disagrees with the tick "
                    "loop on the per-component attribution ledger"
                )
            window_rate = (
                window["cycles"] / window["seconds"]
                if window["seconds"] > 0
                else 0.0
            )
            measured_soa = report["soa"]["soa_cycles_per_second"]
            report["window"] = {
                "system": "pva-sdram",
                "simulated_cycles": window["cycles"],
                "window_seconds": round(window["seconds"], 4),
                "window_cycles_per_second": round(window_rate, 1),
                # Recorded vs measured, as in the other sections: the
                # recorded constant is the pre-window SoA rate frozen
                # from BENCH_sim.json; the measured denominator is the
                # SoA backend timed moments ago in this same run, which
                # is what the CI gate holds the speedup against.
                "baseline_recorded_soa_cycles_per_second": (
                    BASELINE_SOA_CYCLES_PER_SECOND
                ),
                "baseline_measured_soa_cycles_per_second": measured_soa,
                "speedup_vs_recorded_soa": round(
                    window_rate / BASELINE_SOA_CYCLES_PER_SECOND, 3
                ),
                "speedup_vs_measured_soa": round(
                    window_rate / measured_soa, 3
                )
                if measured_soa > 0
                else 0.0,
                "attribution": {
                    component: dict(buckets)
                    for component, buckets in sorted(
                        window["attribution"].items()
                    )
                },
            }
        return report
    finally:
        if saved_env is not None:
            os.environ[ENV_TOGGLE] = saved_env
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
            "skip s",
            "skip cyc/s",
            "speedup",
        ),
        rows,
    )
    summary = (
        f"stride-{report['stride']} slice ({report['elements']} elements, "
        f"best of {report['repeats']}): "
        f"tick {report['grid']['tick_seconds']:.2f}s, "
        f"skip {report['grid']['skip_seconds']:.2f}s — "
        f"speedup {report['speedup']:.2f}x"
    )
    sparse = report.get("sparse")
    if sparse:
        summary += (
            f"\nthrottled front end (issue_interval="
            f"{sparse['issue_interval']}): "
            f"tick {sparse['tick_seconds']:.2f}s, "
            f"skip {sparse['skip_seconds']:.2f}s — "
            f"speedup {sparse['speedup']:.2f}x"
        )
    pre = report.get("precompute")
    if pre:
        summary += (
            f"\nhit-schedule precompute ({pre['system']}, skip loop): "
            f"precomputed {pre['precompute_seconds']:.2f}s "
            f"({pre['precompute_cycles_per_second'] / 1000.0:.0f}k cyc/s), "
            f"incremental {pre['incremental_seconds']:.2f}s — "
            f"speedup {pre['speedup']:.2f}x vs incremental, "
            f"{pre['speedup_vs_baseline']:.2f}x vs recorded tick baseline "
            f"({pre['baseline_tick_cycles_per_second'] / 1000.0:.1f}k "
            f"recorded, "
            f"{pre['measured_incremental_cycles_per_second'] / 1000.0:.1f}k "
            f"measured incremental)"
        )
    soa = report.get("soa")
    if soa:
        summary += (
            f"\nSoA bank automaton ({soa['system']}): "
            f"{soa['soa_seconds']:.2f}s "
            f"({soa['soa_cycles_per_second'] / 1000.0:.0f}k cyc/s) — "
            f"{soa['speedup_vs_recorded_baseline']:.2f}x vs recorded "
            f"baseline "
            f"({soa['baseline_recorded_cycles_per_second'] / 1000.0:.1f}k "
            f"recorded, "
            f"{soa['baseline_measured_cycles_per_second'] / 1000.0:.1f}k "
            f"measured precompute), "
            f"{soa['speedup_vs_measured_precompute']:.2f}x vs measured "
            f"precompute"
        )
    window = report.get("window")
    if window:
        summary += (
            f"\nclosed-form window backend ({window['system']}): "
            f"{window['window_seconds']:.2f}s "
            f"({window['window_cycles_per_second'] / 1000.0:.0f}k cyc/s) — "
            f"{window['speedup_vs_measured_soa']:.2f}x vs measured SoA "
            f"({window['baseline_measured_soa_cycles_per_second'] / 1000.0:.1f}k"
            f" measured, "
            f"{window['baseline_recorded_soa_cycles_per_second'] / 1000.0:.1f}k"
            f" recorded), "
            f"{window['speedup_vs_recorded_soa']:.2f}x vs recorded SoA"
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
    pre = report.get("precompute")
    if pre:
        record["precompute_cycles_per_second"] = pre[
            "precompute_cycles_per_second"
        ]
    soa = report.get("soa")
    if soa:
        record["soa_cycles_per_second"] = soa["soa_cycles_per_second"]
    window = report.get("window")
    if window:
        record["window_cycles_per_second"] = window[
            "window_cycles_per_second"
        ]
        record["window_speedup_vs_measured_soa"] = window[
            "speedup_vs_measured_soa"
        ]
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
            f"error: speedup {report['speedup']:.3f}x below required "
            f"{args.min_speedup:.3f}x",
            file=sys.stderr,
        )
        return 1
    min_pre = getattr(args, "min_precompute_speedup", None)
    if min_pre is not None:
        pre = report.get("precompute")
        if pre is None:
            print(
                "error: --min-precompute-speedup given but the workload "
                "did not include the pva-sdram precompute section",
                file=sys.stderr,
            )
            return 1
        if pre["speedup"] < min_pre:
            print(
                f"error: precompute tick rate "
                f"{pre['precompute_cycles_per_second']:.0f} cyc/s is only "
                f"{pre['speedup']:.3f}x the incremental rate measured in "
                f"the same run; required {min_pre:.3f}x",
                file=sys.stderr,
            )
            return 1
    min_soa = getattr(args, "min_soa_speedup", None)
    if min_soa is not None:
        soa = report.get("soa")
        if soa is None:
            print(
                "error: --min-soa-speedup given but the workload did not "
                "include the pva-sdram SoA section",
                file=sys.stderr,
            )
            return 1
        if soa["speedup_vs_measured_precompute"] < min_soa:
            print(
                f"error: SoA rate {soa['soa_cycles_per_second']:.0f} cyc/s "
                f"is only {soa['speedup_vs_measured_precompute']:.3f}x the "
                f"precompute rate measured in the same run; required "
                f"{min_soa:.3f}x",
                file=sys.stderr,
            )
            return 1
    min_window = getattr(args, "min_window_speedup", None)
    if min_window is not None:
        window = report.get("window")
        if window is None:
            print(
                "error: --min-window-speedup given but the workload did "
                "not include the pva-sdram window section",
                file=sys.stderr,
            )
            return 1
        if window["speedup_vs_measured_soa"] < min_window:
            print(
                f"error: window rate "
                f"{window['window_cycles_per_second']:.0f} cyc/s is only "
                f"{window['speedup_vs_measured_soa']:.3f}x the measured "
                f"SoA rate in the same run; required {min_window:.3f}x",
                file=sys.stderr,
            )
            return 1
    return 0
