"""One cold measurement unit of a workload, in a fresh interpreter.

``run.py`` starts this script once per unit, the way a user's
``python -m repro`` process starts, so memo warmth, set-up time and peak
memory are what a user pays.  It prints one JSON object on stdout:

* ``--mode setup``: imports, configuration, engine construction (and
  trace generation for ``random-mixed``), then ``setup_s`` only;
* ``--mode run``: set-up plus the whole workload, with one record per
  simulated point for the correctness gate;
* ``--mode trace``: as ``run`` with :class:`instrument.Tracer`
  installed, adding per-layer spans and counts.

``--spawned-at`` is the parent's ``time.monotonic_ns()`` just before it
started this interpreter; set-up time runs from there to the moment the
first point is ready to simulate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import astuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402
from instrument import RunObserver, Tracer  # noqa: E402


def _counts(result) -> list:
    """The golden-checked operation counts of a run: every DeviceStats
    field, then every BusStats field."""
    return list(astuple(result.device)) + list(astuple(result.bus))


class _Collector:
    """Checks and tallies each point as it lands, between points, so the
    unit retains no traces or results: a user's grid keeps only cycle
    counts, and a larger heap would slow Python's full garbage
    collections.  ``spent`` is the time taken here, reference slices
    included, which the unit's wall time excludes."""

    def __init__(self, params, probe: SpeedProbe):
        self.params = params
        self.probe = probe
        self.records = []
        self.failures = []
        self.totals = Counter()
        self.spent = 0.0

    def add(self, key, system, trace, result, backend, seconds) -> None:
        from repro.analysis.model import pva_lower_bound

        started = time.perf_counter()
        record = {
            "key": key,
            "system": system,
            "cycles": result.cycles,
            "counts": _counts(result),
            "ledger_ok": result.attribution_consistent(),
            "ms": seconds * 1e3,
            "backend": backend,
        }
        if system in workloads.PVA_SYSTEMS:
            record["bound_ok"] = pva_lower_bound(trace, self.params) <= result.cycles
            self._tally(result, seconds)
        self.records.append(record)
        self.probe.maybe_sample()
        self.spent += time.perf_counter() - started

    def fail(self, key, error: str) -> None:
        self.failures.append({"key": key, "error": error})

    def _tally(self, result, seconds) -> None:
        """Cycle-ledger, device and bus sums over cycle-level PVA runs,
        for the per-layer ratios."""
        totals = self.totals
        totals["cycles"] += result.cycles
        totals["seconds"] += seconds
        for name, entry in result.attribution.items():
            layer = "bank" if name.startswith("bank-") else name
            totals[f"{layer}.busy"] += entry.busy
            totals[f"{layer}.stalled"] += entry.stalled
            totals[f"{layer}.total"] += entry.total
        totals["activates"] += result.device.activates
        totals["columns"] += result.device.columns
        totals["row_reuse"] += result.device.row_reuse
        totals["bus_busy"] += result.bus.busy_cycles


class _GridUnit:
    """A grid workload through ``run_grid`` and a private engine."""

    def __init__(self, workload: str, observer: RunObserver, collector: _Collector):
        from repro.engine import EngineHooks, ExperimentEngine

        self.params = collector.params
        self.systems = workloads.grid_systems(workload)

        def key_of(point) -> str:
            spec = point.trace
            return workloads.grid_key(spec.kernel, spec.stride, spec.alignment, point.system)

        class Recorder(EngineHooks):
            def point_done(self, outcome, metrics):
                if outcome.coalesced or outcome.cached:
                    return
                system, trace, result, backend = observer.captured.pop()
                collector.add(key_of(outcome.point), system, trace, result, backend, outcome.sim_seconds)

            def point_failed(self, failure, metrics):
                collector.fail(key_of(failure.point), failure.describe())

        self.engine = ExperimentEngine(hooks=Recorder(), on_error="collect")

    def run(self) -> None:
        from repro.experiments.grid import run_grid

        run_grid(
            params=self.params,
            elements=workloads.ELEMENTS,
            systems=self.systems,
            engine=self.engine,
        )

    def engine_stats(self) -> dict:
        metrics = self.engine.metrics
        return {
            "points": metrics.points_total,
            "coalesced": metrics.coalesced,
            "sim_seconds": metrics.sim_seconds,
        }


class _RandomUnit:
    """Seeded random command streams through ``repro.api.simulate``."""

    def __init__(self, observer: RunObserver, collector: _Collector, trace_seeds):
        import repro.workloads.random_traces as random_traces

        self.observer = observer
        self.collector = collector
        params = collector.params
        config = workloads.random_config()
        # Looked up on the module at call time so a traced run sees it.
        self.traces = [
            (seed, random_traces.random_trace(seed, params, config)) for seed in trace_seeds
        ]

    def run(self) -> None:
        from repro.api import simulate

        clock = time.perf_counter
        params = self.collector.params
        for seed, trace in self.traces:
            for system in workloads.PVA_SYSTEMS:
                key = workloads.random_key(seed, system)
                started = clock()
                try:
                    result = simulate(trace, params, system=system)
                except Exception:  # a failing point is counted, not fatal
                    self.collector.fail(key, traceback.format_exc())
                    continue
                seconds = clock() - started
                self.collector.add(key, system, trace, result, self.observer.last_backend, seconds)

    def engine_stats(self) -> None:
        return None


def _memo_entries() -> dict:
    from repro.core.pla import shared_k1_pla
    from repro.pva.schedule import schedule_cache_info
    from repro.pva.soa import soa_cache_info

    return {
        "schedule": schedule_cache_info().currsize,
        "soa": soa_cache_info().currsize,
        "pla": shared_k1_pla.cache_info().currsize,
    }


def _tracer_layers(tracer: Tracer, memo_before, memo_after) -> dict:
    spans = {key: list(slot) for key, slot in sorted(tracer.spans.items())}
    return {
        "spans": spans,
        "kernel_children_s": tracer.kernel_children_ns / 1e9,
        "memo_hits": memo_after.hits - memo_before.hits,
        "memo_misses": memo_after.misses - memo_before.misses,
    }


def measure(workload: str, seed: int, mode: str, spawned_at: int, trace_seeds=None) -> dict:
    """Set up and (unless ``mode == "setup"``) run one unit; the worker's
    JSON document."""
    if trace_seeds is None and workload == "random-mixed":
        trace_seeds = workloads.random_trace_seeds(seed)
    observer = RunObserver().install()
    tracer = Tracer().install() if mode == "trace" else None
    probe = SpeedProbe()
    collector = _Collector(workloads.params_for(workload), probe)
    if workload == "random-mixed":
        unit = _RandomUnit(observer, collector, trace_seeds)
    else:
        unit = _GridUnit(workload, observer, collector)
    setup_s = (time.monotonic_ns() - spawned_at) / 1e9
    doc = {"workload": workload, "seed": seed, "mode": mode, "setup_s": setup_s}
    if mode == "setup":
        return doc

    from repro.pva.schedule import schedule_cache_info

    memo_before = schedule_cache_info()
    started = time.perf_counter()
    unit.run()
    doc["wall_s"] = time.perf_counter() - started - collector.spent
    doc["bookkeeping_s"] = collector.spent
    doc["probe_slices"] = len(probe.samples)
    doc["speed_factor"] = probe.factor()
    memo_after = schedule_cache_info()
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = _tracer_layers(tracer, memo_before, memo_after)
    observer.uninstall()
    doc["memo_entries"] = _memo_entries()
    doc["engine"] = unit.engine_stats()
    doc["pva"] = dict(collector.totals)
    doc["records"] = collector.records
    doc["failures"] = collector.failures
    doc["backends"] = {
        system: dict(Counter(r["backend"] for r in doc["records"] if r["system"] == system))
        for system in sorted({r["system"] for r in doc["records"]})
    }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=int, required=True)
    args = parser.parse_args(argv)
    doc = measure(args.workload, args.seed, args.mode, args.spawned_at)
    json.dump(doc, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
