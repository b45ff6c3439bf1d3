"""The repository benchmark: one command, every workload, golden-checked.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each measured unit runs in a fresh interpreter (``worker.py``), one after
another -- no worker pool -- so every unit starts cold like a user's
``python -m repro``.  Units repeat while the next one still fits in
``--seconds`` (always at least one).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced unit and prints
the per-layer metrics and the tracing overhead.  Host times are reported
in reference seconds: scaled by the host speed measured in the same unit
(``hostspeed.py``), so a slow spell of a shared host does not read as a
regression.  Every simulated point is checked against the committed
golden values in ``golden/``; the last line of stdout is one JSON object,
and the exit code is nonzero when any point failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

#: Settings that would make the benchmark measure something other than
#: the default backend; the benchmark refuses to run under them.
ENV_OVERRIDES = ("REPRO_SIM_MODE", "REPRO_TIME_SKIP")

#: Set-up-only interpreters started per ``--trace 0`` run, besides the
#: measured units, so ``setup_s`` is a median of several cold starts.
SETUP_PROBES = 8

#: Every run ends within this many seconds of starting.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_cycles_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (bad environment, missing
    sources, a worker that crashed or overran)."""


def refuse_overrides(environ=os.environ) -> None:
    """Raise when an environment variable would override the default
    simulation backend."""
    present = [name for name in ENV_OVERRIDES if name in environ]
    if present:
        raise BenchmarkError(
            f"refusing to run with {', '.join(present)} set: the benchmark "
            "measures the default backend; unset it and retry"
        )


def load_json(name: str):
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


def load_golden(workload: str) -> dict:
    return load_json(os.path.join("golden", f"{workload}.json"))


def expected_keys(workload: str, seed: int, golden: dict) -> List[str]:
    """The points one unit of ``workload`` must simulate."""
    if workload == "random-mixed":
        return [
            workloads.random_key(trace_seed, system)
            for trace_seed in workloads.random_trace_seeds(seed)
            for system in workloads.PVA_SYSTEMS
        ]
    return sorted(golden["points"])


def check_unit(doc: dict, golden: dict, keys: Iterable[str]) -> Dict[str, str]:
    """Failed points of one unit, ``key -> reason``.

    A point fails when it raised, when its cycles or device/bus counts
    differ from golden, when its cycle ledger does not sum to its cycles,
    when its cycles beat ``pva_lower_bound``, or when it never ran.
    """
    failed: Dict[str, str] = {}
    for failure in doc["failures"]:
        failed[failure["key"]] = "raised: " + failure["error"].strip().splitlines()[-1]
    seen = set(failed)
    for record in doc["records"]:
        key = record["key"]
        seen.add(key)
        want = golden["points"].get(key)
        if want is None:
            failed[key] = "no golden entry"
        elif record["cycles"] != want[0]:
            failed[key] = f"cycles {record['cycles']} != golden {want[0]}"
        elif record["counts"] != want[1]:
            failed[key] = f"counts {record['counts']} != golden {want[1]}"
        elif not record["ledger_ok"]:
            failed[key] = "cycle ledger does not sum to the cycle count"
        elif record.get("bound_ok") is False:
            failed[key] = "cycles below pva_lower_bound"
    for key in keys:
        if key not in seen:
            failed[key] = "never simulated"
    return failed


class Runner:
    """Starts worker interpreters one at a time under the run's deadline."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )

    def worker(self, mode: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError(f"{self.workload}: out of time before a {mode} unit")
        spawned_at = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [
                    sys.executable,
                    os.path.join(HERE, "worker.py"),
                    "--workload", self.workload,
                    "--seed", str(self.seed),
                    "--mode", mode,
                    "--spawned-at", str(spawned_at),
                ],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{self.workload}: {mode} unit overran the deadline") from None
        if proc.returncode != 0:
            raise BenchmarkError(
                f"{self.workload}: {mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        return json.loads(proc.stdout.splitlines()[-1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(units: List[dict], setups: List[float], failed: int, attempted: int) -> dict:
    """End-to-end metrics of a run's untraced units.  Host times are in
    reference seconds: each unit's are scaled by its ``speed_factor``
    (see ``hostspeed``), set-up times by the units' median factor."""
    samples = [record["ms"] * unit["speed_factor"] for unit in units for record in unit["records"]]
    values = {
        "wall_s": statistics.median([unit["wall_s"] * unit["speed_factor"] for unit in units]),
        "sim_cycles_per_s": statistics.median(
            [
                _ratio(unit["pva"]["cycles"], unit["pva"]["seconds"] * unit["speed_factor"])
                for unit in units
            ]
        ),
        "point_p50_ms": stats.percentile(samples, 50),
        "point_p95_ms": stats.percentile(samples, 95),
        "setup_s": statistics.median(setups) * statistics.median([unit["speed_factor"] for unit in units]),
        "peak_rss_mb": statistics.median([unit["rss_mb"] for unit in units]),
        "ok_frac": 1.0 - failed / attempted,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def per_layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced unit (``per_layer`` in
    BENCHMARK.json), with the tracing overhead against ``untraced``.
    Times are in reference seconds, like the end-to-end ones."""
    layers = traced["layers"]
    spans = layers["spans"]
    pva = traced["pva"]
    engine = traced["engine"] or {}
    factor = traced["speed_factor"]

    def seconds(*keys):
        return sum(spans.get(key, [0, 0])[0] for key in keys) / 1e9 * factor

    def calls(*keys):
        return sum(spans.get(key, [0, 0])[1] for key in keys)

    next_event_keys = [key for key in spans if key.endswith(".next_event_cycle")]
    engine_run_s = seconds("engine.run")
    memo_lookups = layers["memo_hits"] + layers["memo_misses"]
    values = {
        "kernel.run_s": (seconds("kernel.run"), "s"),
        "kernel.self_s": (seconds("kernel.run") - layers["kernel_children_s"] * factor, "s"),
        "kernel.next_event_calls": (calls(*next_event_keys), "count"),
        "bank.tick_s": (seconds("bank.tick"), "s"),
        "bank.tick_calls": (calls("bank.tick"), "count"),
        "bank.account_s": (seconds("bank.account"), "s"),
        "bank.busy_frac": (_ratio(pva.get("bank.busy", 0), pva.get("bank.total", 0)), "ratio"),
        "bank.stalled_frac": (_ratio(pva.get("bank.stalled", 0), pva.get("bank.total", 0)), "ratio"),
        "device.activates": (pva.get("activates", 0), "count"),
        "device.row_reuse_ratio": (_ratio(pva.get("row_reuse", 0), pva.get("columns", 0)), "ratio"),
        "schedule.s": (seconds("schedule.stride", "schedule.pairs"), "s"),
        "schedule.stride_calls": (calls("schedule.stride"), "count"),
        "schedule.pairs_calls": (calls("schedule.pairs"), "count"),
        "schedule.memo_hit_ratio": (_ratio(layers["memo_hits"], memo_lookups), "ratio"),
        "front_end.tick_s": (seconds("front_end.tick"), "s"),
        "front_end.tick_calls": (calls("front_end.tick"), "count"),
        "front_end.stalled_frac": (
            _ratio(pva.get("front-end.stalled", 0), pva.get("front-end.total", 0)), "ratio"
        ),
        "bus.tick_s": (seconds("bus.tick"), "s"),
        "bus.account_s": (seconds("bus.account"), "s"),
        "completion.tick_s": (seconds("completion.tick"), "s"),
        "bus.utilization": (_ratio(pva.get("bus_busy", 0), pva.get("cycles", 0)), "ratio"),
        "engine.overhead_s": (
            engine_run_s - (engine.get("sim_seconds", 0.0) + traced["bookkeeping_s"]) * factor
            if engine_run_s
            else 0.0,
            "s",
        ),
        "engine.coalesced_ratio": (_ratio(engine.get("coalesced", 0), engine.get("points", 0)), "ratio"),
        "kernels.build_trace_s": (seconds("kernels.build_trace"), "s"),
        "kernels.random_trace_s": (seconds("kernels.random_trace"), "s"),
        "memo.schedule_entries": (traced["memo_entries"]["schedule"], "count"),
        "memo.soa_entries": (traced["memo_entries"]["soa"], "count"),
        "memo.pla_entries": (traced["memo_entries"]["pla"], "count"),
        "trace.overhead_ratio": (
            traced["wall_s"] * factor / (untraced["wall_s"] * untraced["speed_factor"]),
            "ratio",
        ),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _print_metrics(metrics: dict) -> None:
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<26} {shown} {metric['unit']}")


def _print_backends(units: List[dict]) -> None:
    merged: Dict[str, Dict[str, int]] = {}
    for unit in units:
        for system, labels in unit["backends"].items():
            for label, count in labels.items():
                merged.setdefault(system, {}).setdefault(label, 0)
                merged[system][label] += count
    for system, labels in sorted(merged.items()):
        stepped = ", ".join(f"{label} ({count} runs)" for label, count in sorted(labels.items()))
        print(f"  backend {system}: {stepped}")


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; print its report and return its result."""
    golden = load_golden(workload)
    keys = expected_keys(workload, seed, golden)
    runner = Runner(root, workload, seed)
    if trace:
        units = [runner.worker("run"), runner.worker("trace")]
    else:
        setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        units = []
        started = time.monotonic()
        while True:
            units.append(runner.worker("run"))
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(units) > seconds:
                break
        setups += [unit["setup_s"] for unit in units]

    unit_failures = [check_unit(unit, golden, keys) for unit in units]
    attempted = len(keys) * len(units)
    failed = sum(len(failures) for failures in unit_failures)

    print(f"[{workload}] seed={seed} points per unit={len(keys)}")
    if trace:
        print("  units: 1 untraced, then 1 traced")
        _print_backends(units[1:])
        metrics = per_layer_metrics(units[1], units[0])
    else:
        _print_backends(units)
        for unit in units:
            print(f"  unit: raw wall {unit['wall_s']:.4f} s, host speed factor "
                  f"{unit['speed_factor']:.4f} from {unit['probe_slices']} reference slices")
        samples = [r["ms"] * unit["speed_factor"] for unit in units for r in unit["records"]]
        top = stats.highest_percentile(len(samples))
        print(f"  {len(samples)} point samples, {len(setups)} set-ups")
        if top is not None:
            print(f"  highest percentile with >={stats.MIN_BEYOND} samples beyond: "
                  f"p{top:g} = {stats.percentile(samples, top):.4f} ms")
        metrics = end_to_end_metrics(units, setups, failed, attempted)
    _print_metrics(metrics)
    for failures in unit_failures:
        for key, reason in sorted(failures.items())[:20]:
            print(f"  FAILED {key}: {reason}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        refuse_overrides()
        if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
            raise BenchmarkError(
                f"no simulator sources under {os.path.join(root, 'src')}; "
                "run from the repository root"
            )
        seed = args.seed if args.seed is not None else load_json("predictions.json")["seeds"]["development"]
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            name: run_workload(root, name, seed, args.seconds, bool(args.trace)) for name in names
        }
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
