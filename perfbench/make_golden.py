"""Regenerate the benchmark's golden values (``golden/<workload>.json``).

Run from the repository root, at the commit whose results are golden::

    PYTHONPATH=src python3 perfbench/make_golden.py [--commit HASH]

Each file maps every point a workload can simulate to its cycle count and
its device/bus operation counts.  ``random-mixed`` covers the whole trace
pool its runs draw from.  The ``paper-grid`` values are cross-checked
against the min/max columns of ``results/figure7.txt`` and
``results/figure8.txt`` before anything is written, and a point that
raises, breaks its cycle ledger or beats ``pva_lower_bound`` aborts the
regeneration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

FIGURE_FILES = ("figure7.txt", "figure8.txt")

#: Figure columns after kernel and stride: (system, statistic) pairs.
FIGURE_COLUMNS = (
    ("pva-sdram", min),
    ("pva-sdram", max),
    ("pva-sram", min),
    ("pva-sram", max),
    ("cacheline-serial", min),
    ("gathering-serial", min),
)


def count_fields() -> List[str]:
    from repro.sdram.devstats import DeviceStats
    from repro.sim.stats import BusStats

    return [f"device.{f.name}" for f in fields(DeviceStats)] + [
        f"bus.{f.name}" for f in fields(BusStats)
    ]


def figure_mismatches(golden: dict, results_dir: str) -> List[str]:
    """Rows of the committed figure 7/8 tables that disagree with the
    ``paper-grid`` golden cycles."""
    by_cell: Dict[tuple, List[int]] = {}
    for key, (cycles, _counts) in golden["points"].items():
        kernel, stride, _alignment, system = key.split("/")
        by_cell.setdefault((kernel, int(stride), system), []).append(cycles)
    problems = []
    rows = 0
    for name in FIGURE_FILES:
        with open(os.path.join(results_dir, name), encoding="utf-8") as handle:
            lines = handle.read().splitlines()[2:]
        for line in lines:
            cells = line.split()
            kernel, stride = cells[0], int(cells[1])
            rows += 1
            for (system, statistic), text in zip(FIGURE_COLUMNS, cells[2:8]):
                got = statistic(by_cell.get((kernel, stride, system), [-1]))
                if got != int(text):
                    problems.append(f"{name} {kernel} stride {stride} {system}: figure {text}, golden {got}")
    if rows != 48:
        problems.append(f"expected 48 figure rows, read {rows}")
    return problems


def generate(workload: str) -> dict:
    from worker import measure

    trace_seeds = range(workloads.RANDOM_POOL) if workload == "random-mixed" else None
    doc = measure(workload, 0, "run", time.monotonic_ns(), trace_seeds=trace_seeds)
    bad = [f["key"] for f in doc["failures"]] + [
        r["key"] for r in doc["records"] if not r["ledger_ok"] or r.get("bound_ok") is False
    ]
    if bad:
        raise SystemExit(f"{workload}: {len(bad)} bad points, first {bad[:5]}")
    return {
        "workload": workload,
        "counts": count_fields(),
        "points": {r["key"]: [r["cycles"], r["counts"]] for r in sorted(doc["records"], key=lambda r: r["key"])},
    }


def _dumps(golden: dict) -> str:
    """The golden document with one point per line, so diffs stay
    readable."""
    compact = {"separators": (",", ":")}
    head = {k: v for k, v in golden.items() if k != "points"}
    lines = [json.dumps(head, sort_keys=True, **compact)[:-1] + ',"points":{']
    points = sorted(golden["points"].items())
    for index, (key, value) in enumerate(points):
        comma = "," if index + 1 < len(points) else ""
        lines.append(f"{json.dumps(key)}:{json.dumps(value, **compact)}{comma}")
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default="", help="commit the values were generated at")
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS:
        golden = generate(workload)
        golden["generated_at"] = args.commit
        if workload == "paper-grid":
            problems = figure_mismatches(golden, os.path.join("results"))
            if problems:
                raise SystemExit("paper-grid golden disagrees with results/:\n" + "\n".join(problems))
        path = os.path.join(HERE, "golden", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_dumps(golden))
        print(f"{workload}: {len(golden['points'])} points -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
