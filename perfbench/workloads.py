"""The benchmark's workloads: what each one simulates and how its points are keyed.

Imported by ``run.py``, which must not import the simulator,
so every ``repro`` import below is local to the function that needs it.

* ``paper-grid``: the section 6.2 grid -- 8 kernels x 6 strides x 5
  alignments x every registered system, 1024 elements, default config --
  through ``run_grid`` with no result cache.
* ``throttled-issue``: the same grid on the two cycle-level systems with
  a finite-rate CPU (``issue_interval=256``).
* ``random-mixed``: seeded ``random_trace`` command streams (50% writes,
  partial lines, strides up to 64, 25% explicit scatter/gather) through
  ``repro.api.simulate`` on the two cycle-level systems.  A run draws
  ``RANDOM_TRACES`` trace seeds out of a committed pool of
  ``RANDOM_POOL``, so every trace any run can meet has a golden entry.
"""

from __future__ import annotations

import random
from typing import List, Tuple

WORKLOADS: Tuple[str, ...] = ("paper-grid", "throttled-issue", "random-mixed")

#: The cycle-level PVA systems: the ones with a kernel loop, a bank
#: automaton and a meaningful ``pva_lower_bound``.
PVA_SYSTEMS: Tuple[str, ...] = ("pva-sdram", "pva-sram")

ELEMENTS = 1024
THROTTLED_ISSUE_INTERVAL = 256

RANDOM_POOL = 1024
RANDOM_TRACES = 320
RANDOM_COMMANDS = 64


def params_for(workload: str):
    """The workload's configuration, built as a ``GenParams`` (never
    naming a ``sim_mode``) and handed to the public entry points as the
    ``SystemParams`` facade they take."""
    from repro.config import GenParams

    if workload == "throttled-issue":
        gen = GenParams(issue_interval=THROTTLED_ISSUE_INTERVAL)
    else:
        gen = GenParams()
    return gen.to_system_params()


def grid_systems(workload: str):
    """Systems a grid workload runs on; None means every registered one."""
    return PVA_SYSTEMS if workload == "throttled-issue" else None


def random_config():
    from repro.workloads.random_traces import RandomTraceConfig

    return RandomTraceConfig(
        commands=RANDOM_COMMANDS,
        write_fraction=0.5,
        max_stride=64,
        explicit_fraction=0.25,
        full_lines=False,
    )


def random_trace_seeds(seed: int) -> List[int]:
    """The pool members a ``random-mixed`` run with ``seed`` simulates."""
    return sorted(random.Random(seed).sample(range(RANDOM_POOL), RANDOM_TRACES))


def grid_key(kernel: str, stride: int, alignment: str, system: str) -> str:
    return f"{kernel}/{stride}/{alignment}/{system}"


def random_key(trace_seed: int, system: str) -> str:
    return f"{trace_seed}/{system}"
