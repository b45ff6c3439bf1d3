"""Run results and statistics.

Every memory system in the library — the PVA unit, the PVA-SRAM variant
and the two serial baselines — reports the same :class:`RunResult`, so the
experiment harness can compare them uniformly.  ``cycles`` is the paper's
figure of merit: memory-bus clock cycles from the first command issue to
the completion of the last transaction, under the "infinitely fast CPU"
assumption of section 6.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sdram.devstats import DeviceStats

__all__ = [
    "FALLBACK_PREFIX",
    "BusStats",
    "ComponentCycles",
    "RunResult",
    "WorkCounters",
]

#: :attr:`RunResult.backend` prefix of a run that requested the fast
#: backend but fell back to the reference object backend (on the tick
#: loop); the reason follows it.
FALLBACK_PREFIX = "object: "


@dataclass
class ComponentCycles:
    """Where one clocked component spent the run, cycle by cycle.

    Every simulated cycle of a run is attributed to exactly one of the
    three buckets, per component, by the simulation kernel
    (:class:`repro.sim.kernel.SimKernel`):

    * **busy** — the component changed observable state this cycle
      (issued an operation, moved data, retired a transaction);
    * **stalled** — it had pending work but could not act (waiting on a
      restimer, the bus, or another component);
    * **idle** — it had nothing to do.

    The invariant ``busy + stalled + idle == RunResult.cycles`` holds for
    every registered component; the bench harness cross-checks it.
    """

    busy: int = 0
    stalled: int = 0
    idle: int = 0

    @property
    def total(self) -> int:
        return self.busy + self.stalled + self.idle

    def as_dict(self) -> Dict[str, int]:
        return {"busy": self.busy, "stalled": self.stalled, "idle": self.idle}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "ComponentCycles":
        return cls(
            busy=int(data.get("busy", 0)),
            stalled=int(data.get("stalled", 0)),
            idle=int(data.get("idle", 0)),
        )


@dataclass(frozen=True)
class WorkCounters:
    """How much stepping one run took, in counts that do not depend on
    the host (so tests can pin them exactly where timings are noise).

    * **visits** — cycles the kernel loop visited;
    * **dispatches** — component ``tick`` calls it made;
    * **skipped** — cycles it jumped over (``visits + skipped`` is the
      loop's exit cycle);
    * **probes** — candidate cycles the bank automaton examined
      (0 when the reference object backend stepped the banks).
    """

    visits: int = 0
    dispatches: int = 0
    skipped: int = 0
    probes: int = 0


@dataclass
class BusStats:
    """Occupancy of the shared vector bus."""

    request_cycles: int = 0
    data_cycles: int = 0
    turnaround_cycles: int = 0

    @property
    def busy_cycles(self) -> int:
        return self.request_cycles + self.data_cycles + self.turnaround_cycles

    def utilization(self, total_cycles: int) -> float:
        """Fraction of cycles the bus carried requests or data."""
        if total_cycles <= 0:
            return 0.0
        return self.busy_cycles / total_cycles


@dataclass
class RunResult:
    """Outcome of running one command trace through a memory system."""

    system: str
    cycles: int
    commands: int
    read_commands: int
    write_commands: int
    elements_read: int
    elements_written: int
    device: DeviceStats = field(default_factory=DeviceStats)
    bus: BusStats = field(default_factory=BusStats)
    #: Gathered cache lines for read commands, in trace order, when the
    #: run was asked to capture data (functional verification).
    read_lines: Optional[List[Tuple[int, ...]]] = None
    #: Per-command latency (issue cycle to completion: staging-transfer
    #: end for reads, commit for writes), in trace order.  Populated by
    #: the cycle-level PVA systems; None for the analytic baselines.
    command_latencies: Optional[List[int]] = None
    #: Per-component cycle attribution (component name ->
    #: :class:`ComponentCycles`), recorded by the simulation kernel.
    #: Identical between the tick and time-skip run loops, and every
    #: component's buckets sum to :attr:`cycles`.
    attribution: Optional[Dict[str, ComponentCycles]] = None
    #: Which bank backend stepped the run: ``"soa"``, ``"object"``
    #: (the reference, requested via ``sim_mode="tick"``), or
    #: :data:`FALLBACK_PREFIX` + reason when the fast backend was
    #: requested but the run fell back (see
    #: :func:`repro.pva.soa.soa_fallback_reason`).
    #: None for the analytic baselines.  Excluded from equality: the
    #: backends are bit-identical by contract.
    backend: Optional[str] = field(default=None, compare=False)
    #: The run's :class:`WorkCounters` (None for a system that does not
    #: report them).  Excluded from equality and from the result cache,
    #: like :attr:`backend`: the two backends do different work for
    #: identical results.
    work: Optional[WorkCounters] = field(default=None, compare=False)

    @property
    def cycles_per_command(self) -> float:
        if self.commands == 0:
            return 0.0
        return self.cycles / self.commands

    def speedup_over(self, other: "RunResult") -> float:
        """How much faster this run is than ``other`` (ratio of cycles)."""
        if self.cycles == 0:
            raise ZeroDivisionError("run completed in zero cycles")
        return other.cycles / self.cycles

    def normalized_to(self, baseline: "RunResult") -> float:
        """Execution time of this run as a fraction of ``baseline`` —
        the paper's bar annotations (1.0 == 100%)."""
        if baseline.cycles == 0:
            raise ZeroDivisionError("baseline completed in zero cycles")
        return self.cycles / baseline.cycles

    def attribution_consistent(self) -> bool:
        """Does every component's busy/stalled/idle split sum to the
        run's total cycle count?  Vacuously True without attribution."""
        if not self.attribution:
            return True
        return all(
            entry.total == self.cycles for entry in self.attribution.values()
        )

    def attribution_summary(self) -> Optional[Dict[str, Dict[str, int]]]:
        """The attribution ledger as plain nested dicts (JSON-ready)."""
        if self.attribution is None:
            return None
        return {
            name: entry.as_dict()
            for name, entry in self.attribution.items()
        }

    def latency_summary(self) -> Optional[Dict[str, float]]:
        """Min/mean/max per-command latency, when recorded."""
        if not self.command_latencies:
            return None
        latencies = self.command_latencies
        return {
            "min": min(latencies),
            "mean": round(sum(latencies) / len(latencies), 2),
            "max": max(latencies),
        }

    def summary(self) -> Dict[str, float]:
        return {
            "system": self.system,
            "cycles": self.cycles,
            "commands": self.commands,
            "cycles_per_command": round(self.cycles_per_command, 2),
            "activates": self.device.activates,
            "precharges": self.device.precharges + self.device.auto_precharges,
            "row_reuse": self.device.row_reuse,
            "bus_utilization": round(self.bus.utilization(self.cycles), 3),
        }
