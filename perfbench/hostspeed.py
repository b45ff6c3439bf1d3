"""Host-speed reference: turns measured host seconds into reference seconds.

The benchmark runs on shared hosts whose speed drifts by 10-30% over
tens of seconds (co-tenants on the same cores).  A fixed pure-Python
reference loop, timed in short slices interleaved with the workload,
tracks that drift: over windows of several seconds its time correlates
with the simulator's at 0.93-0.96, measured on a 2-vCPU VM.  Every host
time the benchmark reports is multiplied by :meth:`SpeedProbe.factor`,
``REFERENCE_SECONDS`` over the mean slice time of the same run, so a
slow spell of the host cancels while a change to the simulator does not:
the reference shares no code with it.

The reference only imports the standard library and must never change;
a new reference is a new benchmark.
"""

from __future__ import annotations

import time
from collections import deque

#: Mean :func:`reference` time on the host the benchmark was defined on
#: (2-vCPU VM, CPython 3.11); reported times are scaled to this speed.
REFERENCE_SECONDS = 0.0100

#: Seconds of workload between reference slices.
INTERVAL_S = 0.25

_HORIZON = 1 << 62


class _Bank:
    """A toy bank with a request queue and an open row: the attribute,
    method-call and deque traffic of a cycle-level simulator."""

    def __init__(self):
        self.busy_until = 0
        self.queue = deque()
        self.row = -1
        self.hits = 0

    def tick(self, cycle: int) -> bool:
        if cycle < self.busy_until or not self.queue:
            return False
        row = self.queue.popleft() >> 9
        if row == self.row:
            self.hits += 1
            self.busy_until = cycle + 1
        else:
            self.row = row
            self.busy_until = cycle + 4
        return True

    def next_event(self, cycle: int) -> int:
        return self.busy_until if self.queue else _HORIZON


def reference(commands: int = 300) -> int:
    """A fixed amount of simulator-like work; returns its final cycle."""
    banks = [_Bank() for _ in range(16)]
    state = 12345
    cycle = 0
    for _ in range(commands):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        base = state & 0xFFFF
        stride = 1 + (state >> 16) % 19
        for k in range(32):
            address = base + k * stride
            banks[address & 15].queue.append(address >> 4)
        while any(bank.queue for bank in banks):
            acted = False
            for bank in banks:
                if bank.tick(cycle):
                    acted = True
            if acted:
                cycle += 1
            else:
                cycle = max(cycle + 1, min(bank.next_event(cycle) for bank in banks))
    return cycle


class SpeedProbe:
    """Times reference slices between workload points.

    ``spent`` is the time the slices took, which the caller removes from
    its own wall-clock measurements."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._due = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += elapsed
        self._due = time.perf_counter() + INTERVAL_S

    def maybe_sample(self) -> None:
        """Take a slice if ``INTERVAL_S`` of workload passed since the last."""
        if time.perf_counter() >= self._due:
            self.sample()

    def factor(self) -> float:
        """Reference seconds per host second over this run."""
        return REFERENCE_SECONDS * len(self.samples) / sum(self.samples)
