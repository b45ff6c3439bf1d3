"""Occupancy model of the shared vector bus (section 5.2.1).

The bus multiplexes requests and data: during a request cycle it carries
a 32-bit address, 32-bit stride, 3-bit transaction id and a command;
during data cycles it carries 64 bits (128 physical lines driven in
alternating halves to dodge per-cycle turnaround between bank
controllers).  One bus action per cycle; a one-cycle turnaround applies
when the *block* data direction between the memory controller and the
BCs reverses (read-return vs write-stream).

:class:`VectorBus` tracks busy-until state, the last data direction, and
the occupancy statistics; the PVA front end asks it to schedule the three
transfer shapes of section 5.2.6:

* a bare request broadcast (VEC_READ, or an explicit-command broadcast
  spanning several cycles);
* a read staging transfer: STAGE_READ command + ``stage_cycles`` of data;
* a write sequence: STAGE_WRITE command + data + the VEC_WRITE broadcast.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ProtocolError
from repro.params import SystemParams
from repro.sim.stats import BusStats

__all__ = ["VectorBus"]


class VectorBus:
    """Cycle-occupancy state machine of the vector bus."""

    __slots__ = ("params", "busy_until", "last_data_was_write", "stats")

    def __init__(self, params: SystemParams):
        self.params = params
        self.busy_until = 0
        #: Direction of the last data block: True = write data (MC->BCs),
        #: False = read data (BCs->MC), None before any data moved.
        self.last_data_was_write: Optional[bool] = None
        self.stats = BusStats()

    def is_free(self, cycle: int) -> bool:
        """Can a new bus action start this cycle?"""
        return cycle >= self.busy_until

    def _claim(self, cycle: int) -> None:
        if not self.is_free(cycle):
            raise ProtocolError(
                f"vector bus busy until {self.busy_until}, "
                f"action attempted at {cycle}"
            )

    def broadcast_request(self, cycle: int, request_cycles: int = 1) -> int:
        """A request-only broadcast (VEC_READ or an explicit-address
        stream).  Returns the cycle the bus frees."""
        self._claim(cycle)
        self.stats.request_cycles += request_cycles
        self.busy_until = cycle + request_cycles
        return self.busy_until

    def stage_read(self, cycle: int) -> int:
        """STAGE_READ command plus the line transfer from the BCs.
        Returns the cycle the transfer (and the transaction) completes."""
        self._claim(cycle)
        turnaround = (
            self.params.bus_turnaround if self.last_data_was_write else 0
        )
        stage = self.params.channel_stage_cycles
        self.stats.request_cycles += 1
        self.stats.data_cycles += stage
        self.stats.turnaround_cycles += turnaround
        self.busy_until = cycle + 1 + turnaround + stage
        self.last_data_was_write = False
        return self.busy_until

    def stage_write(self, cycle: int, request_cycles: int = 1) -> int:
        """STAGE_WRITE command, the line transfer to the BCs, then the
        VEC_WRITE (or explicit) broadcast.  Returns the broadcast cycle —
        the moment the bank controllers see the command."""
        self._claim(cycle)
        turnaround = (
            self.params.bus_turnaround
            if self.last_data_was_write is False
            else 0
        )
        stage = self.params.channel_stage_cycles
        self.stats.request_cycles += 1 + request_cycles
        self.stats.data_cycles += stage
        self.stats.turnaround_cycles += turnaround
        broadcast_cycle = cycle + 1 + turnaround + stage
        self.busy_until = broadcast_cycle + request_cycles
        self.last_data_was_write = True
        return broadcast_cycle
