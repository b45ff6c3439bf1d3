"""Staging units (section 5.2.2 item 8, section 5.2.6).

The Read Staging Unit buffers data returned by the SDRAM for each
transaction until the whole cache line can be merged on the BC bus; the
Write Staging Unit buffers the line broadcast by the memory controller
until the scattered writes commit.  Each unit drives the (active-low)
``transaction_complete`` wired-OR line for its transactions: a bank
controller releases the line when it has collected (reads) or committed
(writes) every element it is responsible for.

These per-bank units are the reference object backend's model.  The
fast backend (:mod:`repro.pva.soa`) never opens a slot here: they stage per transaction, in the front end's
transaction record, with the same element counts and data cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CapacityError, ProtocolError

__all__ = ["ReadStagingUnit", "WriteStagingUnit"]


@dataclass(slots=True)
class _ReadSlot:
    expected: int
    received: List[Tuple[int, int]] = field(default_factory=list)
    last_data_cycle: int = -1


class ReadStagingUnit:
    """Per-bank-controller buffer for gathered read data."""

    __slots__ = ("capacity", "_slots")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._slots: Dict[int, _ReadSlot] = {}

    def open(self, txn_id: int, expected: int) -> None:
        """Reserve a transaction buffer when the VEC_READ broadcast is
        seen.  ``expected`` is this bank's element count (possibly 0)."""
        if txn_id in self._slots:
            raise ProtocolError(
                f"read transaction {txn_id} already staged in this bank"
            )
        if len(self._slots) >= self.capacity:
            raise CapacityError(
                f"read staging unit full ({self.capacity} transactions)"
            )
        self._slots[txn_id] = _ReadSlot(expected=expected)

    def collect(
        self, txn_id: int, index: int, value: int, data_cycle: int
    ) -> None:
        """Record one element returned by the SDRAM."""
        slot = self._slots.get(txn_id)
        if slot is None:
            raise ProtocolError(f"data for unknown read transaction {txn_id}")
        if len(slot.received) >= slot.expected:
            raise ProtocolError(
                f"transaction {txn_id} received more elements than expected"
            )
        slot.received.append((index, value))
        if data_cycle > slot.last_data_cycle:
            slot.last_data_cycle = data_cycle

    def complete(self, txn_id: int, cycle: int) -> bool:
        """Transaction-complete line state for this bank: has every
        expected element arrived by ``cycle``?"""
        slot = self._slots.get(txn_id)
        if slot is None:
            raise ProtocolError(f"unknown read transaction {txn_id}")
        return (
            len(slot.received) == slot.expected
            and cycle >= slot.last_data_cycle
        )

    def drain(self, txn_id: int) -> List[Tuple[int, int]]:
        """STAGE_READ: hand the collected ``(index, value)`` pairs to the
        bus merge and release the buffer."""
        slot = self._slots.pop(txn_id, None)
        if slot is None:
            raise ProtocolError(f"STAGE_READ for unknown transaction {txn_id}")
        if len(slot.received) != slot.expected:
            raise ProtocolError(
                f"STAGE_READ for incomplete transaction {txn_id} "
                f"({len(slot.received)}/{slot.expected} elements)"
            )
        return slot.received

    def __len__(self) -> int:
        return len(self._slots)


@dataclass(slots=True)
class _WriteSlot:
    expected: int
    committed: int = 0
    commit_cycle: int = -1


class WriteStagingUnit:
    """Per-bank-controller buffer tracking scattered-write commitment."""

    __slots__ = ("capacity", "_slots")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._slots: Dict[int, _WriteSlot] = {}

    def open(self, txn_id: int, expected: int) -> None:
        """Reserve a buffer when the VEC_WRITE broadcast is seen (the data
        line arrived just before, via STAGE_WRITE)."""
        if txn_id in self._slots:
            raise ProtocolError(
                f"write transaction {txn_id} already staged in this bank"
            )
        if len(self._slots) >= self.capacity:
            raise CapacityError(
                f"write staging unit full ({self.capacity} transactions)"
            )
        self._slots[txn_id] = _WriteSlot(expected=expected)

    def commit(self, txn_id: int, commit_cycle: int) -> None:
        """Record one element written to the SDRAM; ``commit_cycle``
        includes write recovery."""
        slot = self._slots.get(txn_id)
        if slot is None:
            raise ProtocolError(
                f"write commit for unknown transaction {txn_id}"
            )
        if slot.committed >= slot.expected:
            raise ProtocolError(
                f"transaction {txn_id} committed more elements than expected"
            )
        slot.committed += 1
        if commit_cycle > slot.commit_cycle:
            slot.commit_cycle = commit_cycle

    def complete(self, txn_id: int, cycle: int) -> bool:
        """Has this bank committed all of its elements by ``cycle``?"""
        slot = self._slots.get(txn_id)
        if slot is None:
            raise ProtocolError(f"unknown write transaction {txn_id}")
        return slot.committed == slot.expected and cycle >= slot.commit_cycle

    def release(self, txn_id: int) -> None:
        """Free the buffer once the front end observed completion."""
        if txn_id not in self._slots:
            raise ProtocolError(f"release of unknown transaction {txn_id}")
        del self._slots[txn_id]

    def __len__(self) -> int:
        return len(self._slots)
