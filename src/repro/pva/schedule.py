"""Broadcast-time hit-schedule precomputation.

The paper's central observation is that ``FirstHit()``/``NextHit()``
(theorems 4.3 and 4.4) are *closed forms*: the moment a vector command
``<B, S, L>`` is broadcast, every bank controller can derive its entire
subvector — indices, local word addresses, even the decoded SDRAM
coordinates — without waiting for the per-cycle expansion to walk there.
The reference backend exploits this one element at a time (the vector
context's shift-and-add); this module exploits it wholesale for the fast
backend (:mod:`repro.pva.soa`).

A :class:`BankSchedule` is one bank's complete hit table for one vector
command, precomputed at broadcast time as flat integer tuples:

* ``indices[j]``      — vector element index of the j-th owned element
  (``K_i + j * delta``, theorem 4.4);
* ``local_words[j]``  — bank-internal word address
  (``(B + S*K_i) >> m`` plus ``j`` steps of ``(S * delta) >> m``);
* ``ibanks[j]`` / ``rows[j]`` — decoded device coordinates of that word
  under the device's interleave geometry;
* ``next_same_row[j]`` — row-transition marker: does element ``j + 1``
  hit the same (internal bank, row) as element ``j``?  This is exactly
  the ``bank_morehit_predict`` self-term of the ManageRow heuristic.

The fast backend's vector contexts then *consume a cursor* into the
table instead of recomputing decode per element per cycle, and its
predict lines read plain ints instead of calling ``device.locate``.

**Cycle-exactness.**  The table is a pure function of
``(base, stride, length, bank, num_banks, geometry)`` and reproduces the
incremental ``first_hit``/``next_hit`` walk value for value (the
property suite in ``tests/pva/test_schedule.py`` fuzzes this over
geometries and all paper alignments).  Nothing about *when* operations
issue changes — only how their addresses are obtained — so the
differential tick-vs-soa suite holds bit-identical.

**One pass per broadcast.**  The fast backend does not evaluate the
closed form bank by bank: :func:`partition_schedules` builds every
bank's table in a single pass over the command's element addresses
(then decodes each owning bank's words once), and the same pass
partitions explicit scatter/gather address streams.
:func:`build_stride_schedule` — the closed form — is the oracle the
property suite holds that partition to, bank by bank.

**Memoization.**  Schedules are memoized with the same content-key
discipline as the engine's result cache: the key is the full value tuple
above, never an object identity, and the cached value is immutable
(tuples only), so two vectors can share a table but can never alias
mutable state.  The fast backend memoizes whole vector broadcasts
(:func:`repro.pva.soa.broadcast_schedules`, one partition pass per
miss), LRU-bounded to the :data:`SCHEDULE_CACHE_SIZE` table budget
(long-lived engine workers sweep thousands of distinct vectors) and
hooked into :func:`repro.api.clear_caches`; explicit address streams
are not memoized.  The per-bank LRU :func:`stride_schedule` and
:func:`schedule_cache_info` remain for the benchmark harness's
instrumentation (``perfbench/``); no simulator path fills that LRU.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.core.decode import decompose_stride

__all__ = [
    "BankSchedule",
    "build_stride_schedule",
    "partition_schedules",
    "stride_schedule",
    "pairs_schedule",
    "schedule_cache_info",
    "clear_schedule_cache",
]

#: LRU bound on the memoized stride-schedule table.  Sized for the full
#: evaluation grid (kernels x strides x alignments x banks) with room to
#: spare; the point is boundedness, not a tight fit.
SCHEDULE_CACHE_SIZE = 4096

#: Geometry descriptor kinds (see ``schedule_geometry`` on the devices).
_GEOM_ROTATED = "rot"
_GEOM_FLAT = "flat"


class BankSchedule:
    """One bank's precomputed hit table for one vector command.

    Immutable by construction: every field is a tuple of ints (or bools),
    so memoized instances can be shared between requests freely.
    """

    __slots__ = (
        "count",
        "indices",
        "local_words",
        "ibanks",
        "rows",
        "next_same_row",
    )

    def __init__(
        self,
        indices: Tuple[int, ...],
        local_words: Tuple[int, ...],
        ibanks: Tuple[int, ...],
        rows: Tuple[int, ...],
        next_same_row: Tuple[bool, ...],
    ):
        self.count = len(indices)
        self.indices = indices
        self.local_words = local_words
        self.ibanks = ibanks
        self.rows = rows
        self.next_same_row = next_same_row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BankSchedule(count={self.count}, indices={self.indices[:4]}...)"


def _decode(
    local_words: Tuple[int, ...], geometry: Tuple
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[bool, ...]]:
    """Decode a non-empty word sequence into (ibanks, rows,
    next_same_row) under a device geometry descriptor."""
    kind = geometry[0]
    last = len(local_words) - 1
    if kind == _GEOM_ROTATED:
        # SDRAM: consecutive rows rotate internal banks (see
        # SDRAMDevice.locate).  The row sequence number packs the
        # internal bank and the row, so equal neighbours are exactly
        # same-row neighbours.
        row_bits, ib_bits = geometry[1], geometry[2]
        ib_mask = (1 << ib_bits) - 1
        seqs = [word >> row_bits for word in local_words]
        ibanks = tuple([seq & ib_mask for seq in seqs])
        rows = tuple([seq >> ib_bits for seq in seqs])
        next_same_row = tuple(
            [seqs[j] == seqs[j + 1] for j in range(last)]
        ) + (False,)
    elif kind == _GEOM_FLAT:
        # SRAM: a single always-open row.
        ibanks = rows = (0,) * (last + 1)
        next_same_row = (True,) * last + (False,)
    else:  # pragma: no cover - guarded by schedule_geometry discovery
        raise ValueError(f"unknown schedule geometry {geometry!r}")
    return ibanks, rows, next_same_row


def _table(
    indices: Tuple[int, ...], local_words: Tuple[int, ...], geometry: Tuple
) -> BankSchedule:
    """A bank's hit table: its elements' indices and local words, plus
    their decode under ``geometry``."""
    return BankSchedule(indices, local_words, *_decode(local_words, geometry))


@lru_cache(maxsize=256)
def _stride_pattern(stride: int, num_banks: int) -> Tuple[int, int, int, int]:
    """``(s, delta, k1, bank_bits)`` of ``stride`` over ``num_banks``.

    Split out of :func:`build_stride_schedule` and memoized on the tiny
    ``(stride, num_banks)`` domain: the modular inverse behind ``k1``
    (theorem 4.3) would otherwise be recomputed on every broadcast, while
    the full schedule memos miss whenever the base moves.
    """
    decomp = decompose_stride(stride, num_banks)
    return decomp.s, decomp.delta, decomp.k1, decomp.bank_bits


def build_stride_schedule(
    base: int,
    stride: int,
    length: int,
    bank: int,
    num_banks: int,
    geometry: Tuple,
) -> Optional[BankSchedule]:
    """The full hit table for bank ``bank`` of ``<base, stride, length>``
    over ``num_banks`` word-interleaved banks, or ``None`` for no hit.

    Pure closed-form evaluation of theorems 4.3/4.4 — value-identical to
    the incremental ``first_hit``/``next_hit`` walk and to the FHP/VC
    expansion path it replaces.
    """
    s, delta, k1, bank_bits = _stride_pattern(stride, num_banks)
    b0 = base & (num_banks - 1)
    if s == bank_bits:
        # S mod M == 0: every element lands on the base bank.
        k = 0 if bank == b0 else None
    else:
        d = (bank - b0) % num_banks
        if d & ((1 << s) - 1):
            k = None  # lemma 4.2: bank distance not a multiple of 2**s
        else:
            k = (k1 * (d >> s)) % delta
    if k is None or k >= length:
        return None
    count = (length - 1 - k) // delta + 1
    # S * delta is a multiple of M (theorem 4.4), so the shift is exact.
    local_first = (base + stride * k) >> bank_bits
    local_step = (stride * delta) >> bank_bits
    indices = tuple(range(k, k + count * delta, delta))
    if count == 1:
        local_words = (local_first,)
    else:
        local_words = tuple(
            range(local_first, local_first + count * local_step, local_step)
        )
    return _table(indices, local_words, geometry)


def partition_schedules(
    addresses: Sequence[int], num_banks: int, geometry: Tuple
) -> Tuple[Optional[BankSchedule], ...]:
    """Every bank's hit table for one broadcast, as a tuple indexed by
    bank number (``None`` where the bank owns no element), built in a
    single pass over the command's element addresses.

    Each element goes to bank ``address mod num_banks`` at local word
    ``address >> log2(num_banks)``; each owning bank's words are then
    decoded once.  For a base-stride vector this is value-identical to
    :func:`build_stride_schedule` bank by bank (the property suite pins
    it); for an explicit address list it is the per-bank snoop, every
    bank keeping its elements in index order.
    """
    shift = num_banks.bit_length() - 1
    mask = num_banks - 1
    # Per bank: [indices, local words].
    owned: List[Optional[list]] = [None] * num_banks
    for index, address in enumerate(addresses):
        lists = owned[address & mask]
        if lists is None:
            lists = owned[address & mask] = [[], []]
        lists[0].append(index)
        lists[1].append(address >> shift)
    return tuple(
        None if lists is None
        else _table(tuple(lists[0]), tuple(lists[1]), geometry)
        for lists in owned
    )


#: A per-bank memo over :func:`build_stride_schedule`, kept for the
#: benchmark harness (``perfbench/`` patches and reads it); the fast
#: backend memoizes whole broadcasts instead, see
#: :func:`repro.pva.soa.broadcast_schedules`.
stride_schedule = lru_cache(maxsize=SCHEDULE_CACHE_SIZE)(build_stride_schedule)


def pairs_schedule(
    pairs: Tuple[Tuple[int, int], ...], geometry: Tuple
) -> Optional[BankSchedule]:
    """A hit table for an explicit ``(local_word, index)`` pair list (the
    scatter/gather snoop path and the cache-line/block interleave front
    end).  Not memoized — the key would be the whole pair list."""
    if not pairs:
        return None
    return _table(
        tuple(index for _, index in pairs),
        tuple(word for word, _ in pairs),
        geometry,
    )


def schedule_cache_info():
    """The stride-schedule memo's ``lru_cache`` statistics."""
    return stride_schedule.cache_info()


def clear_schedule_cache() -> None:
    """Drop every memoized schedule (see :func:`repro.api.clear_caches`)."""
    stride_schedule.cache_clear()
    _stride_pattern.cache_clear()
