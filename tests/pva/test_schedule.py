"""The broadcast-time hit-schedule precompute layer (repro.pva.schedule).

Three obligations:

* **Equivalence** — the precomputed table is value-identical to the
  incremental ``first_hit``/``next_hit``/``bank_subvector`` walk it
  replaces, over fuzzed geometries (banks 2..64, odd/even/power-of-two
  strides, all five paper alignments).  The closed forms of theorems
  4.3/4.4 are the spec; the schedule must never disagree with them.
* **Decode correctness** — per-element device coordinates and the
  row-transition markers match ``device.locate`` exactly.
* **Memo hygiene** — memoized schedules are immutable and never alias
  mutable state between vectors; the memo is LRU-bounded and cleared by
  ``repro.api.clear_caches``.
"""

import random

import pytest

from repro.api import clear_caches
from repro.core.firsthit import bank_subvector, first_hit, next_hit
from repro.core.pla import shared_k1_pla
from repro.kernels import ALIGNMENTS
from repro.params import SDRAMTiming, SystemParams
from repro.pva.schedule import (
    SCHEDULE_CACHE_SIZE,
    build_stride_schedule,
    clear_schedule_cache,
    pairs_schedule,
    partition_schedules,
    schedule_cache_info,
    stride_schedule,
)
from repro.sdram.device import SDRAMDevice
from repro.sram.device import SRAMDevice
from repro.types import Vector


def _reference_table(vector, bank, num_banks, device):
    """The incremental walk the schedule replaces: FirstHit/NextHit plus
    a per-element ``device.locate`` decode."""
    k = first_hit(vector, bank, num_banks)
    if k is None:
        return None
    delta = next_hit(vector.stride, num_banks)
    bank_bits = num_banks.bit_length() - 1
    words = [address >> bank_bits for address in
             bank_subvector(vector, bank, num_banks)]
    indices = list(range(k, vector.length, delta))
    locs = [device.locate(word) for word in words]
    next_same = [
        j + 1 < len(locs)
        and locs[j + 1].internal_bank == locs[j].internal_bank
        and locs[j + 1].row == locs[j].row
        for j in range(len(locs))
    ]
    return (
        tuple(indices),
        tuple(words),
        tuple(loc.internal_bank for loc in locs),
        tuple(loc.row for loc in locs),
        tuple(next_same),
    )


def _assert_matches_reference(vector, num_banks, device):
    geometry = device.schedule_geometry
    total = 0
    for bank in range(num_banks):
        schedule = stride_schedule(
            vector.base, vector.stride, vector.length, bank, num_banks,
            geometry,
        )
        reference = _reference_table(vector, bank, num_banks, device)
        if reference is None:
            assert schedule is None, (vector, bank, num_banks)
            continue
        assert schedule is not None, (vector, bank, num_banks)
        assert schedule.indices == reference[0]
        assert schedule.local_words == reference[1]
        assert schedule.ibanks == reference[2]
        assert schedule.rows == reference[3]
        assert schedule.next_same_row == reference[4]
        assert schedule.count == len(reference[0])
        total += schedule.count
    assert total == vector.length  # the banks partition the vector


def _device_for(num_banks, internal_banks=4, row_words=64):
    timing = SDRAMTiming(internal_banks=internal_banks, row_words=row_words)
    return SDRAMDevice(timing)


STRIDES = [1, 2, 3, 4, 7, 8, 13, 16, 19, 24, 32, 48, 63]


@pytest.mark.parametrize("num_banks", [2, 8, 16])
@pytest.mark.parametrize("stride", STRIDES)
def test_schedule_matches_incremental_walk(num_banks, stride):
    device = _device_for(num_banks)
    for alignment in ALIGNMENTS:
        params = SystemParams(num_banks=num_banks)
        base = 96 + alignment.offset(1, params)
        vector = Vector(base=base, stride=stride, length=32)
        _assert_matches_reference(vector, num_banks, device)


@pytest.mark.slow
def test_schedule_matches_incremental_walk_fuzzed():
    """Heavyweight sweep: banks 2..64, fuzzed bases/strides/lengths and
    internal-bank/row geometries."""
    rng = random.Random(0xC0FFEE)
    for num_banks in (2, 4, 8, 16, 32, 64):
        for _ in range(120):
            device = _device_for(
                num_banks,
                internal_banks=rng.choice([1, 2, 4, 8]),
                row_words=rng.choice([16, 64, 512]),
            )
            stride = rng.choice(
                [rng.randrange(1, 4 * num_banks) | 1,      # odd
                 2 * rng.randrange(1, 2 * num_banks),      # even
                 1 << rng.randrange(0, 8),                 # power of two
                 num_banks, 2 * num_banks]                 # degenerate
            )
            vector = Vector(
                base=rng.randrange(0, 1 << 16),
                stride=stride,
                length=rng.randrange(1, 64),
            )
            _assert_matches_reference(vector, num_banks, device)


def test_schedule_agrees_with_pla_ownership():
    """The schedule's element partition must match the FHP's PLA tables
    (both are theorem 4.3; they may never drift apart)."""
    num_banks = 16
    device = _device_for(num_banks)
    pla = shared_k1_pla(num_banks)
    for stride in STRIDES:
        entry = pla.entry(stride)
        vector = Vector(base=35, stride=stride, length=32)
        for bank in range(num_banks):
            schedule = stride_schedule(
                vector.base, stride, vector.length, bank, num_banks,
                device.schedule_geometry,
            )
            k = first_hit(vector, bank, num_banks)
            assert (schedule is None) == (k is None)
            if schedule is not None:
                assert schedule.indices[0] == k
                if schedule.count > 1:
                    assert (
                        schedule.indices[1] - schedule.indices[0]
                        == entry.delta
                    )


def test_flat_geometry_decodes_to_single_row():
    device = SRAMDevice()
    schedule = stride_schedule(0, 3, 16, 1, 4, device.schedule_geometry)
    assert schedule is not None
    assert set(schedule.ibanks) == {0}
    assert set(schedule.rows) == {0}
    # A single always-open row: every transition but the last is a hit.
    assert schedule.next_same_row == tuple(
        j < schedule.count - 1 for j in range(schedule.count)
    )


def test_pairs_schedule_decodes_pairs_in_order():
    device = _device_for(4, internal_banks=2, row_words=16)
    pairs = ((3, 0), (19, 1), (16, 2), (700, 3))
    schedule = pairs_schedule(pairs, device.schedule_geometry)
    assert schedule.count == 4
    assert schedule.local_words == (3, 19, 16, 700)
    assert schedule.indices == (0, 1, 2, 3)
    for j, word in enumerate(schedule.local_words):
        loc = device.locate(word)
        assert schedule.ibanks[j] == loc.internal_bank
        assert schedule.rows[j] == loc.row
    assert pairs_schedule((), device.schedule_geometry) is None


def test_memoized_schedules_are_immutable_and_unaliased():
    geometry = _device_for(16).schedule_geometry
    first = stride_schedule(0, 19, 32, 3, 16, geometry)
    again = stride_schedule(0, 19, 32, 3, 16, geometry)
    assert again is first  # memo hit
    # Every field is a flat tuple — nothing a consumer could mutate.
    for field in ("indices", "local_words", "ibanks", "rows",
                  "next_same_row"):
        assert isinstance(getattr(first, field), tuple)
    with pytest.raises(AttributeError):
        first.extra = 1  # __slots__: no dict to scribble on
    # A different vector never shares identity with another's tuples
    # unless the values are equal (tuples are immutable either way).
    other = stride_schedule(16, 19, 32, 3, 16, geometry)
    assert other.local_words != first.local_words


def test_schedule_cache_is_lru_bounded_and_clearable():
    clear_schedule_cache()
    geometry = _device_for(16).schedule_geometry
    for base in range(SCHEDULE_CACHE_SIZE + 64):
        stride_schedule(base, 1, 4, 0, 16, geometry)
    info = schedule_cache_info()
    assert info.maxsize == SCHEDULE_CACHE_SIZE
    assert info.currsize <= SCHEDULE_CACHE_SIZE
    clear_caches()
    assert schedule_cache_info().currsize == 0


def test_clear_caches_resets_pla_memo():
    clear_caches()
    assert shared_k1_pla.cache_info().currsize == 0
    shared_k1_pla(16)
    assert shared_k1_pla.cache_info().currsize == 1
    clear_caches()
    assert shared_k1_pla.cache_info().currsize == 0


def test_degenerate_stride_hits_base_bank_only():
    geometry = _device_for(8).schedule_geometry
    for stride in (8, 16, 24):
        hits = [
            stride_schedule(5, stride, 7, bank, 8, geometry)
            for bank in range(8)
        ]
        assert [s is not None for s in hits] == [
            bank == 5 for bank in range(8)
        ]
        assert hits[5].count == 7
        assert hits[5].indices == tuple(range(7))


# --------------------------------------------------------------------- #
# The one-pass broadcast partition (the fast backend's schedule builder)
# --------------------------------------------------------------------- #

SCHEDULE_FIELDS = ("count", "indices", "local_words", "ibanks", "rows",
                   "next_same_row")


def _assert_same_table(got, want, context):
    assert (got is None) == (want is None), context
    if want is not None:
        for field in SCHEDULE_FIELDS:
            assert getattr(got, field) == getattr(want, field), (
                context, field
            )


def _partition_geometries():
    return (
        ("sdram", SDRAMDevice(SDRAMTiming()).schedule_geometry),
        ("sram", SRAMDevice().schedule_geometry),
    )


@pytest.mark.parametrize("num_banks", [4, 16, 64])
@pytest.mark.parametrize("kind, geometry", _partition_geometries())
def test_partition_matches_closed_form(num_banks, kind, geometry):
    """The one-pass partition equals the closed-form builder bank by
    bank: strides 1..64 (multiples of the bank count included), every
    paper alignment, every length from 1 to ``max_vector_length``."""
    params = SystemParams(num_banks=num_banks)
    for stride in range(1, 65):
        for alignment in ALIGNMENTS:
            base = 96 + alignment.offset(1, params)
            for length in range(1, params.max_vector_length + 1):
                tables = partition_schedules(
                    range(base, base + stride * length, stride),
                    num_banks,
                    geometry,
                )
                assert len(tables) == num_banks
                for bank in range(num_banks):
                    _assert_same_table(
                        tables[bank],
                        build_stride_schedule(
                            base, stride, length, bank, num_banks, geometry
                        ),
                        (num_banks, stride, alignment.name, length, bank),
                    )


def _per_bank_snoop(addresses, bank, num_banks, geometry):
    """The explicit-command snoop one bank controller runs on its own:
    keep the stream's elements that map to this bank, in index order."""
    shift = num_banks.bit_length() - 1
    mine = tuple(
        (address >> shift, index)
        for index, address in enumerate(addresses)
        if address & (num_banks - 1) == bank
    )
    return pairs_schedule(mine, geometry)


@pytest.mark.parametrize("num_banks", [4, 16, 64])
@pytest.mark.parametrize("kind, geometry", _partition_geometries())
def test_explicit_partition_matches_per_bank_snoop(num_banks, kind, geometry):
    """Scatter/gather address streams — unordered, repeated words,
    sparse and clustered — partition exactly as sixteen per-bank snoops
    of the same stream would."""
    rng = random.Random(num_banks)
    longest = SystemParams(num_banks=num_banks).max_vector_length
    for _ in range(200):
        length = rng.randrange(1, longest + 1)
        span = rng.choice([num_banks, 4096, 1 << 20])
        addresses = tuple(rng.randrange(span) for _ in range(length))
        tables = partition_schedules(addresses, num_banks, geometry)
        assert sum(t.count for t in tables if t is not None) == length
        for bank in range(num_banks):
            _assert_same_table(
                tables[bank],
                _per_bank_snoop(addresses, bank, num_banks, geometry),
                (addresses, bank),
            )
