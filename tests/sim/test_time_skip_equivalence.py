"""Differential suite: the fast backend must be bit-identical to the
reference.

Every test runs the same trace twice — ``sim_mode="tick"`` (the
reference: the bank-controller object graph on the cycle-by-cycle loop,
expanding requests incrementally through FirstHit/NextHit) and
``sim_mode="soa"`` (the default fast backend: the structure-of-arrays
bank automaton on the next-event time-skip loop, driven by
broadcast-time hit schedules) — and asserts the two
:class:`~repro.sim.stats.RunResult` objects are **equal**.  Equality
covers cycle counts, per-command latencies, device and bus statistics,
the per-component attribution ledger, and (with ``capture_data=True``)
the gathered data payloads.  The serial baselines have no bank
automaton, but ``sim_mode`` still selects their run loop, so they are
held to the same rule.

The cases sweep the paper's strides/alignments, fuzzed geometries and
timings, every row policy, refresh cadences short enough to land inside
a bank's service chain, throttled front ends, explicit scatter/gather
commands, degenerate shapes, and back-to-back runs on one system object
(the fast backend's ``writeback`` must leave the object graph exactly as
the reference would).  Multi-channel topologies are covered by
``test_multichannel.py``.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.api import available_systems, build_system, simulate
from repro.errors import ConfigurationError
from repro.kernels import ALIGNMENTS, KERNELS, build_trace, kernel_by_name
from repro.params import ENV_SIM_MODE, SDRAMTiming, SystemParams
from repro.types import AccessType, ExplicitCommand, Vector, VectorCommand

ALL_SYSTEMS = available_systems()
PVA_SYSTEMS = ("pva-sdram", "pva-sram")
PAPER_STRIDES = (1, 2, 4, 8, 16, 19)
ROW_POLICIES = ("paper", "open", "close", "history")


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    """The differential harness controls the mode through params alone."""
    monkeypatch.delenv(ENV_SIM_MODE, raising=False)


def run_both(trace, params, system, capture_data=True):
    """Simulate ``trace`` under the reference and the fast backend."""
    tick = simulate(
        trace,
        replace(params, sim_mode="tick"),
        system=system,
        capture_data=capture_data,
    )
    fast = simulate(
        trace,
        replace(params, sim_mode="soa"),
        system=system,
        capture_data=capture_data,
    )
    return tick, fast


def assert_modes_agree(trace, params, system, capture_data=False):
    tick, fast = run_both(trace, params, system, capture_data=capture_data)
    assert tick == fast, (
        f"{system}: the soa backend diverged from the tick reference "
        f"({tick.cycles} vs {fast.cycles} cycles)"
    )
    assert tick.attribution == fast.attribution
    assert tick.attribution_consistent()
    return tick


class TestPaperConfiguration:
    """The prototype configuration over the evaluation strides."""

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    @pytest.mark.parametrize("stride", PAPER_STRIDES)
    def test_copy_all_strides(self, system, stride, prototype_params):
        trace = build_trace(
            kernel_by_name("copy"),
            stride=stride,
            params=prototype_params,
            elements=256,
        )
        assert_modes_agree(trace, prototype_params, system)

    @pytest.mark.parametrize("system", PVA_SYSTEMS)
    @pytest.mark.parametrize(
        "alignment", ALIGNMENTS, ids=[a.name for a in ALIGNMENTS]
    )
    def test_saxpy_stride19_all_alignments(
        self, system, alignment, prototype_params
    ):
        trace = build_trace(
            kernel_by_name("saxpy"),
            stride=19,
            params=prototype_params,
            elements=128,
            alignment=alignment,
        )
        assert_modes_agree(trace, prototype_params, system)

    @pytest.mark.parametrize("system", PVA_SYSTEMS)
    def test_data_payloads_match(self, system, prototype_params):
        """capture_data=True: the gathered lines and per-command
        latencies must be identical, not just the cycle totals."""
        trace = build_trace(
            kernel_by_name("swap"),
            stride=19,
            params=prototype_params,
            elements=128,
        )
        tick = assert_modes_agree(
            trace, prototype_params, system, capture_data=True
        )
        assert tick.read_lines  # the comparison actually saw payloads

    def test_refresh_enabled(self):
        """Auto-refresh interacts with every skip bound; a realistic
        refresh period must not break equivalence."""
        params = SystemParams(sdram=SDRAMTiming(refresh_interval=777))
        trace = build_trace(
            kernel_by_name("copy"), stride=19, params=params, elements=256
        )
        assert_modes_agree(trace, params, "pva-sdram", capture_data=True)

    def test_issue_interval_throttled_front_end(self):
        params = SystemParams(issue_interval=7)
        trace = build_trace(
            kernel_by_name("scale"), stride=4, params=params, elements=128
        )
        assert_modes_agree(trace, params, "pva-sdram")


@pytest.mark.parametrize("system", PVA_SYSTEMS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_paper_sweep_bit_identical(system, kernel):
    """Every kernel x stride x alignment of the section-6.2 grid slice:
    the two backends return equal RunResults (cycles, capture_data,
    attribution and all)."""
    k = kernel_by_name(kernel)
    for stride in (1, 19):
        for alignment in ALIGNMENTS:
            base = SystemParams()
            trace = build_trace(
                k,
                stride=stride,
                alignment=alignment,
                elements=256,
                params=base,
            )
            a, b = run_both(trace, base, system)
            assert a == b, (system, kernel, stride, alignment.name)


@pytest.mark.slow
@pytest.mark.parametrize("system", PVA_SYSTEMS)
def test_paper_grid_bit_identical_at_paper_size(system):
    """The exact section-6.2 grid the artifacts are built from — every
    kernel x stride x alignment at 1024 elements: the two backends
    return equal RunResults (cycles, gathered data, latencies, device
    and bus statistics) and equal attribution ledgers."""
    base = SystemParams()
    for kernel in KERNELS:
        for stride in PAPER_STRIDES:
            for alignment in ALIGNMENTS:
                trace = build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    alignment=alignment,
                    elements=1024,
                    params=base,
                )
                tick, fast = run_both(trace, base, system)
                point = (system, kernel, stride, alignment.name)
                assert tick == fast, point
                assert tick.attribution == fast.attribution, point


@pytest.mark.parametrize("policy", ROW_POLICIES)
def test_every_row_policy(policy):
    """Each ManageRow variant is mirrored decision for decision."""
    params = SystemParams(row_policy=policy)
    for kernel, stride in (("vaxpy", 19), ("copy2", 1), ("tridiag", 4)):
        trace = build_trace(
            kernel_by_name(kernel), stride=stride, params=params, elements=128
        )
        assert_modes_agree(trace, params, "pva-sdram", capture_data=True)


def test_explicit_commands_equivalent():
    """Explicit (indexed) commands snoop through broadcast_pairs; both
    backends agree on cycles and captured data."""
    trace = [
        ExplicitCommand(
            addresses=(3, 19, 64, 64 + 16, 5, 1000),
            access=AccessType.WRITE,
            broadcast_cycles=3,
            data=(10, 20, 30, 40, 50, 60),
        ),
        ExplicitCommand(
            addresses=(3, 19, 64, 64 + 16, 5, 1000),
            access=AccessType.READ,
            broadcast_cycles=3,
        ),
    ]
    assert_modes_agree(trace, SystemParams(), "pva-sdram", capture_data=True)


def test_sram_storage_equality_after_writes():
    """After a write-heavy run the device storages of the two backends
    hold identical contents on both PVA systems."""
    base = SystemParams()
    trace = [
        VectorCommand(
            vector=Vector(base=7, stride=19, length=32),
            access=AccessType.WRITE,
            data=tuple(range(100, 132)),
        ),
        VectorCommand(
            vector=Vector(base=3, stride=1, length=32),
            access=AccessType.WRITE,
            data=tuple(range(200, 232)),
        ),
    ]
    for system in PVA_SYSTEMS:
        sys_tick = build_system(system, replace(base, sim_mode="tick"))
        sys_soa = build_system(system, replace(base, sim_mode="soa"))
        assert sys_tick.run(trace) == sys_soa.run(trace)
        for bank_a, bank_b in zip(sys_tick.banks, sys_soa.banks):
            assert bank_a.device._storage == bank_b.device._storage


def test_refresh_deadline_lands_mid_chain():
    """A refresh interval short enough to expire *inside* a bank's
    service chain; cycles and the bank ledger must still match."""
    base = SystemParams()
    base = replace(
        base, sdram=replace(base.sdram, refresh_interval=40, t_rfc=7)
    )
    trace = build_trace(
        kernel_by_name("saxpy"), stride=19, elements=256, params=base
    )
    tick = assert_modes_agree(trace, base, "pva-sdram", capture_data=True)
    # The short cadence must actually have perturbed the run (otherwise
    # this test exercises nothing): the dense slice is bus-bound so
    # total cycles hide the refresh, but the bank ledger cannot.
    quiet = replace(base, sdram=replace(base.sdram, refresh_interval=0))
    c = simulate(
        build_trace(
            kernel_by_name("saxpy"), stride=19, elements=256, params=quiet
        ),
        replace(quiet, sim_mode="tick"),
        system="pva-sdram",
    )
    assert tick.attribution["bank-0"] != c.attribution["bank-0"]


def test_degenerate_shapes():
    """Stride-1 single-run chains, a single external bank, and a single
    internal bank per device each exercise a boundary of the hit
    schedule's same-row runs; all must match bit for bit."""
    one_ib = SystemParams()
    shapes = (
        SystemParams(),
        SystemParams(num_banks=1),
        replace(one_ib, sdram=replace(one_ib.sdram, internal_banks=1)),
    )
    for base in shapes:
        for stride in (1, 19):
            trace = build_trace(
                kernel_by_name("copy"),
                stride=stride,
                elements=128,
                params=base,
            )
            a, b = run_both(trace, base, "pva-sdram")
            assert a == b, (base.num_banks, base.sdram.internal_banks, stride)


def test_non_power_of_two_internal_banks_unconstructible():
    """The SDRAM timing model only admits power-of-two internal bank
    counts, so a 3-bank device — a shape neither backend was validated
    against — cannot be constructed at all.  Documented here so the gap
    is explicit, not silent."""
    base = SystemParams()
    with pytest.raises(ConfigurationError):
        replace(base, sdram=replace(base.sdram, internal_banks=3))


class TestFuzzedGeometries:
    """Seeded random machine geometries x kernels x strides, all four
    systems, payload comparison included."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_geometry(self, seed):
        rng = random.Random(0xC0FFEE + seed)
        params = SystemParams(
            num_banks=rng.choice((4, 8, 16, 32)),
            cache_line_words=rng.choice((8, 16, 32)),
            num_vector_contexts=rng.choice((1, 2, 4)),
            bypass_paths=rng.random() < 0.5,
            issue_interval=rng.choice((0, 0, 3)),
            bus_turnaround=rng.choice((0, 1, 2)),
            sdram=SDRAMTiming(
                t_rcd=rng.randint(1, 3),
                cas_latency=rng.randint(1, 3),
                t_rp=rng.randint(1, 3),
                t_wr=rng.randint(0, 2),
                internal_banks=rng.choice((2, 4)),
                row_words=rng.choice((64, 128, 256)),
                refresh_interval=rng.choice((0, 777)),
            ),
        )
        kernel = rng.choice(
            ("copy", "copy2", "saxpy", "scale", "swap", "tridiag", "vaxpy")
        )
        stride = rng.choice(PAPER_STRIDES)
        alignment = rng.choice(ALIGNMENTS)
        trace = build_trace(
            kernel_by_name(kernel),
            stride=stride,
            params=params,
            elements=96,
            alignment=alignment,
        )
        for system in ALL_SYSTEMS:
            assert_modes_agree(trace, params, system, capture_data=True)


def _random_trace(rng):
    commands = []
    for _ in range(rng.randint(2, 10)):
        if rng.random() < 0.25:
            n = rng.randint(1, 20)
            addresses = tuple(rng.randrange(0, 1 << 16) for _ in range(n))
            access = (
                AccessType.WRITE if rng.random() < 0.5 else AccessType.READ
            )
            data = (
                tuple(rng.randrange(0, 1000) for _ in range(n))
                if access == AccessType.WRITE
                else None
            )
            commands.append(
                ExplicitCommand(
                    addresses=addresses,
                    access=access,
                    broadcast_cycles=(n + 1) // 2,
                    data=data,
                )
            )
        else:
            length = rng.randint(1, 32)
            vector = Vector(
                base=rng.randrange(0, 1 << 14),
                stride=rng.choice([1, 1, rng.randint(1, 64)]),
                length=length,
            )
            access = (
                AccessType.WRITE if rng.random() < 0.5 else AccessType.READ
            )
            data = (
                tuple(rng.randrange(0, 1000) for _ in range(length))
                if access == AccessType.WRITE
                else None
            )
            commands.append(VectorCommand(vector=vector, access=access, data=data))
    return commands


def test_fuzzed_geometries_and_state_carry():
    """Randomized geometries, timings, policies, refresh cadences (some
    expiring mid-chain), context and FIFO depths, both PVA systems,
    fresh runs AND back-to-back runs on one system object (the
    writeback path must leave the object graph exactly as the reference
    would)."""
    rng = random.Random(20260808)
    for trial in range(60):
        num_banks = rng.choice([1, 2, 4, 8, 16])
        max_transactions = rng.randint(1, 8)
        sdram = dict(
            t_rcd=rng.randint(1, 4),
            cas_latency=rng.randint(1, 4),
            t_rp=rng.randint(1, 4),
            t_wr=rng.randint(1, 3),
            internal_banks=rng.choice([1, 2, 4, 8]),
            row_words=rng.choice([64, 128, 512]),
            refresh_interval=rng.choice([0, 40, 150, 700]),
            t_rfc=rng.randint(2, 10),
        )
        base = SystemParams(
            num_banks=num_banks,
            max_transactions=max_transactions,
            num_vector_contexts=rng.randint(1, 4),
            request_fifo_depth=max(max_transactions, rng.randint(1, 10)),
            fhc_latency=rng.randint(1, 4),
            bus_turnaround=rng.randint(0, 3),
            bypass_paths=rng.random() < 0.5,
            row_policy=rng.choice(ROW_POLICIES),
            issue_interval=rng.choice([0, 0, 17, 256]),
        )
        base = replace(base, sdram=replace(base.sdram, **sdram))
        system = rng.choice(PVA_SYSTEMS)
        trace = _random_trace(rng)
        a, b = run_both(trace, base, system)
        assert a == b, (trial, system)
        # Back-to-back on one system object per mode: run N leaves
        # exactly the state run N+1 of the other backend expects.
        sys_tick = build_system(system, replace(base, sim_mode="tick"))
        sys_soa = build_system(system, replace(base, sim_mode="soa"))
        trace2 = _random_trace(rng)
        for tr in (trace, trace2):
            ra = sys_tick.run(tr, capture_data=True)
            rb = sys_soa.run(tr, capture_data=True)
            assert ra == rb, (trial, system, "back-to-back")


class TestEnvOverride:
    """``REPRO_SIM_MODE`` — the only backend override — wins over the
    params field, and so selects the run loop too."""

    def test_env_forces_tick_loop(self, monkeypatch, prototype_params):
        from repro.sim.events import time_skip_enabled

        monkeypatch.setenv(ENV_SIM_MODE, "tick")
        forced_params = SystemParams()
        assert not time_skip_enabled(forced_params)
        # ... and the forced mode still produces the reference result.
        trace = build_trace(
            kernel_by_name("copy"),
            stride=8,
            params=prototype_params,
            elements=64,
        )
        forced = simulate(trace, forced_params, system="pva-sdram")
        assert forced.backend == "object"
        monkeypatch.delenv(ENV_SIM_MODE)
        reference = simulate(
            trace,
            replace(prototype_params, sim_mode="tick"),
            system="pva-sdram",
        )
        assert forced == reference

    def test_env_forces_skip_loop(self, monkeypatch):
        from repro.sim.events import time_skip_enabled

        monkeypatch.setenv(ENV_SIM_MODE, "soa")
        assert time_skip_enabled(SystemParams(sim_mode="tick"))

    def test_auto_defers_to_params(self, monkeypatch, prototype_params):
        from repro.sim.events import time_skip_enabled

        monkeypatch.setenv(ENV_SIM_MODE, "auto")
        assert time_skip_enabled(prototype_params)
        assert not time_skip_enabled(
            replace(prototype_params, sim_mode="tick")
        )
