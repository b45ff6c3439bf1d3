"""Unit tests for the shared clocked-component simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationTimeout
from repro.sim.events import HORIZON
from repro.sim.kernel import PassiveComponent, SimKernel
from repro.sim.runner import SimulationLimits, Watchdog
from repro.sim.stats import ComponentCycles, WorkCounters


class Pulse:
    """A toy component that acts at the scheduled cycles, stalls while
    work remains, and idles after."""

    def __init__(self, name, schedule):
        self.name = name
        self.schedule = sorted(schedule)
        self.fired = []
        self.tick_calls = 0

    def tick(self, cycle):
        self.tick_calls += 1
        if self.schedule and self.schedule[0] == cycle:
            self.fired.append(self.schedule.pop(0))
            return True
        return False

    def next_event_cycle(self, cycle):
        return self.schedule[0] if self.schedule else HORIZON

    def account(self, start, end):
        span = end - start
        return (0, span, 0) if self.schedule else (0, 0, span)

    def done(self):
        return not self.schedule


def _watchdog(budget=4096):
    return Watchdog(
        1,
        system="test",
        limits=SimulationLimits(max_cycles_per_command=budget),
    )


def _run(schedules, time_skip):
    kernel = SimKernel(watchdog=_watchdog(), time_skip=time_skip)
    pulses = [
        kernel.register(Pulse(f"pulse-{i}", schedule))
        for i, schedule in enumerate(schedules)
    ]
    exit_cycle = kernel.run(lambda: all(p.done() for p in pulses))
    return kernel, pulses, exit_cycle


class TestRegistry:
    def test_nameless_component_rejected(self):
        kernel = SimKernel(watchdog=_watchdog())

        class Nameless:
            name = ""

        with pytest.raises(ConfigurationError):
            kernel.register(Nameless())

    def test_duplicate_name_rejected(self):
        kernel = SimKernel(watchdog=_watchdog())
        kernel.register(Pulse("dup", [1]))
        with pytest.raises(ConfigurationError):
            kernel.register(Pulse("dup", [2]))

    def test_run_without_components_rejected(self):
        with pytest.raises(ConfigurationError):
            SimKernel(watchdog=_watchdog()).run(lambda: True)


class TestLoopEquivalence:
    SCHEDULES = [[3, 7, 40], [5, 41], []]

    def test_skip_matches_tick(self):
        tick_kernel, tick_pulses, tick_exit = _run(self.SCHEDULES, False)
        skip_kernel, skip_pulses, skip_exit = _run(self.SCHEDULES, True)
        assert skip_exit == tick_exit
        assert [p.fired for p in skip_pulses] == [
            p.fired for p in tick_pulses
        ]
        assert skip_kernel.ledger == tick_kernel.ledger

    def test_gating_spares_tick_calls_in_both_modes(self):
        """Quiet components are not re-polled while their cached bound
        holds: the tick loop's dispatch gating and the skip loop's jumps
        both visit only the interesting cycles (far below the exit cycle,
        42 here), and skipping never costs extra calls over ticking."""
        _, tick_pulses, tick_exit = _run(self.SCHEDULES, False)
        _, skip_pulses, _ = _run(self.SCHEDULES, True)
        assert skip_pulses[0].tick_calls <= tick_pulses[0].tick_calls
        assert tick_pulses[0].tick_calls < tick_exit // 2

    def test_ledger_buckets_sum_to_exit_cycle(self):
        for time_skip in (False, True):
            kernel, _, exit_cycle = _run(self.SCHEDULES, time_skip)
            for entry in kernel.ledger.values():
                assert entry.total == exit_cycle

    def test_passive_component_never_wakes_the_kernel(self):
        kernel = SimKernel(watchdog=_watchdog(), time_skip=True)
        pulse = kernel.register(Pulse("pulse", [9]))
        kernel.register(PassiveComponent())
        exit_cycle = kernel.run(pulse.done)
        assert exit_cycle == 10
        # The pulse visited far fewer than 10 cycles: the passive
        # component's HORIZON bound let the jump straight to cycle 9.
        assert pulse.tick_calls <= 3
        assert kernel.ledger["passive"].idle == exit_cycle


class TestWatchdog:
    @pytest.mark.parametrize("time_skip", [False, True])
    def test_deadlock_times_out(self, time_skip):
        """A done() that never holds must raise SimulationTimeout even
        when every bound is HORIZON — the skip target is capped at the
        watchdog's cycle limit."""
        kernel = SimKernel(
            watchdog=_watchdog(budget=64), time_skip=time_skip
        )
        kernel.register(Pulse("stuck", []))
        with pytest.raises(SimulationTimeout):
            kernel.run(lambda: False)

    def test_budget_boundary_is_exact(self):
        """Regression for the limit-vs-skip off-by-one: check() admits
        the limit cycle itself and rejects the one after, and clamp_skip
        — the one place skip targets meet the budget — caps at exactly
        the first rejected cycle."""
        dog = _watchdog(budget=64)
        limit = dog.cycle_limit
        dog.check(limit)  # the boundary cycle is still inside the budget
        with pytest.raises(SimulationTimeout):
            dog.check(limit + 1)
        assert dog.clamp_skip(HORIZON) == limit + 1
        assert dog.clamp_skip(limit + 2) == limit + 1
        # Targets at or inside the budget pass through untouched —
        # clamping them would stall legitimate jumps.
        assert dog.clamp_skip(limit + 1) == limit + 1
        assert dog.clamp_skip(limit) == limit

    @pytest.mark.parametrize("time_skip", [False, True])
    def test_deadlock_raises_at_first_cycle_past_limit(self, time_skip):
        """Both loops must reach the budget boundary exactly: the raise
        happens at cycle limit + 1, not earlier (budget shortened) nor
        later (overshoot)."""

        class Recording(Watchdog):
            last_checked = -1

            def check(self, cycle):
                self.last_checked = cycle
                super().check(cycle)

        dog = Recording(
            1,
            system="test",
            limits=SimulationLimits(max_cycles_per_command=64),
        )
        kernel = SimKernel(watchdog=dog, time_skip=time_skip)
        kernel.register(Pulse("stuck", []))
        with pytest.raises(SimulationTimeout):
            kernel.run(lambda: False)
        assert dog.last_checked == dog.cycle_limit + 1


class TestFinalize:
    def test_tail_padding_completes_the_ledger(self):
        kernel, _, exit_cycle = _run([[3]], True)
        ledger = kernel.finalize(exit_cycle + 10)
        entry = ledger["pulse-0"]
        assert entry.total == exit_cycle + 10
        assert entry.idle >= 10  # the padded tail is post-work idle

    def test_idempotent_for_fixed_total(self):
        kernel, _, exit_cycle = _run([[3]], True)
        first = kernel.finalize(exit_cycle + 5)
        second = kernel.finalize(exit_cycle + 5)
        assert first == second

    def test_conflicting_totals_rejected(self):
        kernel, _, exit_cycle = _run([[3]], True)
        kernel.finalize(exit_cycle + 5)
        with pytest.raises(ConfigurationError):
            kernel.finalize(exit_cycle + 6)

    def test_total_below_exit_cycle_rejected(self):
        kernel, _, exit_cycle = _run([[3]], True)
        with pytest.raises(ConfigurationError):
            kernel.finalize(exit_cycle - 1)

    def test_ledger_values_are_component_cycles(self):
        kernel, _, exit_cycle = _run([[3]], False)
        ledger = kernel.finalize(exit_cycle)
        assert all(
            isinstance(entry, ComponentCycles) for entry in ledger.values()
        )


class Duo:
    """A toy self-accounting component speaking for two logical parts
    (the shape the SoA bank automaton registers with)."""

    name = "duo"
    ledger_names = ("part-a", "part-b")

    def __init__(self, schedule, missing=False):
        self.inner = Pulse("inner", schedule)
        self.missing = missing

    def tick(self, cycle):
        return self.inner.tick(cycle)

    def next_event_cycle(self, cycle):
        return self.inner.next_event_cycle(cycle)

    def account(self, start, end):
        return (0, 0, end - start)  # discarded placeholder

    def done(self):
        return self.inner.done()

    def finalize_ledger(self, total_cycles):
        out = {"part-a": ComponentCycles(busy=total_cycles)}
        if not self.missing:
            out["part-b"] = ComponentCycles(idle=total_cycles)
        return out


class TestSelfAccounting:
    def test_ledger_names_reserved_at_register(self):
        kernel = SimKernel(watchdog=_watchdog())
        kernel.register(Duo([1]))
        with pytest.raises(ConfigurationError):
            kernel.register(Pulse("part-a", [2]))

    def test_finalize_merges_component_ledger(self):
        for time_skip in (False, True):
            kernel = SimKernel(watchdog=_watchdog(), time_skip=time_skip)
            duo = kernel.register(Duo([1, 5]))
            exit_cycle = kernel.run(duo.done)
            ledger = kernel.finalize(exit_cycle + 3)
            assert ledger["part-a"] == ComponentCycles(busy=exit_cycle + 3)
            assert ledger["part-b"] == ComponentCycles(idle=exit_cycle + 3)
            assert "duo" not in ledger

    def test_missing_ledger_entry_rejected(self):
        kernel = SimKernel(watchdog=_watchdog())
        duo = kernel.register(Duo([1], missing=True))
        exit_cycle = kernel.run(duo.done)
        with pytest.raises(ConfigurationError):
            kernel.finalize(exit_cycle)


class TestEventToEventAdvance:
    """The skip loop re-polls every bound right after an acted iteration
    and jumps straight to the next event; the reference loop still
    visits every cycle."""

    SCHEDULES = [[3, 4, 20], [10, 30]]

    def test_jump_after_action_matches_reference(self):
        tick_kernel, tick_pulses, tick_exit = _run(self.SCHEDULES, False)
        skip_kernel, skip_pulses, skip_exit = _run(self.SCHEDULES, True)
        assert skip_exit == tick_exit == 31
        assert [p.fired for p in skip_pulses] == [
            p.fired for p in tick_pulses
        ]
        assert skip_kernel.finalize(skip_exit) == tick_kernel.finalize(
            tick_exit
        )
        # Cycle 0 plus the five event cycles — no empty visit after an
        # action — and every other cycle jumped over.
        assert skip_kernel.work() == WorkCounters(
            visits=6, dispatches=10, skipped=25
        )
        assert tick_kernel.work().visits == tick_exit
        assert tick_kernel.work().skipped == 0

    def test_done_right_after_action_exits_next_cycle(self):
        """The exit cycle does not move: ``done()`` is asked before the
        post-action jump, so a far-off bound elsewhere is never taken."""
        kernel = SimKernel(watchdog=_watchdog(), time_skip=True)
        pulse = kernel.register(Pulse("pulse", [5]))
        kernel.register(Pulse("far", [900]))
        assert kernel.run(pulse.done) == 6
        ledger = kernel.finalize(6)
        assert ledger["pulse"] == ComponentCycles(busy=1, stalled=5)
        assert ledger["far"] == ComponentCycles(stalled=6)

    def test_passive_component_is_never_ticked_or_polled(self):
        class Counting(PassiveComponent):
            name = "counting"
            calls = 0

            def tick(self, cycle):
                Counting.calls += 1
                return False

            def next_event_cycle(self, cycle):
                Counting.calls += 1
                return HORIZON

            def account(self, start, end):
                return (end - start, 0, 0)

        for time_skip in (False, True):
            kernel = SimKernel(watchdog=_watchdog(), time_skip=time_skip)
            pulse = kernel.register(Pulse("pulse", [4, 9]))
            kernel.register(Counting())
            exit_cycle = kernel.run(pulse.done)
            assert Counting.calls == 0
            # Still attributed: one span per advance, covering the run.
            assert kernel.ledger["counting"] == ComponentCycles(
                busy=exit_cycle
            )

    def test_self_accounting_component_is_never_accounted(self):
        class Strict(Duo):
            def account(self, start, end):
                raise AssertionError("self-accounting: account() called")

        for time_skip in (False, True):
            kernel = SimKernel(watchdog=_watchdog(), time_skip=time_skip)
            duo = kernel.register(Strict([2, 7]))
            exit_cycle = kernel.run(duo.done)
            kernel.finalize(exit_cycle + 4)

    def test_busy_deadlock_times_out_at_the_limit(self):
        """A component that keeps acting but never finishes: the
        post-action jumps are clamped too, so the run still raises at
        the first cycle past the budget."""

        class Recording(Watchdog):
            last_checked = -1

            def check(self, cycle):
                self.last_checked = cycle
                super().check(cycle)

        dog = Recording(
            1,
            system="test",
            limits=SimulationLimits(max_cycles_per_command=64),
        )
        kernel = SimKernel(watchdog=dog, time_skip=True)
        kernel.register(Pulse("busy", range(0, 1000, 10)))
        with pytest.raises(SimulationTimeout):
            kernel.run(lambda: False)
        assert dog.last_checked == dog.cycle_limit + 1
