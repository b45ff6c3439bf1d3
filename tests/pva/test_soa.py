"""Unit tests for the structure-of-arrays bank automaton internals.

The differential suite (tests/sim/test_soa_equivalence.py) proves the
backend end-to-end; these tests pin the pieces in isolation — the
min-reduction next-event bound, the broadcast memo's lifecycle and
immutability, eligibility gating, and the queueing math on degenerate
element patterns (stride-0/1 equivalents, single bank, non-power-of-two
bank subsets the automaton itself never rejects).
"""

from types import SimpleNamespace

from repro.api import build_system, clear_caches
from repro.params import SystemParams
from repro.pva.schedule import pairs_schedule
from repro.pva.soa import (
    SoaBankAutomaton,
    broadcast_schedules,
    clear_soa_cache,
    soa_cache_info,
    soa_eligible,
    soa_fallback_reason,
)
from repro.sim.events import HORIZON


def _automaton(params=None, banks=None):
    """A fresh automaton over a just-built pva-sdram system's banks
    (optionally a subset — the automaton accepts any bank count)."""
    params = params or SystemParams(sim_mode="soa")
    system = build_system("pva-sdram", params)
    front = SimpleNamespace(
        outstanding={}, commands=(), next_cmd=0, next_issue_allowed=0
    )
    bus = SimpleNamespace(busy_until=0)
    selected = system.banks if banks is None else system.banks[:banks]
    return SoaBankAutomaton(selected, front, bus, params)


class TestNextEventBound:
    def test_min_reduction_over_bound_array(self):
        soa = _automaton()
        for b in range(soa.n):
            soa.bound[b] = 1000 + b
        assert soa.next_event_cycle(0) == 1000

    def test_bound_below_current_cycle_clamps_to_cycle(self):
        # An underestimated bound degrades to a plain tick, never a
        # backwards jump (the kernel contract).
        soa = _automaton()
        for b in range(soa.n):
            soa.bound[b] = 5
        assert soa.next_event_cycle(70) == 70

    def test_single_bank(self):
        soa = _automaton(banks=1)
        assert soa.n == 1
        soa.bound[0] = 42
        assert soa.next_event_cycle(0) == 42

    def test_non_power_of_two_bank_count(self):
        # num_banks is validated to powers of two at the params layer,
        # but the automaton's own math is count-agnostic — future
        # SALP-style models want odd internal splits.
        soa = _automaton(banks=3)
        assert soa.n == 3
        soa.bound[0], soa.bound[1], soa.bound[2] = 90, 7, 800
        assert soa.next_event_cycle(0) == 7

    def test_idle_fresh_system_bound_is_refresh_deadline(self):
        from dataclasses import replace

        base = SystemParams(sim_mode="soa")
        quiet = _automaton(base)
        # No refresh configured: nothing can ever self-wake.
        assert quiet.next_event_cycle(0) == HORIZON
        refreshing = _automaton(
            replace(base, sdram=replace(base.sdram, refresh_interval=780))
        )
        assert refreshing.next_event_cycle(0) == 780


class TestQueueMath:
    def test_stride_zero_pattern_queues_every_element(self):
        # pairs_schedule with one repeated local word — the stride-0
        # degenerate the Vector type itself rejects (stride >= 1).
        soa = _automaton()
        pairs = ((7, 0), (7, 1), (7, 2))
        queued = soa.broadcast_pairs(0, 0, pairs, False, 4, None, None, 4)
        assert queued == 3
        entry = soa._rqf[0][0]
        assert entry[4].count == 3
        assert entry[4].local_words == (7, 7, 7)
        # Explicit snoop timing: ready the cycle after broadcast ends,
        # and the idle bank's next-event bound drops to it.
        assert entry[0] == 5
        assert soa.bound[0] == 5

    def test_stride_one_run_marks_same_row(self):
        soa = _automaton()
        pairs = tuple((word, word) for word in range(4))
        schedule = pairs_schedule(pairs, soa._geom)
        # Four consecutive words on one row: every hop but the last is a
        # same-row transition — the burst fast path's precondition.
        assert schedule.next_same_row == (True, True, True, False)
        queued = soa.broadcast_pairs(1, 0, pairs, False, 0, None, None, 0)
        assert queued == 4

    def test_empty_schedule_opens_staging_and_queues_nothing(self):
        soa = _automaton()
        queued = soa.broadcast_pairs(2, 3, (), False, 0, None, None, 0)
        assert queued == 0
        assert not soa._rqf[2]
        assert soa.bound[2] == HORIZON

    def test_pending_ledger_settles_idle_up_to_call_cycle(self):
        soa = _automaton()
        soa.broadcast_pairs(0, 0, ((3, 0),), False, 9, None, None, 9)
        assert soa.pending[0]
        assert soa.idle_c[0] == 9
        assert soa.acct[0] == 9


class TestBroadcastMemo:
    def test_memo_returns_shared_tuple(self):
        clear_soa_cache()
        params = SystemParams()
        system = build_system("pva-sdram", params)
        geometry = system.banks[0]._geom
        first = broadcast_schedules(0, 19, 64, params.num_banks, geometry)
        again = broadcast_schedules(0, 19, 64, params.num_banks, geometry)
        assert first is again
        assert soa_cache_info().hits >= 1
        assert len(first) == params.num_banks

    def test_memo_entries_not_mutated_by_runs(self):
        from repro.kernels import build_trace, kernel_by_name
        from repro.api import simulate

        clear_soa_cache()
        params = SystemParams(sim_mode="soa")
        trace = build_trace(
            kernel_by_name("copy"), stride=19, elements=64, params=params
        )
        simulate(trace, params, system="pva-sdram")
        assert soa_cache_info().currsize >= 1
        # Snapshot every cached schedule's contents, run again, compare:
        # the automaton must treat the shared tables as read-only.
        system = build_system("pva-sdram", params)
        geometry = system.banks[0]._geom
        vector = trace[0].vector
        schedules = broadcast_schedules(
            vector.base,
            vector.stride,
            vector.length,
            params.num_banks,
            geometry,
        )
        snapshot = [
            None
            if s is None
            else (s.count, s.indices, s.local_words, s.ibanks, s.rows, s.next_same_row)
            for s in schedules
        ]
        simulate(trace, params, system="pva-sdram")
        for schedule, before in zip(schedules, snapshot):
            if schedule is None:
                assert before is None
            else:
                assert before == (
                    schedule.count,
                    schedule.indices,
                    schedule.local_words,
                    schedule.ibanks,
                    schedule.rows,
                    schedule.next_same_row,
                )

    def test_clear_caches_drops_soa_memo(self):
        params = SystemParams()
        system = build_system("pva-sdram", params)
        broadcast_schedules(0, 5, 16, params.num_banks, system.banks[0]._geom)
        assert soa_cache_info().currsize >= 1
        clear_caches()
        assert soa_cache_info().currsize == 0


class TestEligibility:
    def test_fresh_systems_are_eligible(self):
        for name in ("pva-sdram", "pva-sram"):
            system = build_system(name, SystemParams())
            assert soa_eligible(system.banks)

    def test_empty_bank_list_is_not(self):
        assert not soa_eligible([])

    def test_attached_command_log_disables(self):
        system = build_system("pva-sdram", SystemParams())
        system.attach_command_logs()
        assert not soa_eligible(system.banks)

    def test_ineligible_run_still_works_via_fallback(self):
        # sim_mode="soa" with a command log attached silently falls back
        # to the object backend — same results, object speed.
        from repro.kernels import build_trace, kernel_by_name

        params = SystemParams(sim_mode="soa")
        system = build_system("pva-sdram", params)
        logs = system.attach_command_logs()
        trace = build_trace(
            kernel_by_name("copy"), stride=4, elements=32, params=params
        )
        result = system.run(trace)
        assert result.cycles > 0
        assert any(log.commands for log in logs)

    def test_mixed_device_types_are_not(self):
        sdram = build_system("pva-sdram", SystemParams())
        sram = build_system("pva-sram", SystemParams())
        mixed = [sdram.banks[0], sram.banks[1]]
        assert not soa_eligible(mixed)


class TestBackendReporting:
    """RunResult.backend names the backend that actually stepped the
    run, and the reason whenever an array backend fell back."""

    TRACE_PARAMS = dict(stride=4, elements=32)

    def _run(self, params, attach_logs=False):
        from repro.kernels import build_trace, kernel_by_name

        system = build_system("pva-sdram", params)
        if attach_logs:
            system.attach_command_logs()
        trace = build_trace(
            kernel_by_name("copy"), params=params, **self.TRACE_PARAMS
        )
        return system.run(trace)

    def test_default_run_reports_soa(self, monkeypatch):
        from repro.params import ENV_SIM_MODE

        monkeypatch.delenv(ENV_SIM_MODE, raising=False)
        assert self._run(SystemParams()).backend == "soa"

    def test_command_log_is_the_fallback_reason(self, monkeypatch):
        from repro.params import ENV_SIM_MODE

        monkeypatch.delenv(ENV_SIM_MODE, raising=False)
        result = self._run(SystemParams(), attach_logs=True)
        assert result.backend == "object: command log attached"

    def test_requested_object_backend_has_no_reason(self):
        result = self._run(SystemParams(sim_mode="precompute"))
        assert result.backend == "object"

    def test_backend_is_not_part_of_result_equality(self):
        fast = self._run(SystemParams(sim_mode="soa"))
        reference = self._run(SystemParams(sim_mode="tick"))
        assert fast.backend != reference.backend
        assert fast == reference

    def test_analytic_baselines_report_none(self):
        from repro.kernels import build_trace, kernel_by_name

        params = SystemParams()
        trace = build_trace(
            kernel_by_name("copy"), params=params, **self.TRACE_PARAMS
        )
        result = build_system("cacheline-serial", params).run(trace)
        assert result.backend is None

    def test_fallback_reasons(self):
        assert soa_fallback_reason([]) == "no banks"
        system = build_system("pva-sdram", SystemParams())
        assert soa_fallback_reason(system.banks) is None
        sram = build_system("pva-sram", SystemParams())
        mixed = [system.banks[0], sram.banks[1]]
        assert soa_fallback_reason(mixed) == "mixed devices"
        assert (
            soa_fallback_reason(system.banks[1:]) == "banks out of order"
        )
        system.banks[3].rqf.append(object())
        assert soa_fallback_reason(system.banks) == "bank state not idle"


class TestEngineBackendTally:
    def _points(self, params):
        from repro.engine import ExperimentPoint, KernelTraceSpec

        return [
            ExperimentPoint(
                system="pva-sdram",
                trace=KernelTraceSpec("copy", stride=stride, elements=64),
                params=params,
            )
            for stride in (1, 19)
        ]

    def test_default_runs_count_as_soa(self, monkeypatch):
        from repro.engine import ExperimentEngine
        from repro.params import ENV_SIM_MODE

        monkeypatch.delenv(ENV_SIM_MODE, raising=False)
        engine = ExperimentEngine(jobs=1)
        engine.run(self._points(SystemParams()))
        assert engine.metrics.backends == {"soa": 2}
        assert engine.metrics.fallbacks == 0
        assert engine.metrics.fallback_note() == ""

    def test_fallbacks_are_counted_and_shown(self):
        from repro.engine import EngineMetrics, PrintProgress

        metrics = EngineMetrics()
        for backend in ("soa", "object: command log attached", None,
                        "object: command log attached", "object"):
            metrics.record_backend(backend)
        assert metrics.backends == {
            "soa": 1, "object: command log attached": 2, "object": 1,
        }
        assert metrics.fallbacks == 2
        assert metrics.summary()["fallbacks"] == 2
        lines = []
        PrintProgress(emit=lines.append).batch_complete(metrics)
        assert "2 backend fallbacks (command log attached)" in lines[0]
