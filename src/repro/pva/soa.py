"""The structure-of-arrays bank automaton (``sim_mode="soa"``).

The precompute backend (PR 5) already resolves *what* every bank does at
broadcast time — the full per-bank hit schedule of
:mod:`repro.pva.schedule`.  What remained per-cycle was the *object
graph*: sixteen ``BankController``/``InternalBank``/``Restimer`` trees,
each ticked through the kernel's component dispatch.  This module
collapses all of them into one table-driven automaton:

* restimer deadlines (activate/column/precharge ready-at), open rows,
  refresh deadlines, FHC occupancy and next-event cycles live in flat
  ``array('q')`` parallel arrays indexed by ``bank`` (or
  ``bank * internal_banks + ib``);
* vector contexts are small mutable lists (schedule-cursor state only —
  ``sim_mode="soa"`` forces ``precompute=True``, so every request
  carries a :class:`~repro.pva.schedule.BankSchedule` and the
  incremental ``device.locate`` fallbacks are never needed);
* one kernel component (:class:`SoaBankAutomaton`) speaks for all
  sixteen ``bank-*`` attribution-ledger entries via the kernel's
  self-accounting protocol, and advances the kernel's skip bound with a
  single min-reduction over the deadline array (numpy-accelerated behind
  a feature probe when the bank count makes it worthwhile).

**Run-ahead batching.**  Banks interact with the rest of the system only
through broadcasts (input, applied at the front end's call cycle),
column issues reported into the front end's transaction table (output),
and the staging units (drained by the front end strictly after a
transaction fully issues).  Each :meth:`SoaBankAutomaton.tick` therefore
processes a whole *batch* of bank events ahead of kernel time, up to

``h = max(cycle + 1, bus.busy_until, front.next_issue_allowed)``

(or unbounded once the command trace is drained) — a proven lower bound
on the next broadcast call cycle, because the front end ticks first in
registration order and both terms are monotone and only front-mutated.
Within ``[bound, h)`` nothing external can change a bank's inputs, so
replaying its event chain early is exact.

**Cycle-exactness argument** (the invariants the differential suite
pins down):

1. *Action cycles.*  Each candidate cycle is probed with a
   decision-for-decision mirror of ``BankController.tick`` /
   ``AccessScheduler.tick``; the next candidate after an action or a
   failed probe at ``t`` is ``max(bank_bound(t), t + 1)`` where
   ``bank_bound`` mirrors the object model's ``next_event_cycle`` lower
   bounds.  A conservative bound degrades to a denser probe walk, never
   to a different action cycle.
2. *Refresh.*  The object model fires auto-refresh at exactly the
   deadline in every mode (the refresh term is unconditional in the bank
   bound, so the kernel always visits it); the automaton fires it when a
   candidate reaches the deadline — the same cycle — and, with no
   pending work, only once kernel time itself reaches the deadline
   (matching the run exiting before tail refreshes ever fire).
3. *Completion.*  Column issues are recorded into the front end's
   transaction table at batch time (early), but retirement additionally
   requires ``cycle >= last_data_cycle`` — and every issue cycle is
   ``<=`` its data cycle — so transactions retire at the identical
   kernel cycle and the staging units are drained only after their data
   genuinely arrived.
4. *Broadcast state.*  At a broadcast call cycle every batch has run
   strictly past its events (``h`` of the previous batches is a lower
   bound on the call cycle), so the FIFO/window/idle state the broadcast
   observes equals the object model's.
5. *Ledger.*  Per-bank busy/stalled/idle counters are settled span-wise:
   action cycles are busy, quiet spans are stalled iff the FIFO or
   window was non-empty after the preceding action (``pending``),
   exactly ``_BankComponent.account``'s classification, which is
   visited-cycle invariant.  The kernel merges the buckets at
   ``finalize`` through the self-accounting protocol.

The only object-model statistic intentionally *not* reproduced is
``AccessScheduler.idle_cycles`` — it counts visited-but-unproductive
ticks, is run-loop dependent even between the tick and skip modes, and
is not part of :class:`~repro.sim.stats.RunResult`.

On any exit from :meth:`PVAMemorySystem.run` the automaton writes the
array state back into the object graph (:meth:`writeback`), so device
statistics, storage peeks and back-to-back runs behave identically to
the other backends.  In-flight FIFO entries and vector contexts are not
reconstructed as objects — they are empty on every successful run, and
after a mid-run exception (watchdog timeout, injected fault) the object
graph is defined only well enough to be inspected/reset, same as the
other backends guarantee.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.errors import CapacityError, ProtocolError
from repro.pva.schedule import (
    SCHEDULE_CACHE_SIZE,
    BankSchedule,
    pairs_schedule,
)
# The uncached builder, under the module-level name broadcast_schedules
# resolves at call time (so a wrapper installed on this module sees every
# per-bank build).
from repro.pva.schedule import build_stride_schedule as stride_schedule
from repro.pva.rowpolicy import PaperPolicy
from repro.sdram.device import SDRAMDevice
from repro.sim.events import HORIZON
from repro.sim.stats import ComponentCycles
from repro.sram.device import SRAMDevice

try:  # feature probe: numpy accelerates the skip-bound min-reduction
    import numpy as _np
except Exception:  # pragma: no cover - numpy is optional
    _np = None

__all__ = [
    "SoaBankAutomaton",
    "broadcast_schedules",
    "clear_soa_cache",
    "numpy_bound_enabled",
    "soa_cache_info",
    "soa_eligible",
    "soa_fallback_reason",
]

#: Banks needed before the numpy min-reduction beats a plain ``min()``
#: over the deadline array (interpreter call overhead dominates below).
_NUMPY_MIN_BANKS = 64


@lru_cache(maxsize=None)
def numpy_bound_enabled(num_banks: int) -> bool:
    """Module-level cached decision: accelerate the per-bank deadline
    min-reduction with numpy for this bank count?

    Folds the feature probe (is numpy importable?), the bank-count
    threshold (:data:`_NUMPY_MIN_BANKS`) and the ``array('q')`` width
    check into one memoized answer shared by every array-backed backend
    (the SoA automaton and the closed-form window backend), instead of
    re-deriving it per automaton construction.
    """
    return (
        _np is not None
        and num_banks >= _NUMPY_MIN_BANKS
        and array("q").itemsize == 8
    )

#: Memo bound for the all-banks schedule tuples (one entry per distinct
#: broadcast vector).  The per-bank tables underneath are built uncached
#: (``stride_schedule`` here is the plain builder, not the object
#: backend's LRU), so this is the SoA path's only schedule memo, and at
#: sixteen tables per entry it holds the same table budget as the
#: object backend's ``SCHEDULE_CACHE_SIZE``-entry LRU.
_BROADCAST_CACHE_SIZE = SCHEDULE_CACHE_SIZE // 16

# Vector-context slot layout: a context is a flat mutable list, the
# SoA replacement for repro.pva.vector_context.VectorContext.  Slots
# 0-4 are the (immutable, shared) schedule tuples; 5+ are the cursor.
C_LW = 0  # local_words tuple
C_IDX = 1  # indices tuple
C_IB = 2  # ibanks tuple
C_ROW = 3  # rows tuple
C_NSR = 4  # next_same_row tuple
C_POS = 5  # cursor position
C_REM = 6  # elements remaining
C_TXN = 7  # transaction id
C_W = 8  # 1 = write, 0 = read
C_LINE = 9  # staged write line (tuple) or None
C_ISSUED = 10  # has the first operation been issued?
C_FIB = 11  # first element's internal bank (predictor training)
C_FROW = 12  # first element's row (predictor training)
C_RSTARTS = 13  # schedule run_starts tuple (same-row run segmentation)
C_RLENS = 14  # schedule run_lengths tuple
C_MONO = 15  # schedule mono_from (single-internal-bank suffix marker)

# Request-FIFO entry layout (replaces repro.pva.request.BCRequest).
R_READY = 0  # ready cycle (FHP/FHC pipeline + bypass timing)
R_TXN = 1
R_W = 2
R_LINE = 3
R_SCHED = 4  # BankSchedule


@lru_cache(maxsize=_BROADCAST_CACHE_SIZE)
def broadcast_schedules(
    base: int,
    stride: int,
    length: int,
    num_banks: int,
    geometry: Tuple,
) -> Tuple[Optional[BankSchedule], ...]:
    """All banks' hit tables for one vector command, as a tuple indexed
    by bank number (``None`` where the bank owns no element).

    One memo probe per broadcast instead of ``num_banks``; the tables
    themselves come from the same closed-form builder as the object
    backend's :func:`~repro.pva.schedule.stride_schedule` LRU, so the two
    backends can never disagree about a schedule's contents.
    """
    return tuple(
        stride_schedule(base, stride, length, bank, num_banks, geometry)
        for bank in range(num_banks)
    )


def soa_cache_info():
    """The broadcast-schedule memo's ``lru_cache`` statistics."""
    return broadcast_schedules.cache_info()


def clear_soa_cache() -> None:
    """Drop the broadcast-schedule memo (see
    :func:`repro.api.clear_caches`)."""
    broadcast_schedules.cache_clear()


def soa_fallback_reason(banks) -> Optional[str]:
    """Why this run may *not* be stepped by the array automaton, or
    ``None`` when it may.

    Conservative: the automaton mirrors exactly the
    :class:`~repro.sdram.device.SDRAMDevice` /
    :class:`~repro.sram.device.SRAMDevice` models (homogeneously), with
    no command log attached, precomputed schedules available, and every
    bank idle (a fresh system, or one whose previous run completed).
    Anything else falls back to the object backend — same results,
    object speed — and the reason is reported as
    :attr:`RunResult.backend <repro.sim.stats.RunResult.backend>`.
    """
    if not banks:
        return "no banks"
    device_type = type(banks[0].device)
    if device_type is not SDRAMDevice and device_type is not SRAMDevice:
        return f"unsupported device {device_type.__name__}"
    geometry = banks[0]._geom
    if geometry is None:
        return "no schedule geometry"
    for index, bank in enumerate(banks):
        device = bank.device
        if type(device) is not device_type:
            return "mixed devices"
        if device.log is not None:
            return "command log attached"
        if bank._geom != geometry:
            return "mixed bank geometries"
        if bank.bank != index:
            return "banks out of order"
        if bank.rqf or bank.scheduler.window:
            return "bank state not idle"
    return None


def soa_eligible(banks) -> bool:
    """May this run be stepped by the array automaton?  (See
    :func:`soa_fallback_reason` for the conditions.)"""
    return soa_fallback_reason(banks) is None


class SoaBankAutomaton:
    """All bank controllers of one run, stepped as flat-array operations.

    Registers with the kernel as a single self-accounting component
    (``ledger_names`` = the sixteen ``bank-*`` entries); construction
    loads the object graph's state into the arrays, :meth:`writeback`
    restores it.
    """

    name = "banks"

    def __init__(self, banks, front, bus, params):
        n = len(banks)
        self.n = n
        self.banks = banks
        self.front = front
        self.bus = bus
        self.outstanding = front.outstanding
        self.ncmds = len(front.commands)
        self.ledger_names = tuple(f"bank-{bank.bank}" for bank in banks)

        device0 = banks[0].device
        self.has_rows = bool(device0.has_rows)
        self.nib = device0.timing.internal_banks if self.has_rows else 1
        if self.has_rows:
            timing = device0.timing
            self.t_rcd = timing.t_rcd
            self.t_rp = timing.t_rp
            self.t_rfc = timing.t_rfc
            self.read_lat = timing.cas_latency
            self.refresh_interval = timing.refresh_interval
        else:
            self.t_rcd = self.t_rp = self.t_rfc = 0
            self.read_lat = device0.timing.access_cycles
            self.refresh_interval = 0
        #: The scheduler stamps write data cycles with the *SDRAM* write
        #: recovery even when the device is SRAM (see
        #: AccessScheduler._issue_column) — mirror that exactly.
        self.t_wr = params.sdram.t_wr
        self.ta = device0.bus_turnaround
        self.fifo_depth = params.request_fifo_depth
        self.max_ctx = params.num_vector_contexts
        self.bypass = params.bypass_paths
        self.fhc_latency = params.fhc_latency
        self.num_banks = params.num_banks
        self.bank_bits = params.bank_bits
        self._pla = banks[0].fhp.pla
        self._geom = banks[0]._geom

        nu = n * self.nib
        # -- per-internal-bank state (index u = bank * nib + ib) -------
        self.orow = array("q", [-1]) * nu  # open row, -1 = closed
        self.act = array("q", bytes(8 * nu))  # activate ready-at
        self.col = array("q", bytes(8 * nu))  # column ready-at
        self.pre = array("q", bytes(8 * nu))  # precharge ready-at
        self.ib_act = array("q", bytes(8 * nu))
        self.ib_pre = array("q", bytes(8 * nu))
        self.ib_ap = array("q", bytes(8 * nu))
        # -- per-bank state --------------------------------------------
        self.bound = array("q", bytes(8 * n))  # next-event candidate
        self.nr = array("q", bytes(8 * n))  # next refresh deadline
        self.last_col = array("q", bytes(8 * n))  # device pin state
        self.last_dir = array("q", bytes(8 * n))  # -1 none, 0 R, 1 W
        self.fhc_busy = array("q", bytes(8 * n))
        self.fhc_calcs = array("q", bytes(8 * n))
        self.reads = array("q", bytes(8 * n))
        self.writes = array("q", bytes(8 * n))
        self.turnarounds = array("q", bytes(8 * n))
        self.refreshes = array("q", bytes(8 * n))
        self.sched_act = array("q", bytes(8 * n))
        self.sched_pre = array("q", bytes(8 * n))
        self.sched_col = array("q", bytes(8 * n))
        # -- attribution ledger ----------------------------------------
        self.busy_c = array("q", bytes(8 * n))
        self.stalled_c = array("q", bytes(8 * n))
        self.idle_c = array("q", bytes(8 * n))
        self.acct = array("q", bytes(8 * n))  # settled-to cycle
        self.pending = [False] * n  # rqf/window non-empty after acct

        # -- shared mutable structures (no writeback needed) -----------
        self._rqf: List[deque] = [deque() for _ in range(n)]
        self._win: List[list] = [[] for _ in range(n)]
        self.storage = [bank.device._storage for bank in banks]
        self.rsu = [bank.read_staging for bank in banks]
        self.wsu = [bank.write_staging for bank in banks]
        self.policies = [bank.scheduler.policy for bank in banks]
        self.paper = [type(p) is PaperPolicy for p in self.policies]
        self.predict = [
            p.autoprecharge_predict if type(p) is PaperPolicy else None
            for p in self.policies
        ]
        self.lrs = [bank.scheduler._last_row_seen for bank in banks]
        self.asc = [bank.scheduler._activated_since_column for bank in banks]

        # -- load the object graph's current state ---------------------
        nib = self.nib
        for b, bank in enumerate(banks):
            device = bank.device
            self.last_col[b] = device._last_column_cycle
            lww = device._last_was_write
            self.last_dir[b] = -1 if lww is None else int(lww)
            self.reads[b] = device.reads
            self.writes[b] = device.writes
            self.turnarounds[b] = device.turnarounds
            self.fhc_busy[b] = bank.fhc._busy_until
            self.fhc_calcs[b] = bank.fhc.calculations
            self.sched_act[b] = bank.scheduler.activates
            self.sched_pre[b] = bank.scheduler.precharges
            self.sched_col[b] = bank.scheduler.columns
            if self.has_rows:
                self.refreshes[b] = device.refreshes
                nxt = device._next_refresh
                self.nr[b] = HORIZON if nxt is None else nxt
                base_u = b * nib
                for ib, internal in enumerate(device.banks):
                    u = base_u + ib
                    row = internal.open_row
                    self.orow[u] = -1 if row is None else row
                    self.act[u] = internal._activate_timer._ready_at
                    self.col[u] = internal._column_timer._ready_at
                    self.pre[u] = internal._precharge_timer._ready_at
                    self.ib_act[u] = internal.activates
                    self.ib_pre[u] = internal.precharges
                    self.ib_ap[u] = internal.auto_precharges
            else:
                self.nr[b] = HORIZON
            # No queued work at load time (soa_eligible guarantees it):
            # the only standing event is the refresh deadline.
            self.bound[b] = self.nr[b]

        self._np_bound = (
            _np.frombuffer(self.bound, dtype=_np.int64)
            if numpy_bound_enabled(n)
            else None
        )

    # ------------------------------------------------------------- #
    # Kernel component protocol
    # ------------------------------------------------------------- #

    def tick(self, cycle: int) -> bool:
        """Run every bank's event batch up to the broadcast horizon.

        Returns True iff any event (even one ahead of kernel time) was
        processed — run-ahead mutates completion-visible state, so the
        kernel's bound cache must be voided.
        """
        front = self.front
        if front.next_cmd < self.ncmds:
            h = front.next_issue_allowed
            busy = self.bus.busy_until
            if busy > h:
                h = busy
            nxt = cycle + 1
            if nxt > h:
                h = nxt
        else:
            h = HORIZON
        acted = False
        bound = self.bound
        run_bank = self._run_bank
        for b in range(self.n):
            if bound[b] < h and run_bank(b, cycle, h):
                acted = True
        return acted

    def next_event_cycle(self, cycle: int) -> int:
        """Single min-reduction over the per-bank deadline array."""
        np_bound = self._np_bound
        if np_bound is not None:
            target = int(np_bound.min())
        else:
            target = min(self.bound)
        return target if target > cycle else cycle

    def account(self, start: int, end: int) -> Tuple[int, int, int]:
        """Constant-cost placeholder: the automaton is self-accounting
        (the kernel discards this split; see SimKernel.register)."""
        return (0, 0, end - start)

    def finalize_ledger(self, total_cycles: int) -> Dict[str, ComponentCycles]:
        """Close every bank's busy/stalled/idle ledger at
        ``total_cycles`` and return the ``bank-*`` entries."""
        out: Dict[str, ComponentCycles] = {}
        for b in range(self.n):
            self._settle(b, total_cycles)
            self.acct[b] = total_cycles
            out[f"bank-{b}"] = ComponentCycles(
                busy=self.busy_c[b],
                stalled=self.stalled_c[b],
                idle=self.idle_c[b],
            )
        return out

    # ------------------------------------------------------------- #
    # Batch stepping
    # ------------------------------------------------------------- #

    def _settle(self, b: int, upto: int) -> None:
        """Attribute the quiet span ``[acct, upto)``: stalled while work
        was pending after the last action, idle otherwise."""
        acct = self.acct[b]
        if upto > acct:
            if self.pending[b]:
                self.stalled_c[b] += upto - acct
            else:
                self.idle_c[b] += upto - acct

    def _run_bank(self, b: int, now: int, h: int) -> bool:
        """Process bank ``b``'s events from its stored candidate up to
        (but excluding) ``h``; leave ``bound[b]`` at the next candidate.
        Returns True iff any event was processed.

        This is the fused hot loop: BankController.tick's dequeue, the
        scheduler's row pass, the column path and the next-event bound
        inlined with every array held in a local.  Two load-bearing
        fusions:

        * The next-event bound is accumulated *during* a failing probe
          (every blocked candidate records the cycle its timer frees)
          instead of by a separate scan, so a failed probe costs one
          walk, not two; after an action the next probe simply lands on
          the action's floor (``t + cost``).
        * The column path issues whole same-row runs as **bursts**
          whenever every in-flight context sits on its open row — then
          no row operation can fire on any burst cycle (row ops need a
          row mismatch and contexts only move when they issue), the
          oldest context matches the pin polarity every cycle, and the
          object model provably issues one of its columns per cycle —
          so the run collapses into one batch of array writes.  The run
          is clipped at the batch horizon, the refresh deadline and the
          next FIFO dequeue cycle; a clipped tail still has same-row
          hits ahead, so its auto-precharge decisions would all be
          False and nothing is lost by re-probing it.
        """
        bound = self.bound
        nr = self.nr
        rqf = self._rqf[b]
        win = self._win[b]
        orow = self.orow
        act = self.act
        col = self.col
        pre = self.pre
        busy_c = self.busy_c
        stalled_c = self.stalled_c
        idle_c = self.idle_c
        acct = self.acct
        pending = self.pending
        last_col_a = self.last_col
        last_dir_a = self.last_dir
        has_rows = self.has_rows
        max_ctx = self.max_ctx
        ta = self.ta
        t_wr = self.t_wr
        t_rp = self.t_rp
        t_rcd = self.t_rcd
        base_u = b * self.nib
        burst_ok = self.paper[b] or not has_rows
        storage = self.storage[b]
        outstanding = self.outstanding
        processed = False
        t = bound[b]
        while True:
            if not rqf and not win:
                # Only the refresh deadline can act, and with no pending
                # work it may not run ahead of kernel time: the object
                # model's run can exit before a tail refresh ever fires.
                deadline = nr[b]
                if deadline <= now:
                    a = acct[b]
                    if deadline > a:
                        if pending[b]:
                            stalled_c[b] += deadline - a
                        else:
                            idle_c[b] += deadline - a
                    busy_c[b] += 1
                    acct[b] = deadline + 1
                    self._do_refresh(b, deadline)
                    processed = True
                    t = nr[b]
                    continue
                bound[b] = deadline
                return processed
            if t >= h:
                bound[b] = t
                return processed
            deadline = nr[b]
            if t >= deadline:
                # Auto-refresh consumes its cycle before any scheduler
                # work, exactly at the deadline (BankController.tick
                # checks maybe_refresh first and the kernel always
                # visits the deadline cycle).
                a = acct[b]
                if deadline > a:
                    if pending[b]:
                        stalled_c[b] += deadline - a
                    else:
                        idle_c[b] += deadline - a
                busy_c[b] += 1
                acct[b] = deadline + 1
                pending[b] = True
                self._do_refresh(b, deadline)
                processed = True
                t = deadline + 1
                continue
            # ---- one probed cycle: BankController.tick sans refresh --
            # ``nb`` accumulates the next-event bound along every
            # *failing* branch (the candidate cycle each blocked timer
            # frees); an action discards it in favour of the floor.
            progressed = False
            nwin = len(win)
            nb = deadline
            if rqf and nwin < max_ctx:
                ready = rqf[0][0]
                if ready <= t:
                    head = rqf.popleft()
                    sched = head[4]
                    win.append(
                        # VectorContext.__init__, cursor mode.
                        [
                            sched.local_words,
                            sched.indices,
                            sched.ibanks,
                            sched.rows,
                            sched.next_same_row,
                            0,
                            sched.count,
                            head[1],
                            head[2],
                            head[3],
                            False,
                            sched.ibanks[0],
                            sched.rows[0],
                            sched.run_starts,
                            sched.run_lengths,
                            sched.mono_from,
                        ]
                    )
                    progressed = True
                    nwin += 1
                elif ready < nb:
                    nb = ready
            cost = 0
            if nwin:
                # -- row pass (AccessScheduler._try_row_operation),
                #    also deciding burst eligibility: every context on
                #    its open row means no row op can preempt a burst.
                all_open = True
                if has_rows:
                    position = 0
                    for vc in win:
                        pos = vc[5]
                        ib = vc[2][pos]
                        row = vc[3][pos]
                        u = base_u + ib
                        open_row = orow[u]
                        if open_row == row:
                            position += 1
                            continue
                        all_open = False
                        if open_row >= 0:
                            if position != 0 and self._hits_open(
                                win, vc, ib, open_row
                            ):
                                position += 1
                                continue
                            x = pre[u]
                            if t >= x:
                                # precharge: InternalBank._close(t)
                                orow[u] = -1
                                release = t + t_rp
                                if release > act[u]:
                                    act[u] = release
                                self.ib_pre[u] += 1
                                self.sched_pre[b] += 1
                                cost = 1
                                break
                            if x < nb:
                                nb = x
                        else:
                            x = act[u]
                            if t >= x:
                                if not vc[10]:
                                    self._note_first(b, vc, ib)
                                orow[u] = row
                                hold = t + t_rcd
                                if hold > col[u]:
                                    col[u] = hold
                                if hold > pre[u]:
                                    pre[u] = hold
                                self.lrs[b][ib] = row
                                self.asc[b][ib] = True
                                self.ib_act[u] += 1
                                self.sched_act[b] += 1
                                cost = 1
                                break
                            if x < nb:
                                nb = x
                        position += 1
                if cost == 0:
                    vc0 = win[0]
                    last_col = last_col_a[b]
                    last_dir = last_dir_a[b]
                    w = vc0[8]
                    if (
                        burst_ok
                        and all_open
                        and t > last_col
                        and (
                            last_dir < 0
                            or w == last_dir
                            or t >= last_col + 1 + ta
                        )
                    ):
                        # -- burst: the oldest context's same-row run --
                        pos = vc0[5]
                        if has_rows:
                            ib = vc0[2][pos]
                            row = vc0[3][pos]
                            u = base_u + ib
                            ok = t >= col[u]
                        else:
                            ib = 0
                            row = 0
                            u = -1
                            ok = True
                        if ok:
                            rem = vc0[6]
                            if has_rows:
                                nsr = vc0[4]
                                run = 1
                                while run < rem and nsr[pos + run - 1]:
                                    run += 1
                            else:
                                run = rem
                            cap = h - t
                            c2 = deadline - t
                            if c2 < cap:
                                cap = c2
                            if rqf and nwin < max_ctx:
                                # The object model dequeues the next
                                # FIFO head at its ready cycle (>= t+1:
                                # at most one dequeue per cycle, and
                                # this cycle's already happened).
                                c3 = rqf[0][0] - t
                                if c3 < 1:
                                    c3 = 1
                                if c3 < cap:
                                    cap = c3
                            clipped = run > cap
                            if clipped:
                                run = cap
                            if not vc0[10]:
                                self._note_first(b, vc0, ib)
                            end = t + run - 1
                            if last_dir >= 0 and w != last_dir:
                                self.turnarounds[b] += 1
                            last_col_a[b] = end
                            last_dir_a[b] = w
                            # -- data movement, batched ----------------
                            local_words = vc0[0]
                            indices = vc0[1]
                            txn_id = vc0[7]
                            if w:
                                line = vc0[9]
                                for k in range(pos, pos + run):
                                    storage[local_words[k]] = line[
                                        indices[k]
                                    ]
                                self.writes[b] += run
                                data_cycle = end + t_wr
                                slot = self.wsu[b]._slots.get(txn_id)
                                if slot is None:
                                    raise ProtocolError(
                                        f"write commit for unknown "
                                        f"transaction {txn_id}"
                                    )
                                slot.committed += run
                                if data_cycle > slot.commit_cycle:
                                    slot.commit_cycle = data_cycle
                            else:
                                self.reads[b] += run
                                slot = self.rsu[b]._slots.get(txn_id)
                                if slot is None:
                                    raise ProtocolError(
                                        f"data for unknown read "
                                        f"transaction {txn_id}"
                                    )
                                received = slot.received
                                get = storage.get
                                for k in range(pos, pos + run):
                                    received.append(
                                        (
                                            indices[k],
                                            get(local_words[k], 0),
                                        )
                                    )
                                data_cycle = end + self.read_lat
                                if data_cycle > slot.last_data_cycle:
                                    slot.last_data_cycle = data_cycle
                            # -- run-final auto-precharge --------------
                            if has_rows:
                                self.asc[b][ib] = False
                                hold = end + 1 + t_wr if w else end + 1
                                if hold > pre[u]:
                                    pre[u] = hold
                                if clipped:
                                    auto_precharge = False
                                else:
                                    # An open-row hit pending in another
                                    # context keeps the row open (the
                                    # policy's more_hits term); under
                                    # all_open a same-internal-bank
                                    # context always sits on this very
                                    # row, so close_predicted is False.
                                    other_hit = False
                                    if nwin > 1:
                                        for other in win:
                                            if other is vc0:
                                                continue
                                            opos = other[5]
                                            if (
                                                other[2][opos] == ib
                                                and other[3][opos] == row
                                            ):
                                                other_hit = True
                                                break
                                    if other_hit:
                                        auto_precharge = False
                                    elif run < rem:
                                        # Run ends on a row transition:
                                        # the paper policy closes it.
                                        auto_precharge = True
                                    else:
                                        auto_precharge = self.predict[
                                            b
                                        ][ib]
                                if auto_precharge:
                                    orow[u] = -1
                                    release = (
                                        end
                                        + 1
                                        + (t_wr if w else 0)
                                        + t_rp
                                    )
                                    if release > act[u]:
                                        act[u] = release
                                    self.ib_ap[u] += 1
                            # -- front-end transaction accounting ------
                            txn = outstanding.get(txn_id)
                            if txn is None:
                                raise ProtocolError(
                                    f"bank {b} issued for unknown "
                                    f"transaction {txn_id}"
                                )
                            txn.done += run
                            if data_cycle > txn.last_data_cycle:
                                txn.last_data_cycle = data_cycle
                            # -- cursor advance ------------------------
                            self.sched_col[b] += run
                            rem -= run
                            vc0[6] = rem
                            vc0[10] = True
                            vc0[5] = pos + run
                            if rem == 0:
                                del win[0]
                            cost = run
                    if cost == 0:
                        # -- generic walk (AccessScheduler._try_column):
                        #    at most one column, polarity rule intact;
                        #    blocked open-row contexts feed the bound.
                        issue_vc = None
                        position = 0
                        for vcx in win:
                            matches = (
                                last_dir < 0 or vcx[8] == last_dir
                            )
                            if not matches and position != 0:
                                # A polarity reversal pends upstream.
                                break
                            pins = (
                                last_col + 1
                                if matches
                                else last_col + 1 + ta
                            )
                            if has_rows:
                                posx = vcx[5]
                                ux = base_u + vcx[2][posx]
                                if orow[ux] == vcx[3][posx]:
                                    x = col[ux]
                                    if pins > x:
                                        x = pins
                                    if t >= x:
                                        issue_vc = vcx
                                        break
                                    if x < nb:
                                        nb = x
                            else:
                                if t >= pins:
                                    issue_vc = vcx
                                    break
                                if pins < nb:
                                    nb = pins
                            if not matches:
                                break
                            position += 1
                        if issue_vc is not None:
                            # -- single column (AccessScheduler
                            #    ._issue_column + device.column_at +
                            #    staging + note_issue, fused) ---------
                            vcx = issue_vc
                            posx = vcx[5]
                            wx = vcx[8]
                            if has_rows:
                                ibx = vcx[2][posx]
                                rowx = vcx[3][posx]
                            else:
                                ibx = 0
                                rowx = 0
                            if not vcx[10]:
                                self._note_first(b, vcx, ibx)
                            ap = (
                                self._decide_ap(b, vcx, ibx, rowx, win)
                                if has_rows
                                else False
                            )
                            if last_dir >= 0 and last_dir != wx:
                                self.turnarounds[b] += 1
                            last_col_a[b] = t
                            last_dir_a[b] = wx
                            if has_rows:
                                ux = base_u + ibx
                                hold = t + 1 + t_wr if wx else t + 1
                                if hold > pre[ux]:
                                    pre[ux] = hold
                                if ap:
                                    orow[ux] = -1
                                    release = (
                                        t
                                        + 1
                                        + (t_wr if wx else 0)
                                        + t_rp
                                    )
                                    if release > act[ux]:
                                        act[ux] = release
                                    self.ib_ap[ux] += 1
                            local_word = vcx[0][posx]
                            index = vcx[1][posx]
                            txn_id = vcx[7]
                            if wx:
                                storage[local_word] = vcx[9][index]
                                self.writes[b] += 1
                                data_cycle = t + t_wr
                                slot = self.wsu[b]._slots.get(txn_id)
                                if slot is None:
                                    raise ProtocolError(
                                        f"write commit for unknown "
                                        f"transaction {txn_id}"
                                    )
                                slot.committed += 1
                                if data_cycle > slot.commit_cycle:
                                    slot.commit_cycle = data_cycle
                            else:
                                self.reads[b] += 1
                                data_cycle = t + self.read_lat
                                slot = self.rsu[b]._slots.get(txn_id)
                                if slot is None:
                                    raise ProtocolError(
                                        f"data for unknown read "
                                        f"transaction {txn_id}"
                                    )
                                slot.received.append(
                                    (
                                        index,
                                        storage.get(local_word, 0),
                                    )
                                )
                                if data_cycle > slot.last_data_cycle:
                                    slot.last_data_cycle = data_cycle
                            txn = outstanding.get(txn_id)
                            if txn is None:
                                raise ProtocolError(
                                    f"bank {b} issued for unknown "
                                    f"transaction {txn_id}"
                                )
                            txn.done += 1
                            if data_cycle > txn.last_data_cycle:
                                txn.last_data_cycle = data_cycle
                            self.sched_col[b] += 1
                            remaining = vcx[6] - 1
                            vcx[6] = remaining
                            vcx[10] = True
                            vcx[5] = posx + 1
                            if remaining == 0:
                                del win[position]
                            cost = 1
            if cost or progressed:
                a = acct[b]
                if t > a:
                    if pending[b]:
                        stalled_c[b] += t - a
                    else:
                        idle_c[b] += t - a
                if cost == 0:
                    cost = 1
                busy_c[b] += cost
                acct[b] = t + cost
                pending[b] = True if rqf or win else False
                processed = True
                # After a burst of `cost` columns the cursor only clears
                # the run at t + cost — nothing (in particular no row
                # operation for the next element) may fire inside it.
                floor = t + cost
                if floor >= h:
                    bound[b] = floor
                    return True
                t = floor
                continue
            # ---- failed probe: jump to the accumulated bound ---------
            t = nb if nb > t else t + 1

    def _do_refresh(self, b: int, cycle: int) -> None:
        """SDRAMDevice.maybe_refresh: close every row, block activates
        for ``t_rfc``, advance the deadline."""
        orow = self.orow
        act = self.act
        release = cycle + self.t_rfc
        base_u = b * self.nib
        for u in range(base_u, base_u + self.nib):
            orow[u] = -1
            if release > act[u]:
                act[u] = release
        self.nr[b] = cycle + self.refresh_interval
        self.refreshes[b] += 1

    def _note_first(self, b: int, vc: list, internal_bank: int) -> None:
        """AccessScheduler._note_first_operation: train the predictor on
        a request's very first operation."""
        row_continues = self.lrs[b][vc[C_FIB]] == vc[C_FROW]
        if self.paper[b]:
            self.predict[b][internal_bank] = not row_continues
        else:
            self.policies[b].note_first_operation(
                internal_bank, row_continues
            )
        vc[C_ISSUED] = True

    def _decide_ap(
        self, b: int, vc: list, internal_bank: int, row: int, win: list
    ) -> bool:
        """AccessScheduler._decide_auto_precharge (the ManageRow lines)
        — cursor mode only, so the self-term is the precomputed
        row-transition marker."""
        asc = self.asc[b]
        row_hit = not asc[internal_bank]
        asc[internal_bank] = False
        paper = self.paper[b]
        if not paper:
            self.policies[b].observe_access(internal_bank, row_hit)
        more_hits = vc[C_REM] > 1 and vc[C_NSR][vc[C_POS]]
        if not more_hits:
            for other in win:
                if other is vc:
                    continue
                opos = other[C_POS]
                if (
                    other[C_IB][opos] == internal_bank
                    and other[C_ROW][opos] == row
                ):
                    more_hits = True
                    break
        if paper:
            # PaperPolicy.decide, with close_predicted evaluated lazily
            # (it has no side effects and only gates the last access).
            if more_hits:
                return False
            if vc[C_REM] == 1:
                if self._close_predicted(win, internal_bank, row):
                    return True
                return self.predict[b][internal_bank]
            return True
        return self.policies[b].decide(
            internal_bank=internal_bank,
            last_of_request=vc[C_REM] == 1,
            more_hits=more_hits,
            close_predicted=self._close_predicted(win, internal_bank, row),
        )

    @staticmethod
    def _close_predicted(win: list, internal_bank: int, row: int) -> bool:
        """``bank_close_predict``: some context needs a different row in
        this internal bank.  (The issuing context never matches its own
        coordinates, so no exclusion is needed.)"""
        for vc in win:
            pos = vc[C_POS]
            if vc[C_IB][pos] == internal_bank and vc[C_ROW][pos] != row:
                return True
        return False

    @staticmethod
    def _hits_open(win: list, exclude: list, internal_bank: int, open_row: int) -> bool:
        """``bank_hit_predict``: another context's current address hits
        the row open in ``internal_bank``."""
        for vc in win:
            if vc is exclude:
                continue
            pos = vc[C_POS]
            if vc[C_IB][pos] == internal_bank and vc[C_ROW][pos] == open_row:
                return True
        return False

    def broadcast_vector(
        self,
        txn_id: int,
        vector,
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        call_cycle: int,
    ) -> int:
        """All banks observe one VEC_READ / VEC_WRITE: the SoA
        counterpart of looping BankController.broadcast over the banks.
        ``cycle`` is the delivery cycle (last broadcast bus cycle),
        ``call_cycle`` the front end's current cycle (ledger anchor).
        Returns the summed element count."""
        schedules = broadcast_schedules(
            vector.base,
            vector.stride,
            vector.length,
            self.num_banks,
            self._geom,
        )
        power_of_two = self._pla.entry(vector.stride).power_of_two
        # The _queue tail, fused across the bank loop with the shared
        # state in locals (this runs once per bank per broadcast — the
        # broadcast side's hot path).
        stage = self.wsu if is_write else self.rsu
        rqfs = self._rqf
        wins = self._win
        bound = self.bound
        acct = self.acct
        pending = self.pending
        idle_c = self.idle_c
        fhc_busy = self.fhc_busy
        fifo_depth = self.fifo_depth
        max_ctx = self.max_ctx
        bypass = self.bypass
        fhc_latency = self.fhc_latency
        iw = int(is_write)
        total = 0
        for b in range(self.n):
            schedule = schedules[b]
            expected = 0 if schedule is None else schedule.count
            stage[b].open(txn_id, expected)
            if expected == 0:
                continue
            rqf = rqfs[b]
            if len(rqf) >= fifo_depth:
                raise CapacityError(
                    f"bank {b}: request FIFO overflow "
                    f"(depth {fifo_depth})"
                )
            win = wins[b]
            idle = not rqf and not win
            if power_of_two:
                # FHP shift/mask path (+ FHP-to-VC bypass when idle).
                ready = cycle + 1 if (bypass and idle) else cycle + 2
            else:
                # FirstHitCalculator.schedule: serial multiply-add.
                start = cycle + 1
                if fhc_busy[b] > start:
                    start = fhc_busy[b]
                finish = start + fhc_latency
                fhc_busy[b] = finish
                self.fhc_calcs[b] += 1
                ready = finish if (bypass and idle) else finish + 1
            rqf.append((ready, txn_id, iw, write_line, schedule))
            if not pending[b]:
                # The bank shows "stalled" from the broadcast call cycle
                # on; everything before it was idle.
                a = acct[b]
                if call_cycle > a:
                    idle_c[b] += call_cycle - a
                    acct[b] = call_cycle
                pending[b] = True
            if len(rqf) == 1 and len(win) < max_ctx and ready < bound[b]:
                bound[b] = ready
            total += expected
        return total

    def broadcast_explicit(
        self,
        b: int,
        txn_id: int,
        addresses: Tuple[int, ...],
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        call_cycle: int,
    ) -> int:
        """BankController.broadcast_explicit: snoop the address stream
        for this bank's elements."""
        mask = self.num_banks - 1
        shift = self.bank_bits
        mine = tuple(
            (address >> shift, index)
            for index, address in enumerate(addresses)
            if (address & mask) == b
        )
        return self.broadcast_pairs(
            b, txn_id, mine, is_write, cycle, write_line, None, call_cycle
        )

    def broadcast_pairs(
        self,
        b: int,
        txn_id: int,
        pairs: Tuple[Tuple[int, int], ...],
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        stride: Optional[int],
        call_cycle: int,
    ) -> int:
        """BankController.broadcast_pairs: queue pre-partitioned
        ``(local_word, index)`` elements (explicit snoop with
        ``stride=None``, or the cache-line/block interleave front end
        with the real stride's FHP/FHC timing)."""
        schedule = pairs_schedule(pairs, self._geom)
        power_of_two = (
            None if stride is None else self._pla.entry(stride).power_of_two
        )
        return self._queue(
            b,
            txn_id,
            schedule,
            is_write,
            cycle,
            write_line,
            call_cycle,
            power_of_two,
        )

    def _queue(
        self,
        b: int,
        txn_id: int,
        schedule: Optional[BankSchedule],
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        call_cycle: int,
        power_of_two: Optional[bool],
    ) -> int:
        """Common broadcast tail: open staging (expected may be zero),
        run the FHP/FHC ready-cycle pipeline, append the FIFO entry and
        maintain the ledger and the next-event bound."""
        expected = 0 if schedule is None else schedule.count
        if is_write:
            self.wsu[b].open(txn_id, expected)
        else:
            self.rsu[b].open(txn_id, expected)
        if expected == 0:
            return 0
        rqf = self._rqf[b]
        if len(rqf) >= self.fifo_depth:
            raise CapacityError(
                f"bank {b}: request FIFO overflow "
                f"(depth {self.fifo_depth})"
            )
        win = self._win[b]
        idle = not rqf and not win
        if power_of_two is None:
            # Explicit snoop: ready one cycle after the broadcast ends.
            ready = cycle + 1
        elif power_of_two:
            # FHP shift/mask path (+ FHP-to-VC bypass when idle).
            ready = cycle + 1 if (self.bypass and idle) else cycle + 2
        else:
            # FirstHitCalculator.schedule: serial multiply-add.
            start = cycle + 1
            if self.fhc_busy[b] > start:
                start = self.fhc_busy[b]
            finish = start + self.fhc_latency
            self.fhc_busy[b] = finish
            self.fhc_calcs[b] += 1
            ready = finish if (self.bypass and idle) else finish + 1
        rqf.append((ready, txn_id, int(is_write), write_line, schedule))
        if not self.pending[b]:
            # The bank shows "stalled" from the broadcast call cycle on
            # (_BankComponent.account sees the FIFO entry that same
            # kernel cycle); everything before it was idle.
            self._settle(b, call_cycle)
            if call_cycle > self.acct[b]:
                self.acct[b] = call_cycle
            self.pending[b] = True
        if len(rqf) == 1 and len(win) < self.max_ctx and ready < self.bound[b]:
            self.bound[b] = ready
        return expected

    # ------------------------------------------------------------- #
    # Writeback
    # ------------------------------------------------------------- #

    def writeback(self) -> None:
        """Restore the object graph from the arrays so statistics,
        functional peeks and subsequent runs (any backend) see exactly
        the state the run produced.  Safe to call on any exit path."""
        nib = self.nib
        for b, bank in enumerate(self.banks):
            device = bank.device
            device._last_column_cycle = self.last_col[b]
            last_dir = self.last_dir[b]
            device._last_was_write = None if last_dir < 0 else bool(last_dir)
            device.reads = self.reads[b]
            device.writes = self.writes[b]
            device.turnarounds = self.turnarounds[b]
            bank.fhc._busy_until = self.fhc_busy[b]
            bank.fhc.calculations = self.fhc_calcs[b]
            scheduler = bank.scheduler
            scheduler.activates = self.sched_act[b]
            scheduler.precharges = self.sched_pre[b]
            scheduler.columns = self.sched_col[b]
            bank._skip_until = 0
            if self.has_rows:
                device.refreshes = self.refreshes[b]
                if device._next_refresh is not None:
                    device._next_refresh = self.nr[b]
                base_u = b * nib
                for ib, internal in enumerate(device.banks):
                    u = base_u + ib
                    row = self.orow[u]
                    internal.open_row = None if row < 0 else row
                    internal._activate_timer._ready_at = self.act[u]
                    internal._column_timer._ready_at = self.col[u]
                    internal._precharge_timer._ready_at = self.pre[u]
                    internal.activates = self.ib_act[u]
                    internal.precharges = self.ib_pre[u]
                    internal.auto_precharges = self.ib_ap[u]
