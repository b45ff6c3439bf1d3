"""The shared clocked-component simulation kernel.

Every memory system in the library used to own a private run loop: the
PVA front end's bus/bank/completion loop, and one analytic
command-costing loop per serial baseline.  Each of them re-implemented
the same skeleton — watchdog ticking, an acted-this-cycle flag, the
next-event time-skip advance of :mod:`repro.sim.events`, and final
statistics assembly — and each copy drifted independently.  This module
replaces all of them with **one** loop.

A system decomposes itself into :class:`ClockedComponent`\\ s (the PVA
unit registers its front end, the vector bus, every bank controller and
a completion unit; a serial baseline registers a single component) and
hands them to a :class:`SimKernel`, which owns the canonical loop:

1. ``watchdog.check(cycle)`` once per iteration;
2. tick every component in registration order; each returns an *acted*
   flag — did it change observable state this cycle?
3. advance time.  The reference loop (``time_skip=False``) visits every
   cycle.  The time-skip loop goes event to event: after every visited
   cycle — acted or not — it takes the minimum of every component's
   ``next_event_cycle`` lower bound (all re-polled after an action,
   only the stale ones otherwise) and jumps to ``max(cycle + 1, min)``,
   capped at the watchdog's cycle limit so a deadlocked run still
   raises :class:`~repro.errors.SimulationTimeout`.  After an acted
   iteration it asks ``done()`` first, so the run still exits at
   ``cycle + 1`` exactly where the reference loop does;
4. attribute the advance ``[cycle, target)`` to each component's
   busy/stalled/idle ledger in one span.

The lower-bound safety argument is therefore stated once, here, instead
of once per system: every component has finished the visited cycle when
the bounds are polled, so the state they describe is exactly the state
the next cycle's ticks would see, and each bound promises its component
takes no action strictly before it (assuming nobody else acts — and by
induction over registration order, nobody does before the minimum).
An underestimated bound degrades to a plain tick; it can never change
simulated behaviour.

**Passive and self-accounting components.**  A
:class:`PassiveComponent` (the vector bus) never acts, so it is never
ticked or polled — only attributed.  A self-accounting component (the
bank automaton, see :meth:`SimKernel.register`) keeps its own ledger,
so it is only ticked and polled — never attributed.

**Cycle attribution.**  The kernel keeps a per-component ledger of
where cycles went: *busy* (the component acted), *stalled* (it had
pending work but could not act), *idle* (nothing to do).  Each advance
is attributed as one span per component: the visited cycle is busy for
a component that acted in it, and the rest of the span is classified
by the component's :meth:`ClockedComponent.account` — legal because no
state changes inside it, so one query describes every cycle in it.  The
classification depends only on component state, never on which cycles
the loop happened to visit, so the ledger is identical between the tick
and time-skip loops and each component's buckets sum to the run's total
cycle count (:meth:`SimKernel.finalize` pads the tail when a data
transfer outlives the loop).  The loop also counts its work — visited
cycles, tick dispatches, skipped cycles — for
:attr:`RunResult.work <repro.sim.stats.RunResult.work>`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import ConfigurationError
from repro.sim.events import HORIZON
from repro.sim.runner import Watchdog
from repro.sim.stats import ComponentCycles, WorkCounters

__all__ = ["ClockedComponent", "PassiveComponent", "SimKernel"]

#: (busy, stalled, idle) cycle counts for one quiet span.
SpanSplit = Tuple[int, int, int]


@runtime_checkable
class ClockedComponent(Protocol):
    """One clocked piece of a memory system, driven by the kernel.

    ``name``
        Stable label used in the attribution ledger (and therefore in
        :class:`~repro.sim.stats.RunResult`, ``EngineMetrics`` and the
        bench report).
    ``tick(cycle)``
        One cycle of work.  Returns True iff the component changed
        observable state — the kernel may only time-skip after an
        iteration in which every component returned False.
    ``next_event_cycle(cycle)``
        Lower bound on the next cycle at which :meth:`tick` could act,
        under the contract of :mod:`repro.sim.events`.  Return
        :data:`~repro.sim.events.HORIZON` when only another component's
        action can re-enable this one.
    ``account(start, end)``
        Classify the quiet span ``[start, end)`` — cycles in which this
        component provably did not act — into (busy, stalled, idle)
        counts summing to ``end - start``.  Must depend only on current
        component state (and on each cycle's position in the span) so
        the split is identical whether the loop visited those cycles one
        by one or attributed them as one span.  (A
        passive component such as the bus may report *busy* here: it
        carries data without taking scheduling actions.)
    """

    name: str

    def tick(self, cycle: int) -> bool:
        ...

    def next_event_cycle(self, cycle: int) -> int:
        ...

    def account(self, start: int, end: int) -> SpanSplit:
        ...


class PassiveComponent:
    """Convenience base for components that never take actions of their
    own (state machines driven entirely by other components, like the
    vector bus).  Subclasses override :meth:`account` to classify their
    quiet cycles; the kernel never calls ``tick`` or
    ``next_event_cycle`` on them (they never act and never wake it)."""

    name = "passive"

    def tick(self, cycle: int) -> bool:
        return False

    def next_event_cycle(self, cycle: int) -> int:
        return HORIZON

    def account(self, start: int, end: int) -> SpanSplit:
        return (0, 0, end - start)


class SimKernel:
    """The canonical run loop over a registry of clocked components.

    Parameters
    ----------
    watchdog:
        The run's :class:`~repro.sim.runner.Watchdog`; checked once per
        loop iteration, and its cycle limit caps every time-skip jump.
    time_skip:
        Resolved run-loop mode (see
        :func:`repro.sim.events.time_skip_enabled`).  False ticks every
        cycle — the reference loop; True advances event to event.
    """

    def __init__(self, *, watchdog: Watchdog, time_skip: bool = True):
        self.watchdog = watchdog
        self.time_skip = time_skip
        self._components: List[ClockedComponent] = []
        self._ledger: Dict[str, ComponentCycles] = {}
        self._names: set = set()
        self._self_accounting: List[ClockedComponent] = []
        self.cycle = 0
        self._finalized_to: Optional[int] = None
        #: Work counters (see :class:`~repro.sim.stats.WorkCounters`):
        #: visited cycles, component tick dispatches, skipped cycles.
        self.visits = 0
        self.dispatches = 0
        self.skipped = 0

    # ------------------------------------------------------------- #
    # Registry
    # ------------------------------------------------------------- #

    def register(self, component: ClockedComponent) -> ClockedComponent:
        """Add a component; tick order is registration order.

        A **self-accounting** component — one that exposes a
        ``ledger_names`` tuple and a ``finalize_ledger(total_cycles)``
        method — keeps its own per-name cycle ledger instead of being
        attributed by the kernel.  It represents several logical
        components stepped as one (the structure-of-arrays bank
        automaton speaks for all sixteen ``bank-*`` entries): the kernel
        reserves its names in ledger order here, never calls its
        ``account``, and merges its buckets at :meth:`finalize`.
        """
        name = getattr(component, "name", None)
        if not name:
            raise ConfigurationError(
                f"component {component!r} has no usable name"
            )
        if name in self._names:
            raise ConfigurationError(
                f"component name {name!r} registered twice"
            )
        self._names.add(name)
        ledger_names = getattr(component, "ledger_names", None)
        if ledger_names is None:
            self._ledger[name] = ComponentCycles()
        else:
            for entry_name in ledger_names:
                if entry_name in self._names:
                    raise ConfigurationError(
                        f"component name {entry_name!r} registered twice"
                    )
                self._names.add(entry_name)
                self._ledger[entry_name] = ComponentCycles()
            self._self_accounting.append(component)
        self._components.append(component)
        return component

    @property
    def components(self) -> Tuple[ClockedComponent, ...]:
        return tuple(self._components)

    # ------------------------------------------------------------- #
    # The loop
    # ------------------------------------------------------------- #

    def run(self, done: Callable[[], bool]) -> int:
        """Drive all registered components until ``done()``; return the
        final cycle (the first cycle value at which ``done`` held)."""
        if not self._components:
            raise ConfigurationError(
                "SimKernel.run called with no registered components"
            )
        # Hot-loop locals, split once: passive components are only ever
        # attributed (never ticked or polled), self-accounting ones only
        # ever ticked and polled (never attributed).  ``attributed[i]``
        # is the (account, ledger entry) pair of stepped component i, or
        # None for a self-accounting one.
        stepped = [
            component
            for component in self._components
            if not isinstance(component, PassiveComponent)
        ]
        ticks = [component.tick for component in stepped]
        bounds = [component.next_event_cycle for component in stepped]
        attributed = [
            None
            if component in self._self_accounting
            else (component.account, self._ledger[component.name])
            for component in stepped
        ]
        passive = [
            (component.account, self._ledger[component.name])
            for component in self._components
            if isinstance(component, PassiveComponent)
        ]
        watchdog = self.watchdog
        time_skip = self.time_skip
        cycle = start = self.cycle
        positions = range(len(ticks))
        acted_flags = [False] * len(ticks)
        # Dispatch gating: a component's lower bound, once polled, is
        # cached; on later cycles a component whose cached bound is still
        # ahead is not ticked at all.  A cached bound is only trusted
        # while *nothing* has acted since it was computed (the events.py
        # contract: "assuming no other component acts") — any action,
        # even by an earlier component in the same cycle, voids it, so
        # gated components are exactly those an always-tick loop would
        # have ticked to no effect.  In skip mode the same cache also
        # picks the jump target.
        cached = [0] * len(ticks)
        cache_valid = False
        visits = dispatches = 0
        # ``done()`` can only change when something acts, so it is asked
        # once up front and then only after acted iterations.
        finished = done()
        while not finished:
            watchdog.check(cycle)
            visits += 1
            acted_any = False
            for i in positions:
                if cache_valid and not acted_any and cached[i] > cycle:
                    acted_flags[i] = False
                    continue
                dispatches += 1
                acted = ticks[i](cycle)
                acted_flags[i] = acted
                if acted:
                    acted_any = True
            # -- advance time ----------------------------------------
            nxt = cycle + 1
            target = nxt
            if acted_any and done():
                # The run ends here, at the next cycle, in either loop.
                finished = True
            elif acted_any and not time_skip:
                cache_valid = False  # the reference loop just steps on
            else:
                # Poll the bounds — all of them after an action, only
                # the stale ones otherwise.  Skip mode jumps to their
                # minimum, clamped to the watchdog's deadline so a
                # deadlocked run still times out; a bound at or below
                # the next cycle degrades to a plain tick.
                earliest = HORIZON
                for i in positions:
                    if acted_any or not cache_valid or cached[i] <= cycle:
                        cached[i] = bounds[i](cycle)
                    if cached[i] < earliest:
                        earliest = cached[i]
                cache_valid = True
                if time_skip and earliest > nxt:
                    target = watchdog.clamp_skip(earliest)
            # -- attribute the advance [cycle, target) ---------------
            # One span per component: the visited cycle is busy for a
            # component that acted in it, and the rest of the span is
            # classified by account() from the state the iteration left
            # (nothing changes inside it, by the bound contract).  Gated
            # components take the non-acted branch, so the ledger is
            # invariant under gating.
            for i in positions:
                pair = attributed[i]
                if pair is None:
                    continue
                account, entry = pair
                if acted_flags[i]:
                    entry.busy += 1
                    if target == nxt:
                        continue
                    busy, stalled, idle = account(nxt, target)
                else:
                    busy, stalled, idle = account(cycle, target)
                entry.busy += busy
                entry.stalled += stalled
                entry.idle += idle
            for account, entry in passive:
                busy, stalled, idle = account(cycle, target)
                entry.busy += busy
                entry.stalled += stalled
                entry.idle += idle
            cycle = target
        self.visits += visits
        self.dispatches += dispatches
        self.skipped += cycle - start - visits
        self.cycle = cycle
        return cycle

    # ------------------------------------------------------------- #
    # Attribution ledger
    # ------------------------------------------------------------- #

    def finalize(self, total_cycles: int) -> Dict[str, ComponentCycles]:
        """Close the ledger at ``total_cycles`` and return it.

        The loop exits as soon as the last transaction is accounted for,
        which can be *before* its final data transfer leaves the bus; the
        tail span ``[exit_cycle, total_cycles)`` is attributed here so
        every component's buckets sum to the run's reported cycle count.
        Idempotent for a fixed ``total_cycles``.
        """
        if self._finalized_to is None:
            if total_cycles < self.cycle:
                raise ConfigurationError(
                    f"finalize({total_cycles}) below the kernel's final "
                    f"cycle {self.cycle}"
                )
            if total_cycles > self.cycle:
                for component in self._components:
                    if component in self._self_accounting:
                        continue  # closes its own tail below
                    busy, stalled, idle = component.account(
                        self.cycle, total_cycles
                    )
                    entry = self._ledger[component.name]
                    entry.busy += busy
                    entry.stalled += stalled
                    entry.idle += idle
            for component in self._self_accounting:
                merged = component.finalize_ledger(total_cycles)
                for entry_name in component.ledger_names:
                    if entry_name not in merged:
                        raise ConfigurationError(
                            f"{component.name}: finalize_ledger returned "
                            f"no entry for {entry_name!r}"
                        )
                    self._ledger[entry_name] = merged[entry_name]
            self._finalized_to = total_cycles
        elif total_cycles != self._finalized_to:
            raise ConfigurationError(
                f"kernel already finalized at {self._finalized_to} cycles; "
                f"cannot re-finalize at {total_cycles}"
            )
        return dict(self._ledger)

    def work(self) -> WorkCounters:
        """The loop's work counters so far (``probes`` is left 0: only
        a bank automaton has them, and its system fills them in)."""
        return WorkCounters(
            visits=self.visits,
            dispatches=self.dispatches,
            skipped=self.skipped,
        )

    @property
    def ledger(self) -> Dict[str, ComponentCycles]:
        """Live view of the attribution ledger (component name ->
        :class:`~repro.sim.stats.ComponentCycles`)."""
        return dict(self._ledger)
