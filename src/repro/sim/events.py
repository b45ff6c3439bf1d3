"""Next-event time skipping: the shared vocabulary of the fast path.

Cycle-accurate simulation traditionally advances the clock one cycle per
loop iteration, even though every stalled component already knows the
exact cycle at which its state can next change — a bank's row timers
hold their release cycles, the vector bus its busy-until cycle, a queued
request its ready cycle.  The **time-skip engine** exploits that: each
component exposes a ``next_event_cycle(cycle)`` lower bound, and after
every visited cycle the run loop takes the ``min()`` over all of them
and jumps the clock straight to it instead of ticking through the gap.

The contract every bound must honour:

* it is a **lower bound** — the component provably takes no action and
  changes no observable state at any cycle strictly between ``cycle``
  and the returned value, *assuming no other component acts either*
  (the bounds are polled once every component has finished the visited
  cycle, and the loop never jumps past the earliest of them, so any
  cross-component interaction lands on a visited cycle);
* it may be **conservative** — returning ``cycle`` itself (or any
  earlier-than-necessary cycle) merely degrades the skip to a plain
  tick, never changes simulated behaviour;
* :data:`HORIZON` means "no self-timed event pending": the component
  can only be re-enabled by another component's action.

Because skipped cycles are exactly the iterations in which the reference
tick loop performs no state change, the fast path is cycle-exact with
``SystemParams(sim_mode="tick")`` — the differential suite in
``tests/sim/test_time_skip_equivalence.py`` holds the reference and the
fast backend (``sim_mode="soa"``, which runs on this loop) to
byte-identical :class:`~repro.sim.stats.RunResult`\\ s.  The skip loop
is selected by ``sim_mode`` alone (``REPRO_SIM_MODE`` is the only
environment override).
"""

from __future__ import annotations

__all__ = ["HORIZON", "time_skip_enabled"]

#: Sentinel "infinitely far" cycle: no self-timed event pending.  An int
#: (not ``float('inf')``) so arithmetic on simulated cycles stays exact.
HORIZON = 1 << 62


def time_skip_enabled(params) -> bool:
    """The run-loop mode for ``params``: every backend except the
    reference ``tick`` loop runs the next-event skip loop."""
    return params.sim_mode != "tick"
