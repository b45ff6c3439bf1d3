"""Unit tests for the next-event time-skip lower bounds.

The differential suite (``test_time_skip_equivalence.py``) proves the
composed engine cycle-exact; these tests pin the per-component contract:
each ``next_event_cycle(cycle)`` is clamped to ``>= cycle``, matches the
component's own scoreboard, and :data:`~repro.sim.events.HORIZON` is a
plain int far beyond any simulated cycle.
"""

from __future__ import annotations


from repro.params import SDRAMTiming, SystemParams
from repro.sdram.device import SDRAMDevice
from repro.sdram.restimer import Restimer
from repro.sim.events import HORIZON
from repro.bus.vector_bus import VectorBus


class TestRestimerBound:
    def test_idle_restimer_returns_now(self):
        timer = Restimer("t_rcd")
        assert timer.next_event_cycle(5) == 5

    def test_held_restimer_returns_release(self):
        timer = Restimer("t_rp")
        timer.hold_until(12)
        assert timer.next_event_cycle(5) == 12
        # The bound agrees with the scoreboard on both sides.
        assert not timer.available(11)
        assert timer.available(12)

    def test_bound_clamps_to_cycle(self):
        timer = Restimer("t_rcd")
        timer.hold_until(3)
        assert timer.next_event_cycle(7) == 7


class TestSDRAMDeviceBounds:
    def make(self, **kw):
        return SDRAMDevice(SDRAMTiming(**kw))

    def test_refresh_schedule_advances(self):
        device = self.make(refresh_interval=100)
        assert device.next_refresh_cycle == 100
        assert not device.maybe_refresh(99)
        assert device.maybe_refresh(100)
        assert device.next_refresh_cycle == 200
        # A refresh occupies the banks: their bounds move past t_rfc.
        assert device.next_event_cycle(101) >= 100 + device.timing.t_rfc

    def test_bound_clamps_to_cycle(self):
        device = self.make()
        assert device.next_event_cycle(50) == 50


class TestVectorBusBound:
    def test_tracks_busy_until(self):
        bus = VectorBus(SystemParams())
        freed = bus.broadcast_request(10)
        assert bus.next_event_cycle(10) == freed
        assert bus.next_event_cycle(freed + 3) == freed + 3


class TestHorizonSentinel:
    def test_is_a_plain_int(self):
        assert isinstance(HORIZON, int)
        assert HORIZON > 10**15  # far beyond any simulated cycle count
