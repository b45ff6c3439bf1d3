"""Unit tests for the state the next-event time-skip bounds read.

The differential suite (``test_time_skip_equivalence.py``) proves the
composed engine cycle-exact, and ``test_kernel.py`` pins the loop; these
tests pin what the component bounds are computed from: the refresh
schedule the bank automaton's deadline tracks, the bus's busy-until
frontier the front end's bound waits on, and
:data:`~repro.sim.events.HORIZON` being a plain int far beyond any
simulated cycle.
"""

from __future__ import annotations


from repro.params import SDRAMTiming, SystemParams
from repro.sdram.device import SDRAMDevice
from repro.sim.events import HORIZON
from repro.bus.vector_bus import VectorBus


class TestSDRAMDeviceBounds:
    def make(self, **kw):
        return SDRAMDevice(SDRAMTiming(**kw))

    def test_refresh_schedule_advances(self):
        device = self.make(refresh_interval=100)
        assert device.next_refresh_cycle == 100
        assert not device.maybe_refresh(99)
        assert device.maybe_refresh(100)
        assert device.next_refresh_cycle == 200
        # A refresh occupies the banks for t_rfc cycles.
        t_rfc = device.timing.t_rfc
        assert not device.banks[0].can_activate(100 + t_rfc - 1)
        assert device.banks[0].can_activate(100 + t_rfc)


class TestVectorBusBound:
    def test_tracks_busy_until(self):
        bus = VectorBus(SystemParams())
        freed = bus.broadcast_request(10)
        assert bus.busy_until == freed
        assert not bus.is_free(freed - 1)
        assert bus.is_free(freed)


class TestHorizonSentinel:
    def test_is_a_plain_int(self):
        assert isinstance(HORIZON, int)
        assert HORIZON > 10**15  # far beyond any simulated cycle count
