"""Tests for the idealised Figure 3 protocol, including differential
tests against the hardware-constrained unit."""

from hypothesis import given, settings, strategies as st

from repro.core.dataplane import SpeedlightUnit
from repro.core.ideal import IdealUnit
from repro.core.ids import IdSpace
from repro.sim.packet import FlowKey, Packet, PacketType, SnapshotHeader
from repro.sim.switch import Direction, UnitId

UNIT = UnitId("sw0", 0, Direction.INGRESS)


def _pkt(sid, packet_type=PacketType.DATA):
    pkt = Packet(flow=FlowKey("a", "b", 1, 2))
    pkt.snapshot = SnapshotHeader(sid=sid, packet_type=packet_type)
    return pkt


def _ideal(value=lambda: 0, channel_state=True):
    return IdealUnit(UNIT, value, channel_state=channel_state)


class TestIdealCapture:
    def test_jump_fills_every_intermediate_epoch(self):
        values = iter([10, 10, 10])
        unit = _ideal(value=lambda: 10)
        unit.process_packet(_pkt(3), 0, 50)
        for epoch in (1, 2, 3):
            assert unit.snaps[epoch].value == 10
            assert unit.snaps[epoch].captured_ns == 50

    def test_in_flight_updates_every_straddled_epoch(self):
        unit = _ideal()
        unit.process_packet(_pkt(3), 0, 10)
        unit.process_packet(_pkt(1), 0, 20)  # in flight for epochs 2 and 3
        assert unit.snaps[2].channel_state == 1
        assert unit.snaps[3].channel_state == 1
        assert unit.snaps[1].channel_state == 0

    def test_quiet_sid_follows_sid_only_without_channel_state(self):
        for channel_state in (False, True):
            unit = _ideal(channel_state=channel_state)
            unit.process_packet(_pkt(3), 0, 10)
            unit.process_packet(_pkt(1), 0, 20)
            assert unit.sid == 3
            assert unit.quiet_sid == (None if channel_state else 3)

    def test_initiation_not_in_flight(self):
        unit = _ideal()
        unit.process_packet(_pkt(2), 0, 10)
        unit.process_packet(_pkt(0, PacketType.INITIATION), -1, 20)
        assert unit.snaps[1].channel_state == 0
        assert unit.snaps[2].channel_state == 0

    def test_completed_through(self):
        # Completion (Figure 3 line 12) is min(lastSeen) over the gating
        # channels, which the control plane reads through this API.
        unit = _ideal()
        unit.process_packet(_pkt(2), channel_id=0, now_ns=10)
        unit.process_packet(_pkt(1), channel_id=1, now_ns=20)
        assert [unit.read_last_seen(c) for c in (0, 1, 2)] == [2, 1, 0]
        assert unit.sid == 2

    def test_completed_through_without_channel_state(self):
        # Without channel state completion is the current ID (line 19).
        unit = _ideal(channel_state=False)
        unit.process_packet(_pkt(4), 0, 10)
        assert unit.sid == 4
        assert unit.read_last_seen(0) == 0

    def test_snapshot_value_with_and_without_channel(self):
        unit = _ideal(value=lambda: 5)
        unit.process_packet(_pkt(1), 0, 10)
        unit.process_packet(_pkt(0), 0, 20)
        slot = unit.read_slot(1)
        assert (slot.value, slot.channel_state) == (5, 1)
        assert unit.take_slot(1) == (5, 10)

    def test_register_api_compatibility(self):
        unit = _ideal(value=lambda: 5)
        unit.process_packet(_pkt(1), 0, 10)
        assert unit.read_slot(1).valid
        assert not unit.read_slot(99).valid
        unit.clear_slot(1)
        assert not unit.read_slot(1).valid
        assert unit.read_last_seen(0) == 1


# Strategy: sequences of (carried sid delta, channel) events with
# nondecreasing per-channel sids and skips allowed.
_events = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),   # sid advance
              st.integers(min_value=0, max_value=2)),  # channel
    min_size=1, max_size=40)


@settings(max_examples=60)
@given(_events)
def test_property_speedlight_matches_ideal_when_no_skips(events):
    """Differential test: when every ID advance the unit observes is by
    exactly one (the common case the hardware handles), the constrained
    unit's slot contents must equal the ideal protocol's."""
    counter = {"v": 0}
    ideal = IdealUnit(UNIT, lambda: counter["v"], channel_state=True)
    speed = SpeedlightUnit(UNIT, IdSpace(1023), lambda: counter["v"],
                           channel_state=True)
    sid = 0
    now = 0
    for advance, channel in events:
        # Constrain to single-step advances (advance in {0, 1}): collapse
        # 2 -> 1 so the no-skip precondition holds.
        sid += min(advance, 1)
        now += 10
        ideal.process_packet(_pkt(sid), channel, now)
        speed.process_packet(_pkt(sid), channel, now)
        counter["v"] += 1  # the counter ticks after snapshot processing
    assert speed.sid == ideal.sid
    for epoch in range(1, sid + 1):
        islot = ideal.snaps.get(epoch)
        sslot = speed.read_slot(epoch)
        assert islot is not None and sslot.valid
        assert sslot.value == islot.value
        assert sslot.channel_state == islot.channel_state


@settings(max_examples=60)
@given(_events)
def test_property_current_epoch_matches_ideal_even_with_skips(events):
    """Even under ID skips, the *latest* epoch's local value matches the
    ideal protocol (only intermediate epochs are sacrificed)."""
    counter = {"v": 0}
    ideal = IdealUnit(UNIT, lambda: counter["v"], channel_state=False)
    speed = SpeedlightUnit(UNIT, IdSpace(1023), lambda: counter["v"],
                           channel_state=False)
    sid = 0
    now = 0
    for advance, channel in events:
        sid += advance
        now += 10
        ideal.process_packet(_pkt(sid), channel, now)
        speed.process_packet(_pkt(sid), channel, now)
        counter["v"] += 1
    if sid == 0:
        return
    assert speed.read_slot(speed.ids.wrap(sid)).value == \
        ideal.snaps[sid].value
