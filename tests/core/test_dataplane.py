"""Tests for the hardware-constrained Speedlight data-plane unit."""

import pytest

from repro.core.dataplane import SpeedlightUnit
from repro.core.ideal import IdealUnit
from repro.core.ids import IdSpace
from repro.sim.packet import FlowKey, Packet, PacketType, SnapshotHeader
from repro.sim.switch import Direction, UnitId

UNIT = UnitId("sw0", 0, Direction.INGRESS)


def _pkt(sid, packet_type=PacketType.DATA, size=1000):
    pkt = Packet(flow=FlowKey("a", "b", 1, 2), size_bytes=size)
    pkt.snapshot = SnapshotHeader(sid=sid, packet_type=packet_type)
    return pkt


def _unit(value=lambda: 0, channel_state=False, max_sid=255, notify=None,
          in_flight=None):
    return SpeedlightUnit(UNIT, IdSpace(max_sid), value,
                          channel_state=channel_state, notify=notify,
                          in_flight_value_fn=in_flight)


class TestAdvance:
    def test_higher_sid_advances_and_captures(self):
        values = iter([42])
        unit = _unit(value=lambda: next(values))
        returned = unit.process_packet(_pkt(1), channel_id=0, now_ns=100)
        assert returned == 1
        assert unit.sid == 1
        slot = unit.read_slot(1)
        assert slot.valid
        assert slot.value == 42
        assert slot.captured_ns == 100

    def test_equal_sid_is_noop(self):
        unit = _unit()
        unit.process_packet(_pkt(1), 0, 10)
        count = unit.notifications_emitted
        unit.process_packet(_pkt(1), 0, 20)
        assert unit.sid == 1
        assert unit.notifications_emitted == count  # no change, no notify

    def test_skip_leaves_intermediate_slots_invalid(self):
        unit = _unit(value=lambda: 7)
        unit.process_packet(_pkt(3), 0, 10)  # jump 0 -> 3
        assert unit.sid == 3
        assert unit.read_slot(3).valid
        assert not unit.read_slot(1).valid  # no line-rate loop (§5.3)
        assert not unit.read_slot(2).valid

    def test_capture_resets_channel_state(self):
        unit = _unit(channel_state=True)
        unit.process_packet(_pkt(1), 0, 10)
        unit.process_packet(_pkt(0), 0, 20)  # in-flight credit
        assert unit.read_slot(1).channel_state == 1
        unit.process_packet(_pkt(2), 0, 30)
        assert unit.read_slot(2).channel_state == 0


class TestInFlight:
    def test_in_flight_credits_current_slot(self):
        unit = _unit(channel_state=True)
        unit.process_packet(_pkt(2), 0, 10)
        unit.process_packet(_pkt(1), 0, 20)
        unit.process_packet(_pkt(1), 0, 30)
        assert unit.read_slot(2).channel_state == 2

    def test_in_flight_ignored_without_channel_state(self):
        unit = _unit(channel_state=False)
        unit.process_packet(_pkt(2), 0, 10)
        unit.process_packet(_pkt(1), 0, 20)
        assert unit.read_slot(2).channel_state == 0

    def test_initiations_never_counted_as_in_flight(self):
        unit = _unit(channel_state=True)
        unit.process_packet(_pkt(2), 0, 10)
        unit.process_packet(_pkt(1, PacketType.INITIATION), -1, 20)
        assert unit.read_slot(2).channel_state == 0

    def test_custom_in_flight_contribution(self):
        unit = _unit(channel_state=True, in_flight=lambda p: p.size_bytes)
        unit.process_packet(_pkt(1), 0, 10)
        unit.process_packet(_pkt(0, size=700), 0, 20)
        assert unit.read_slot(1).channel_state == 700

    def test_old_packet_still_stamped_with_current_sid(self):
        unit = _unit(channel_state=True)
        unit.process_packet(_pkt(3), 0, 10)
        returned = unit.process_packet(_pkt(1), 0, 20)
        assert returned == 3


class TestLastSeen:
    def test_tracked_per_channel(self):
        unit = _unit(channel_state=True)
        unit.process_packet(_pkt(2), channel_id=0, now_ns=10)
        unit.process_packet(_pkt(1), channel_id=5, now_ns=20)
        assert unit.read_last_seen(0) == 2
        assert unit.read_last_seen(5) == 1
        assert unit.read_last_seen(99) == 0  # untouched channels read 0

    def test_never_moves_backwards(self):
        unit = _unit(channel_state=True)
        unit.process_packet(_pkt(3), 0, 10)
        unit.process_packet(_pkt(1), 0, 20)
        assert unit.read_last_seen(0) == 3

    def test_not_tracked_without_channel_state(self):
        unit = _unit(channel_state=False)
        unit.process_packet(_pkt(2), 0, 10)
        assert unit.last_seen == {}


class TestNotifications:
    def test_sid_change_notifies_with_old_and_new(self):
        log = []
        unit = _unit(notify=log.append)
        unit.process_packet(_pkt(2), 0, 55)
        assert len(log) == 1
        n = log[0]
        assert (n.old_sid, n.new_sid, n.timestamp_ns) == (0, 2, 55)
        assert n.unit == UNIT
        assert n.channel is None  # no channel state configured

    def test_last_seen_change_notifies_with_channel_values(self):
        log = []
        unit = _unit(channel_state=True, notify=log.append)
        unit.process_packet(_pkt(1), channel_id=3, now_ns=10)
        n = log[0]
        assert n.channel == 3
        assert (n.old_last_seen, n.new_last_seen) == (0, 1)
        assert n.old_sid != n.new_sid
        assert n.old_last_seen != n.new_last_seen

    def test_no_notification_when_nothing_changes(self):
        log = []
        unit = _unit(channel_state=True, notify=log.append)
        unit.process_packet(_pkt(1), 0, 10)
        unit.process_packet(_pkt(1), 0, 20)  # same sid, same last seen
        assert len(log) == 1

    def test_in_flight_only_notifies_if_last_seen_moves(self):
        log = []
        unit = _unit(channel_state=True, notify=log.append)
        unit.process_packet(_pkt(2), 0, 10)
        log.clear()
        unit.process_packet(_pkt(1), 0, 20)   # ls 2 -> no move
        assert log == []


class TestWraparound:
    def test_sid_rolls_over(self):
        unit = _unit(max_sid=7)
        for epoch in range(1, 10):
            unit.process_packet(_pkt(epoch % 8), 0, epoch)
        assert unit.sid == 9 % 8

    def test_cleared_slot_reusable_after_rollover(self):
        unit = _unit(max_sid=7, value=lambda: 99)
        unit.process_packet(_pkt(1), 0, 10)
        unit.clear_slot(1)
        assert not unit.read_slot(1).valid
        # Epoch 9 wraps to slot 1 again.
        for epoch in range(2, 8):
            unit.process_packet(_pkt(epoch), 0, epoch)
        unit.process_packet(_pkt(0), 0, 100)  # epoch 8
        unit.process_packet(_pkt(1), 0, 101)  # epoch 9 -> slot 1
        assert unit.read_slot(1).valid


class TestRegisterAccess:
    def test_poll_state_exposes_registers(self):
        # The registers a control-plane poll reads (poll_registers).
        unit = _unit(channel_state=True)
        unit.process_packet(_pkt(2), channel_id=1, now_ns=10)
        assert unit.sid == 2
        assert unit.read_last_seen(1) == 2
        assert unit.read_last_seen(0) == 0

    def test_read_slot_returns_a_copy(self):
        unit = _unit(value=lambda: 42)
        unit.process_packet(_pkt(1), 0, 10)
        slot = unit.read_slot(1)
        slot.valid, slot.value = False, 0
        assert (unit.read_slot(1).valid, unit.read_slot(1).value) == (True, 42)
        unit.clear_slot(1)
        assert slot.captured_ns == 10  # the copy outlives the clear

    @pytest.mark.parametrize("kind", ["speedlight", "ideal"])
    def test_take_slot_is_a_read_then_a_clear(self, kind):
        def build():
            values = iter(range(100, 200))
            if kind == "ideal":
                return IdealUnit(UNIT, lambda: next(values), channel_state=True)
            return _unit(value=lambda: next(values), channel_state=True,
                         max_sid=7)

        def register(unit, slot_id):
            slot = unit.read_slot(slot_id)
            return slot.valid, slot.value, slot.channel_state, slot.captured_ns

        taker, reader = build(), build()
        # Skips, in-flight credits and a stale packet.
        for step, sid in enumerate((1, 3, 2, 5, 4, 4, 6)):
            for unit in (taker, reader):
                unit.process_packet(_pkt(sid), channel_id=0, now_ns=10 * step)
        for slot_id in range(8):
            slot = reader.read_slot(slot_id)
            expected = (slot.value, slot.captured_ns) if slot.valid else None
            reader.clear_slot(slot_id)
            assert taker.take_slot(slot_id) == expected
            assert register(taker, slot_id) == register(reader, slot_id)
            assert taker.take_slot(slot_id) is None

    def test_headerless_packet_asserts(self):
        unit = _unit()
        with pytest.raises(AssertionError):
            unit.process_packet(Packet(flow=FlowKey("a", "b", 1, 2)), 0, 0)
