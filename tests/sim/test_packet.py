"""Tests for packets and snapshot headers."""

from repro.sim.packet import (FlowKey, Packet, PacketType, SnapshotHeader,
                              make_initiation_packet)


class TestFlowKey:
    def test_reversed_swaps_endpoints_and_ports(self):
        flow = FlowKey("a", "b", 100, 200, 17)
        rev = flow.reversed()
        assert rev == FlowKey("b", "a", 200, 100, 17)

    def test_hashable_and_equal(self):
        assert FlowKey("a", "b", 1, 2) == FlowKey("a", "b", 1, 2)
        assert len({FlowKey("a", "b", 1, 2), FlowKey("a", "b", 1, 2)}) == 1


class TestSnapshotHeader:
    def test_defaults(self):
        header = SnapshotHeader()
        assert header.sid == 0
        assert header.packet_type is PacketType.DATA

    def test_copy_is_independent(self):
        header = SnapshotHeader(sid=3)
        copy = header.copy()
        copy.sid = 9
        assert header.sid == 3


class TestPacket:
    def _packet(self) -> Packet:
        return Packet(flow=FlowKey("h1", "h2", 1000, 80))

    def test_src_dst_come_from_flow(self):
        pkt = self._packet()
        assert pkt.src == "h1"
        assert pkt.dst == "h2"

    def test_uids_are_unique(self):
        assert self._packet().uid != self._packet().uid

    def test_push_and_strip_snapshot_header(self):
        pkt = self._packet()
        assert pkt.snapshot is None
        header = pkt.push_snapshot_header(sid=5)
        assert pkt.snapshot is header
        assert header.sid == 5
        pkt.strip_snapshot_header()
        assert pkt.snapshot is None


class TestInitiationPacket:
    def test_carries_sid_and_type(self):
        pkt = make_initiation_packet(sid=7, created_ns=123)
        assert pkt.snapshot is not None
        assert pkt.snapshot.sid == 7
        assert pkt.snapshot.packet_type is PacketType.INITIATION
        assert pkt.created_ns == 123

    def test_is_small(self):
        assert make_initiation_packet(1).size_bytes <= 128
