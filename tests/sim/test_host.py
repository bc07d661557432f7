"""Tests for end hosts."""

import gc

import pytest

from repro.sim.engine import MS, Simulator, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet, SnapshotHeader
from repro.topology import fat_tree, single_switch
from repro.workloads import PoissonWorkload
from repro.workloads.synthetic import PoissonConfig


def _net():
    return Network(single_switch(num_hosts=2), NetworkConfig(seed=5))


class TestSending:
    def test_send_flow_delivers_all_packets(self, record_arrivals):
        net = _net()
        log = record_arrivals(net)
        flow = net.host("server0").send_flow("server1", 20, sport=1, dport=2)
        net.run(until=2 * MS)
        record = log["server1"][flow]
        assert record.packets == 20
        assert record.bytes == 20 * 1500

    def test_send_flow_respects_gap(self, record_arrivals):
        net = _net()
        log = record_arrivals(net)
        flow = net.host("server0").send_flow("server1", 5, sport=1, dport=2,
                                             gap_ns=100 * US)
        net.run(until=2 * MS)
        record = log["server1"][flow]
        span = record.last_ns - record.first_ns
        assert span >= 4 * 100 * US

    def test_send_flow_start_delay(self):
        net = _net()
        net.host("server0").send_flow("server1", 1, sport=1, dport=2,
                                      start_delay_ns=1 * MS)
        net.run(until=500 * US)
        assert net.host("server1").packets_received == 0
        net.run(until=3 * MS)
        assert net.host("server1").packets_received == 1

    def test_unconnected_host_cannot_send(self):
        sim = Simulator()
        from repro.sim.host import Host
        host = Host(sim, "lonely")
        with pytest.raises(RuntimeError):
            host.send_packet(Packet(flow=FlowKey("lonely", "x", 1, 2)))

    def test_nic_paces_at_line_rate(self):
        net = _net()
        # 100 x 1500B at 25 Gbps = 48 us of serialization minimum.
        net.host("server0").send_flow("server1", 100, sport=1, dport=2)
        net.run(until=10 * US)
        assert net.host("server1").packets_received < 100
        net.run(until=5 * MS)
        assert net.host("server1").packets_received == 100


class TestReceiving:
    def test_on_receive_callback(self):
        net = _net()
        got = []
        net.host("server1").on_receive = got.append
        net.host("server0").send_flow("server1", 3, sport=1, dport=2)
        net.run(until=1 * MS)
        assert len(got) == 3

    def test_stray_snapshot_header_stripped_defensively(self):
        net = _net()
        host = net.host("server1")
        pkt = Packet(flow=FlowKey("server0", "server1", 1, 2))
        pkt.snapshot = SnapshotHeader(sid=3)
        host.receive_from_link(pkt, host.link)
        assert pkt.snapshot is None
        assert host.packets_received == 1

    def test_churned_traffic_leaves_no_state_behind(self):
        # Every packet is a new flow, yet the live heap must not grow
        # with the packets delivered: nothing on the send or receive
        # path keeps a flow or its key.
        net = Network(fat_tree(k=4), NetworkConfig(seed=6))
        PoissonWorkload(net, PoissonConfig(
            rate_pps=2_000, stop_ns=20 * MS, sport_churn=True)).start()

        def live_after(until_ns):
            net.run(until=until_ns)
            gc.collect()
            return (len(gc.get_objects()),
                    sum(h.packets_received for h in net.hosts.values()))

        samples = [live_after(t * MS) for t in (3, 6, 9)]
        objects = [count for count, _delivered in samples]
        assert samples[-1][1] - samples[0][1] > 2000
        # A few objects of slack for allocator-level wobble; an intern
        # table of flow keys grew it by one per delivered packet.
        assert max(objects) - min(objects) < 40
