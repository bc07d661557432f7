"""Tests for bounded egress buffers (tail drop)."""

import pytest

from repro.analysis import ConsistencyChecker
from repro.core import deploy
from repro.sim.engine import MS, Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet
from repro.sim.switch import SwitchConfig, _EgressQueue
from repro.topology import single_switch


def _pkt(seq=0):
    return Packet(flow=FlowKey("a", "b", 1, 2), size_bytes=1000, seq=seq)


class TestQueueCapacity:
    def test_tail_drop_beyond_capacity(self):
        sim = Simulator()
        sent = []
        queue = _EgressQueue(sim, transmit=lambda p, _seq: sent.append(p),
                             ser_fn=lambda p: 1000, capacity_packets=3)
        results = [queue.push(_pkt(i)) for i in range(6)]
        # One in service + two queued fit; the rest tail-drop.
        assert results == [True, True, True, False, False, False]
        assert queue.packets_dropped == 3
        sim.run()
        assert len(sent) == 3

    def test_capacity_frees_as_queue_drains(self):
        sim = Simulator()
        sent = []
        queue = _EgressQueue(sim, transmit=lambda p, _seq: sent.append(p),
                             ser_fn=lambda p: 1000, capacity_packets=2)
        queue.push(_pkt(0))
        queue.push(_pkt(1))
        assert not queue.push(_pkt(2))
        sim.run()
        assert queue.push(_pkt(3))
        sim.run()
        assert [p.seq for p in sent] == [0, 1, 3]

    def test_invalid_capacity(self):
        # The capacity is checked once, by the config a queue is built
        # from.
        with pytest.raises(ValueError,
                           match="SwitchConfig.queue_capacity_packets "):
            SwitchConfig(queue_capacity_packets=0)

    def test_unbounded_by_default(self):
        sim = Simulator()
        queue = _EgressQueue(sim, transmit=lambda p, _seq: None,
                             ser_fn=lambda p: 10**9)
        for i in range(10_000):
            assert queue.push(_pkt(i))
        assert queue.packets_dropped == 0


class TestNetworkWithBoundedBuffers:
    def test_oversubscription_drops_and_bounds_depth(self):
        cfg = NetworkConfig(seed=1, switch_config=SwitchConfig(
            queue_capacity_packets=64))
        net = Network(single_switch(num_hosts=3), cfg)
        # 2:1 fan-in at line rate: the victim buffer must cap at 64.
        net.host("server0").send_flow("server2", 2000, sport=1, dport=2)
        net.host("server1").send_flow("server2", 2000, sport=3, dport=4)
        net.run(until=10 * MS)
        out_port = net.port_toward("sw0", "server2")
        egress = net.switch("sw0").ports[out_port].egress
        assert egress.queue.max_depth_packets <= 64
        assert egress.queue.packets_dropped > 0
        received = net.host("server2").packets_received
        assert received == 4000 - egress.queue.packets_dropped

    def test_snapshots_consistent_under_tail_drops(self):
        """Tail drops are just another form of packet loss; the
        conservation law is receiver-side and must hold exactly."""
        cfg = NetworkConfig(seed=2, enable_tracing=True,
                            switch_config=SwitchConfig(
                                queue_capacity_packets=32))
        net = Network(single_switch(num_hosts=3), cfg)
        net.host("server0").send_flow("server2", 3000, sport=1, dport=2)
        net.host("server1").send_flow("server2", 3000, sport=3, dport=4)
        deployment = deploy(net, metric="packet_count", channel_state=True)
        epochs = deployment.schedule_campaign(count=4, interval_ns=2 * MS)
        net.run(until=500 * MS)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) == 4
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=True)
