"""Tests for class-of-service lanes (§4.1's CoS sub-channel model)."""

import pytest

from repro.analysis import ConsistencyChecker
from repro.core import ControlPlaneConfig, deploy
from repro.sim.engine import MS, US, Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet
from repro.sim.switch import SwitchConfig, _EgressQueue
from repro.topology import leaf_spine, single_switch
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


def _pkt(cos=0, size=1000, seq=0):
    return Packet(flow=FlowKey("a", "b", 1, 2), size_bytes=size, cos=cos,
                  seq=seq)


class TestPriorityQueue:
    def _queue(self, num_cos=2):
        sim = Simulator()
        sent = []
        queue = _EgressQueue(sim, transmit=lambda p, _seq: sent.append(p),
                             ser_fn=lambda size: 100, num_cos=num_cos)
        return sim, queue, sent

    def test_higher_class_preempts_queue_order(self):
        sim, queue, sent = self._queue()
        # Three low-priority packets, then one high-priority arrives.
        for seq in range(3):
            queue.push(_pkt(cos=0, seq=seq))
        queue.push(_pkt(cos=1, seq=99))
        sim.run()
        # Packet 0 was already in service; the high-priority packet jumps
        # ahead of the remaining low-priority ones.
        assert [p.seq for p in sent] == [0, 99, 1, 2]

    def test_fifo_within_a_class(self):
        sim, queue, sent = self._queue()
        for seq in range(5):
            queue.push(_pkt(cos=1, seq=seq))
        sim.run()
        assert [p.seq for p in sent] == list(range(5))

    def test_depth_counts_all_lanes(self):
        sim, queue, _sent = self._queue()
        queue.push(_pkt(cos=0))
        queue.push(_pkt(cos=1))
        queue.push(_pkt(cos=1))
        assert queue.depth_packets == 3
        assert queue.lane_depth(1) == 2  # one cos-0 packet is in service

    def test_out_of_range_cos_clamped(self):
        sim, queue, sent = self._queue(num_cos=2)
        queue.push(_pkt(cos=7))
        queue.push(_pkt(cos=-3))
        sim.run()
        assert len(sent) == 2

    def test_per_packet_serialization(self):
        sim = Simulator()
        done = []
        queue = _EgressQueue(
            sim, transmit=lambda p, _seq: done.append(sim.now),
            ser_fn=lambda size: size)
        queue.push(_pkt(size=100))
        queue.push(_pkt(size=5000))
        queue.push(_pkt(size=10))
        sim.run()
        # Each packet's serialisation reflects its own size.
        assert done == [100, 5100, 5110]

    def test_invalid_lane_count(self):
        # The lane count is checked once, by the config a queue is built
        # from.
        with pytest.raises(ValueError, match="SwitchConfig.num_cos "):
            SwitchConfig(num_cos=0)


class TestCosChannels:
    def _cos_net(self, topo=None):
        cfg = NetworkConfig(seed=1, switch_config=SwitchConfig(num_cos=2),
                            enable_tracing=True)
        return Network(topo or leaf_spine(hosts_per_leaf=1), cfg)

    def test_channel_ids_distinct_per_class(self):
        net = self._cos_net(single_switch(num_hosts=2))
        sw = net.switch("sw0")
        assert sw.egress_channel_id(0, 0) != sw.egress_channel_id(0, 1)
        assert sw.egress_channel_id(1, 0) != sw.egress_channel_id(0, 1)

    def test_high_priority_traffic_overtakes(self):
        net = self._cos_net(single_switch(num_hosts=3))
        # Saturate server2's link with low-priority, then send one
        # high-priority packet which must arrive ahead of the backlog.
        for seq in range(50):
            net.host("server0").send_packet(
                Packet(flow=FlowKey("server0", "server2", 1, 2),
                       size_bytes=1500, cos=0, seq=seq))
        arrivals = []
        net.host("server2").on_receive = lambda p: arrivals.append(
            (p.cos, p.seq))
        net.sim.schedule(5 * US, net.host("server1").send_packet,
                         Packet(flow=FlowKey("server1", "server2", 3, 4),
                                size_bytes=200, cos=1, seq=777))
        net.run(until=2 * MS)
        high_index = arrivals.index((1, 777))
        assert high_index < 40  # overtook most of the low-priority backlog

    def test_snapshot_consistency_with_two_classes(self):
        net = self._cos_net()
        duration = 800 * MS
        wl_low = PoissonWorkload(net, PoissonConfig(
            seed=3, rate_pps=15_000, stop_ns=duration, sport_churn=True))
        wl_low.start()
        # A second workload in the high-priority class.
        wl_high = PoissonWorkload(net, PoissonConfig(
            seed=4, rate_pps=8_000, stop_ns=duration, sport_churn=True))
        original_emit = wl_high.emit

        def emit_high(src, dst, **kwargs):
            host = net.host(src)
            flow = FlowKey(src, dst, kwargs["sport"], kwargs["dport"])
            host.send_packet(Packet(flow=flow, cos=1,
                                    size_bytes=kwargs["size_bytes"]))
            wl_high.packets_emitted += 1

        wl_high.emit = emit_high
        wl_high.start()

        deployment = deploy(
            net, metric="packet_count", channel_state=True,
            control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
        epochs = deployment.schedule_campaign(count=5, interval_ns=15 * MS)
        net.run(until=duration)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) == 5
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=True)

    def test_gating_covers_both_classes(self):
        net = self._cos_net()
        deployment = deploy(net, metric="packet_count", channel_state=True)
        cp = deployment.control_planes["leaf0"]
        from repro.sim.switch import Direction, UnitId
        uplink = net.port_toward("leaf0", "spine0")
        tracker = cp.trackers[UnitId("leaf0", uplink, Direction.INGRESS)]
        assert tracker.gating == [0, 1]  # one sub-channel per class

    def test_cos_classes_config_restricts_gating(self):
        """An operator whose traffic runs in class 0 only drops class 1's
        sub-channel from gating (§6's neighbor exclusion, per class)."""
        net = self._cos_net()
        deployment = deploy(net, metric="packet_count", channel_state=True)
        cp = deployment.control_planes["leaf0"]
        from repro.sim.switch import Direction, UnitId
        uplink = net.port_toward("leaf0", "spine0")
        unit = UnitId("leaf0", uplink, Direction.INGRESS)
        cp.exclude_channel(unit, 1)
        assert cp.trackers[unit].gating == [0]
