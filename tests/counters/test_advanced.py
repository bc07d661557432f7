"""Tests for the watermark and flow-count sketch counters."""

import pytest
from hypothesis import given, strategies as st

from repro.counters import ActiveFlowEstimator, QueueHighWatermark
from repro.core import deploy
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet
from repro.topology import single_switch


def _pkt(sport=1, dst="b"):
    return Packet(flow=FlowKey("a", dst, sport, 80))


class TestQueueHighWatermark:
    def test_tracks_maximum(self):
        depth = {"value": 0}
        counter = QueueHighWatermark(lambda: depth["value"],
                                     clear_on_read=False)
        for value in (1, 5, 3, 2):
            depth["value"] = value
            counter.update(_pkt(), 0)
        assert counter.read() == 5

    def test_clear_on_read_resets_to_current_depth(self):
        depth = {"value": 0}
        counter = QueueHighWatermark(lambda: depth["value"])
        depth["value"] = 9
        counter.update(_pkt(), 0)
        depth["value"] = 2
        assert counter.read() == 9
        assert counter.read() == 2  # watermark restarted from live depth

    def test_deployment_binds_egress(self):
        net = Network(single_switch(num_hosts=2), NetworkConfig(seed=1))
        dep = deploy(net, metric="queue_watermark")
        net.host("server0").send_flow("server1", 50, sport=1, dport=2)
        epoch = dep.take_snapshot(at_wall_ns=1 * MS)
        net.run(until=200 * MS)
        snap = dep.observer.snapshot(epoch)
        assert snap.complete

    def test_channel_state_rejected(self):
        net = Network(single_switch(num_hosts=2), NetworkConfig(seed=1))
        with pytest.raises(ValueError, match="gauge"):
            deploy(net, metric="queue_watermark", channel_state=True)


class TestActiveFlowEstimator:
    def test_empty_reads_zero(self):
        assert ActiveFlowEstimator().read() == 0

    def test_single_flow_counts_once(self):
        counter = ActiveFlowEstimator()
        for _ in range(100):
            counter.update(_pkt(sport=42), 0)
        assert counter.read() == 1

    def test_estimate_tracks_distinct_flows(self):
        counter = ActiveFlowEstimator(bits=4096)
        for sport in range(300):
            counter.update(_pkt(sport=sport), 0)
        assert 250 <= counter.read() <= 350  # ~10% linear-counting error

    def test_saturation_reports_ceiling(self):
        counter = ActiveFlowEstimator(bits=8)
        for sport in range(500):
            counter.update(_pkt(sport=sport), 0)
        assert counter.read() == 8 * 8

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ActiveFlowEstimator(bits=4)

    @given(st.sets(st.integers(min_value=0, max_value=2**16), min_size=1,
                   max_size=64))
    def test_property_estimate_bounded_by_updates(self, sports):
        counter = ActiveFlowEstimator(bits=2048)
        for sport in sports:
            counter.update(_pkt(sport=sport), 0)
        # Linear counting never wildly overshoots small cardinalities.
        assert counter.read() <= 2 * len(sports) + 2
        assert counter.read() >= 1
