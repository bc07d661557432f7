"""Tests for the counter framework and the basic counters."""

import ast
import inspect
from types import SimpleNamespace

import pytest

import repro.counters
from repro.counters import (METRICS, ByteCounter, PacketCounter,
                            QueueDepthCounter, metric)
from repro.sim.packet import FlowKey, Packet


def _pkt(size=1000):
    return Packet(flow=FlowKey("a", "b", 1, 2), size_bytes=size)


class TestRegistry:
    def test_known_metrics_registered(self):
        assert sorted(METRICS) == [
            "active_flows", "byte_count", "ewma_interarrival",
            "ewma_packet_rate", "fib_version", "heavy_hitter",
            "packet_count", "queue_depth", "queue_watermark"]
        # Only the two accumulators whose in-flight packets are countable
        # have a channel-state rule; no gauge has one (§4.2).
        pkt = _pkt(300)
        assert {name: m.in_flight(pkt) for name, m in METRICS.items()
                if m.in_flight is not None} == {"packet_count": 1,
                                                "byte_count": 300}
        assert not any(m.gauge and m.in_flight for m in METRICS.values())

    def test_make_counter_instantiates_fresh_objects(self, single_switch_net):
        unit = single_switch_net.switch("sw0").ports[0].ingress
        a = metric("packet_count").counter(unit)
        b = metric("packet_count").counter(unit)
        a.update(_pkt(), 0)
        assert a.read() == 1
        assert b.read() == 0

    def test_unknown_metric_raises_with_known_list(self):
        with pytest.raises(KeyError, match="packet_count"):
            metric("no_such_metric")

    def test_duplicate_registration_rejected(self):
        """A dict literal keeps the last of two equal keys without a word,
        so the table's source must name each metric once."""
        module = ast.parse(inspect.getsource(repro.counters))
        table = next(node.value for node in module.body
                     if isinstance(node, ast.AnnAssign)
                     and node.target.id == "METRICS")
        names = [key.value for key in table.keys]
        assert len(names) == len(set(names)) == len(METRICS)


class TestPacketCounter:
    def test_counts_packets(self):
        counter = PacketCounter()
        for _ in range(5):
            counter.update(_pkt(), 0)
        assert counter.read() == 5


class TestByteCounter:
    def test_counts_bytes(self):
        counter = ByteCounter()
        counter.update(_pkt(100), 0)
        counter.update(_pkt(250), 0)
        assert counter.read() == 350


class TestQueueDepthCounter:
    def test_reads_bound_gauge(self):
        depth = {"value": 3}
        counter = QueueDepthCounter(lambda: depth["value"])
        assert counter.read() == 3
        depth["value"] = 7
        assert counter.read() == 7

    def test_update_is_noop(self):
        counter = QueueDepthCounter(lambda: 1)
        counter.update(_pkt(), 0)
        assert counter.read() == 1

    def test_for_egress_unit(self, single_switch_net):
        port = single_switch_net.switch("sw0").ports[0]
        depth = METRICS["queue_depth"].counter(port.egress)
        assert isinstance(depth, QueueDepthCounter)
        assert depth.read() == 0
        port.egress.queue = SimpleNamespace(depth_packets=3)
        assert depth.read() == 3  # the live queue, read at each call
        # Ingress units have no queue: a constant-zero gauge.
        assert METRICS["queue_depth"].counter(port.ingress).read() == 0
