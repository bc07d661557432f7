"""Tests for the count-min sketch and heavy-hitter counter."""

import pytest
from hypothesis import given, strategies as st

from repro.core import deploy
from repro.counters import CountMinSketch, HeavyHitterCounter
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet
from repro.sim.switch import Direction
from repro.topology import single_switch


def _flow(sport):
    return FlowKey("a", "b", sport, 80)


def _pkt(sport):
    return Packet(flow=_flow(sport))


class TestCountMinSketch:
    def test_single_flow_exact(self):
        sketch = CountMinSketch()
        for _ in range(50):
            sketch.update(_flow(1))
        assert sketch.estimate(_flow(1)) == 50

    def test_never_underestimates(self):
        sketch = CountMinSketch(depth=3, width=64)  # small: collisions
        truth = {}
        for sport in range(200):
            count = (sport % 5) + 1
            truth[sport] = count
            for _ in range(count):
                sketch.update(_flow(sport))
        for sport, count in truth.items():
            assert sketch.estimate(_flow(sport)) >= count

    def test_unseen_flow_small_estimate(self):
        sketch = CountMinSketch(width=2048)
        for sport in range(100):
            sketch.update(_flow(sport))
        assert sketch.estimate(_flow(99_999)) <= 2

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CountMinSketch(depth=0)
        with pytest.raises(ValueError):
            CountMinSketch(width=4)

    @given(st.dictionaries(st.integers(min_value=0, max_value=1000),
                           st.integers(min_value=1, max_value=20),
                           min_size=1, max_size=40))
    def test_property_estimates_dominate_truth(self, truth):
        sketch = CountMinSketch(depth=3, width=256)
        for sport, count in truth.items():
            for _ in range(count):
                sketch.update(_flow(sport))
        for sport, count in truth.items():
            assert sketch.estimate(_flow(sport)) >= count


class TestHeavyHitterCounter:
    def test_identifies_dominant_flow(self):
        counter = HeavyHitterCounter()
        for sport in range(20):       # mice: 1 packet each
            counter.update(_pkt(sport), 0)
        for _ in range(100):          # the elephant
            counter.update(_pkt(777), 0)
        flow, estimate = counter.top()
        assert flow == _flow(777)
        assert estimate >= 100

    def test_read_returns_estimate(self):
        counter = HeavyHitterCounter()
        for _ in range(7):
            counter.update(_pkt(1), 0)
        assert counter.read() >= 7

    def test_snapshot_deployment_integration(self):
        net = Network(single_switch(num_hosts=3), NetworkConfig(seed=1))
        dep = deploy(net, metric="heavy_hitter")
        # An elephant from server0 and a mouse from server1.
        net.host("server0").send_flow("server2", 200, sport=42, dport=80)
        net.host("server1").send_flow("server2", 5, sport=43, dport=80)
        epoch = dep.take_snapshot(at_wall_ns=5 * MS)
        net.run(until=300 * MS)
        snap = dep.observer.snapshot(epoch)
        assert snap.complete
        out_port = net.port_toward("sw0", "server2")
        value = snap.value_of("sw0", out_port, Direction.EGRESS)
        assert value >= 100  # the elephant dominates the victim port
        unit = net.switch("sw0").ports[out_port].egress
        hh = unit.counters.get("heavy_hitter")
        assert hh.heavy_flow.sport == 42
