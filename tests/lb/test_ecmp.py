"""Tests for ECMP load balancing."""

import zlib
from collections import Counter
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.counters.advanced import ActiveFlowEstimator
from repro.counters.heavy_hitter import HeavyHitterCounter
from repro.lb import EcmpBalancer, FlowletBalancer, FlowletConfig, flow_hash
from repro.lb import ecmp
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet
from repro.topology import Topology, fat_tree
from repro.workloads import PoissonWorkload
from repro.workloads.synthetic import PoissonConfig


def _pkt(sport, dport=80, src="a", dst="b"):
    return Packet(flow=FlowKey(src, dst, sport, dport))


class TestFlowHash:
    def test_deterministic(self):
        flow = FlowKey("a", "b", 1, 2)
        assert flow_hash(flow) == flow_hash(FlowKey("a", "b", 1, 2))

    def test_salt_changes_hash(self):
        flow = FlowKey("a", "b", 1, 2)
        hashes = {flow_hash(flow, salt) for salt in range(16)}
        assert len(hashes) > 8

    def test_distinct_flows_usually_differ(self):
        hashes = {flow_hash(FlowKey("a", "b", sport, 80))
                  for sport in range(200)}
        assert len(hashes) == 200


class TestEcmpBalancer:
    def test_same_flow_always_same_member(self):
        lb = EcmpBalancer()
        picks = {lb.select([3, 4], _pkt(1234), now_ns=t)
                 for t in range(0, 10**6, 1000)}
        assert len(picks) == 1

    def test_flows_spread_over_members(self):
        lb = EcmpBalancer()
        counts = Counter(lb.select([0, 1, 2, 3], _pkt(sport), 0)
                         for sport in range(400))
        assert set(counts) == {0, 1, 2, 3}
        assert all(count > 50 for count in counts.values())

    def test_single_candidate(self):
        assert EcmpBalancer().select([7], _pkt(1), 0) == 7

    def test_decision_counter(self):
        lb = EcmpBalancer()
        for sport in range(5):
            lb.select([0, 1], _pkt(sport), 0)
        assert lb.decisions == 5

    def test_different_salts_decorrelate_switches(self):
        lb_a, lb_b = EcmpBalancer(salt=1), EcmpBalancer(salt=2)
        picks_a = [lb_a.select([0, 1], _pkt(s), 0) for s in range(200)]
        picks_b = [lb_b.select([0, 1], _pkt(s), 0) for s in range(200)]
        agreement = sum(a == b for a, b in zip(picks_a, picks_b)) / 200
        assert 0.3 < agreement < 0.7  # independent coin flips

    @given(st.integers(min_value=0, max_value=65535),
           st.integers(min_value=2, max_value=16))
    def test_property_selection_in_candidates(self, sport, n):
        candidates = list(range(100, 100 + n))
        assert EcmpBalancer().select(candidates, _pkt(sport), 0) in candidates


def _uncached_flow_hash(flow, salt=0):
    """The flow hash as it was before the CRC was kept on the key:
    formatted, encoded and CRC'd on every call.  UTF-8 rather than ASCII
    is the one change, and it is the same bytes for every ASCII name."""
    key = f"{flow.src}|{flow.dst}|{flow.sport}|{flow.dport}|{flow.proto}"
    h = zlib.crc32(key.encode("utf-8"))
    h ^= (salt * 0x9E3779B9) & 0xFFFFFFFF
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


def _consumer_outputs(flows):
    """What every user of the flow hash decides over ``flows``: ECMP
    members, the heavy-hitter sketch, the active-flow bitmap and the
    flowlet table's choices."""
    balancer = EcmpBalancer(salt=3)
    heavy = HeavyHitterCounter(width=64)
    active = ActiveFlowEstimator(bits=64, salt=5)
    with mock.patch("repro.lb.flowlet.FLOWLET_TABLE_SIZE", 16):
        flowlet = FlowletBalancer(FlowletConfig(timeout_ns=10 * US, salt=7))
    picks = []
    for t, flow in enumerate(flows):
        packet = Packet(flow=flow)
        heavy.update(packet, t)
        active.update(packet, t)
        picks.append((balancer.select([0, 1, 2], packet, t),
                      flowlet.select([0, 1, 2], packet, t * US),
                      heavy.read()))
    return picks, heavy.top(), bytes(active._bitmap), heavy.sketch._rows


def _under_oracle(flows):
    with mock.patch.object(ecmp, "flow_hash", _uncached_flow_hash), \
            mock.patch("repro.lb.flowlet.flow_hash", _uncached_flow_hash), \
            mock.patch("repro.counters.heavy_hitter.flow_hash",
                       _uncached_flow_hash), \
            mock.patch("repro.counters.advanced.flow_hash",
                       _uncached_flow_hash):
        return _consumer_outputs(flows)


_names = st.text(min_size=1, max_size=6)
_ports = st.integers(min_value=0, max_value=65535)
_keys = st.tuples(_names, _names, _ports, _ports,
                  st.integers(min_value=0, max_value=255))


class TestCrcKeptOnTheKey:
    """The CRC is computed once per key and kept; every hash value, and
    so every decision made from one, is the uncached one."""

    @given(st.lists(_keys, min_size=1, max_size=12),
           st.integers(min_value=0, max_value=2**32))
    def test_equal_to_the_uncached_hash(self, fields, salt):
        keys = [FlowKey(*f) for f in fields]
        for key in keys + keys:          # second pass reads the kept CRC
            assert flow_hash(key, salt) == _uncached_flow_hash(key, salt)

    @given(st.lists(_keys, min_size=1, max_size=12))
    def test_equal_keys_built_twice_each_keep_their_own_crc(self, fields):
        payloads = []

        def counting_crc32(data):
            payloads.append(data)
            return zlib.crc32(data)

        with mock.patch.object(ecmp, "zlib",
                               SimpleNamespace(crc32=counting_crc32)):
            first = [FlowKey(*f) for f in fields]
            again = [FlowKey(*f) for f in fields]
            assert all(a is not b and a == b and hash(a) == hash(b)
                       for a, b in zip(first, again))
            for _ in range(2):
                for a, b in zip(first, again):
                    assert flow_hash(b, 9) == flow_hash(a, 9) \
                        == _uncached_flow_hash(b, 9)
        assert len(payloads) == len(first) + len(again)

    @settings(max_examples=30)
    @given(st.lists(_keys, min_size=1, max_size=8), st.data())
    def test_every_consumer_decides_as_before(self, fields, data):
        keys = [FlowKey(*f) for f in fields]
        flows = data.draw(st.lists(st.sampled_from(keys), min_size=1,
                                   max_size=40))
        expected = _under_oracle(flows)
        assert _consumer_outputs(flows) == expected   # CRCs filled here
        assert _consumer_outputs(flows) == expected   # and read back here

    def test_one_crc_per_key_object_on_a_churned_fat_tree(self):
        payloads = []
        hashed = {}
        real_flow_hash = ecmp.flow_hash

        def counting_crc32(data):
            payloads.append(data)
            return zlib.crc32(data)

        def recording_flow_hash(flow, salt=0):
            hashed[id(flow)] = flow    # kept alive: ids stay distinct
            return real_flow_hash(flow, salt)

        with mock.patch.object(ecmp, "zlib",
                               SimpleNamespace(crc32=counting_crc32)), \
                mock.patch.object(ecmp, "flow_hash", recording_flow_hash):
            net = Network(fat_tree(k=4), NetworkConfig(seed=4))
            PoissonWorkload(net, PoissonConfig(
                rate_pps=2_000, stop_ns=2 * MS, sport_churn=True)).start()
            net.run(until=3 * MS)
        decisions = sum(sw.lb.decisions for sw in net.switches.values())
        assert len(payloads) == len(hashed) > 500
        # Up to two ECMP choices per packet on a fat tree (edge and
        # aggregation uplinks); each used to compute its own CRC.
        assert decisions > 1.5 * len(payloads)


class TestNonAsciiNames:
    def test_a_non_ascii_host_name_is_routed(self):
        topo = Topology()
        for name in ("leaf0", "leaf1", "spine0", "spine1"):
            topo.add_switch(name)
        for leaf in ("leaf0", "leaf1"):
            for spine in ("spine0", "spine1"):
                topo.add_link(leaf, spine)
        topo.add_host("hé")
        topo.add_host("b")
        topo.add_link("leaf0", "hé")
        topo.add_link("leaf1", "b")
        net = Network(topo, NetworkConfig(seed=1))
        for sport in range(8):
            net.host("hé").send_flow("b", 1, sport=sport, dport=80)
            net.host("b").send_flow("hé", 1, sport=sport, dport=80)
        net.run(until=1 * MS)
        assert net.host("b").packets_received == 8
        assert net.host("hé").packets_received == 8

    def test_ascii_hashes_are_unchanged(self):
        # Recorded when the key was encoded as ASCII.
        assert flow_hash(FlowKey("a", "b", 1, 2)) == 2522540979
        assert flow_hash(FlowKey("server0", "server15", 10001, 9000),
                         3) == 1620236422
