"""Tests for network assembly from topologies."""

import pytest

from repro.lb import FlowletBalancer
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import BROADCAST_DST
from repro.topology import Topology, fat_tree, leaf_spine
from repro.topology.graph import NodeKind


def with_odd_host(links):
    """A two-leaf fabric plus host ``odd`` linked to ``links`` leaves."""
    topo = leaf_spine(num_leaves=2, num_spines=1, hosts_per_leaf=1)
    topo.add_host("odd")
    for leaf in ("leaf0", "leaf1")[:links]:
        topo.add_link(leaf, "odd")
    return topo


class TestAssembly:
    def test_device_counts(self, leaf_spine_net):
        assert len(leaf_spine_net.switches) == 4
        assert len(leaf_spine_net.hosts) == 6
        assert len(leaf_spine_net.links) == 2 * 2 + 6

    def test_port_numbering_is_sorted_neighbor_order(self, leaf_spine_net):
        # leaf0 neighbors: server0, server1, server2, spine0, spine1.
        assert leaf_spine_net.port_map["leaf0"] == {
            "server0": 0, "server1": 1, "server2": 2,
            "spine0": 3, "spine1": 4}

    def test_switch_port_count_matches_degree(self, leaf_spine_net):
        assert len(leaf_spine_net.switch("leaf0").ports) == 5
        assert len(leaf_spine_net.switch("spine0").ports) == 2

    def test_uplink_ports(self, leaf_spine_net):
        assert leaf_spine_net.uplink_ports("leaf0") == [3, 4]
        assert leaf_spine_net.uplink_ports("spine0") == [0, 1]

    def test_the_probe_broadcast_address_is_not_a_host_name(self):
        # Switches flood packets to it as probes and never deliver them.
        topo = Topology()
        topo.add_switch("sw0")
        for host in ("server0", BROADCAST_DST):
            topo.add_host(host)
            topo.add_link("sw0", host)
        with pytest.raises(ValueError, match=BROADCAST_DST):
            Network(topo)

    @pytest.mark.parametrize("links", [0, 2], ids=["unlinked", "dual_homed"])
    def test_a_host_with_other_than_one_link_is_refused_by_name(self, links):
        # Dual-homed, it died mid-build on the second link; unlinked, it
        # was built and could never send.
        with pytest.raises(ValueError, match=f"^host 'odd' has {links} links"):
            Network(with_odd_host(links))

    def test_peer_of_port(self, leaf_spine_net):
        name, kind = leaf_spine_net.peer_of_port("leaf0", 0)
        assert name == "server0"
        assert kind is NodeKind.HOST
        name, kind = leaf_spine_net.peer_of_port("leaf0", 3)
        assert name == "spine0"
        assert kind is NodeKind.SWITCH
        with pytest.raises(KeyError):
            leaf_spine_net.peer_of_port("leaf0", 99)

    def test_custom_lb_factory(self):
        net = Network(leaf_spine(),
                      NetworkConfig(seed=1, lb_factory=lambda s: FlowletBalancer()))
        assert isinstance(net.switch("leaf0").lb, FlowletBalancer)

    def test_deterministic_given_seed(self):
        a = Network(leaf_spine(), NetworkConfig(seed=9))
        b = Network(leaf_spine(), NetworkConfig(seed=9))
        assert {n: c.drift_ppb for n, c in a.ptp.clocks.items()} == \
               {n: c.drift_ppb for n, c in b.ptp.clocks.items()}


class TestRouting:
    def test_ecmp_group_installed_for_remote_hosts(self, leaf_spine_net):
        leaf0 = leaf_spine_net.switch("leaf0")
        # server3 is on leaf1: both spines are candidates.
        assert sorted(leaf0.routes["server3"]) == [3, 4]
        # server0 is local: single port.
        assert leaf0.routes["server0"] == [0]

    def test_cross_leaf_traffic_uses_both_spines(self, leaf_spine_net):
        net = leaf_spine_net
        for sport in range(40):
            net.host("server0").send_flow("server3", 1, sport=sport,
                                          dport=80)
        net.run(until=2 * MS)
        spine_pkts = [sum(port.egress.queue.packets_sent
                          for port in net.switch(s).ports)
                      for s in ("spine0", "spine1")]
        assert all(p > 0 for p in spine_pkts)
        assert sum(spine_pkts) == 40

    def test_all_pairs_reachable(self, leaf_spine_net, record_arrivals):
        net = leaf_spine_net
        log = record_arrivals(net)
        hosts = sorted(net.hosts)
        flows = []
        for i, src in enumerate(hosts):
            for dst in hosts:
                if src != dst:
                    flows.append((dst, net.host(src).send_flow(
                        dst, 1, sport=5000 + i, dport=80)))
        net.run(until=5 * MS)
        for dst, flow in flows:
            assert log[dst][flow].packets == 1

    def test_fat_tree_reachability(self, record_arrivals):
        net = Network(fat_tree(k=4), NetworkConfig(seed=2))
        log = record_arrivals(net)
        flow = net.host("server0").send_flow("server15", 2, sport=1, dport=2)
        net.run(until=5 * MS)
        assert log["server15"][flow].packets == 2


class TestFeasibleChannels:
    def test_leaf_valley_channels_excluded(self, leaf_spine_net):
        feasible = leaf_spine_net.feasible_channels("leaf0")
        # spine-to-spine (valley) forwarding never happens.
        assert (3, 4) not in feasible
        assert (4, 3) not in feasible
        # host -> spine and spine -> host do.
        assert (0, 3) in feasible
        assert (3, 0) in feasible

    def test_hairpin_excluded(self, leaf_spine_net):
        for (p_in, p_out) in leaf_spine_net.feasible_channels("leaf0"):
            assert p_in != p_out

    def test_spine_channels(self, leaf_spine_net):
        feasible = leaf_spine_net.feasible_channels("spine0")
        assert feasible == {(0, 1), (1, 0)}


class TestHeaderStripping:
    def test_all_strip_when_nothing_enabled(self, leaf_spine_net):
        leaf_spine_net.refresh_header_stripping()
        for sw in leaf_spine_net.switches.values():
            for port in sw.ports:
                assert port.egress.strip_header_for_peer

    def test_strip_only_at_boundary_when_enabled(self, leaf_spine_net):
        class Dummy:
            sid = 0
            quiet_sid = None

            def process_packet(self, packet, channel_id, now_ns):
                return 0

        for name in ("leaf0", "spine0"):
            for port in leaf_spine_net.switch(name).ports:
                port.ingress.snapshot_agent = Dummy()
                port.egress.snapshot_agent = Dummy()
        leaf_spine_net.refresh_header_stripping()
        leaf0 = leaf_spine_net.switch("leaf0")
        to_spine0 = leaf_spine_net.port_toward("leaf0", "spine0")
        to_spine1 = leaf_spine_net.port_toward("leaf0", "spine1")
        host_port = leaf_spine_net.port_toward("leaf0", "server0")
        assert not leaf0.ports[to_spine0].egress.strip_header_for_peer
        assert leaf0.ports[to_spine1].egress.strip_header_for_peer  # disabled peer
        assert leaf0.ports[host_port].egress.strip_header_for_peer  # host
