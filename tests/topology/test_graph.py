"""Tests for the declarative topology description."""

import networkx as nx
import pytest

from repro.topology.graph import LinkSpec, NodeKind, Topology
from tests.topology.test_route_table import oracle_graph


def _two_switch():
    topo = Topology("t")
    topo.add_switch("s0")
    topo.add_switch("s1")
    topo.add_host("h0")
    topo.add_host("h1")
    topo.add_link("s0", "s1")
    topo.add_link("s0", "h0")
    topo.add_link("s1", "h1")
    return topo


class TestConstruction:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_switch("x")
        with pytest.raises(ValueError):
            topo.add_host("x")

    def test_link_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_switch("s0")
        with pytest.raises(ValueError):
            topo.add_link("s0", "ghost")

    def test_host_to_host_link_rejected(self):
        topo = Topology()
        topo.add_host("h0")
        topo.add_host("h1")
        with pytest.raises(ValueError):
            topo.add_link("h0", "h1")

    def test_duplicate_link_rejected(self):
        topo = _two_switch()
        with pytest.raises(ValueError):
            topo.add_link("s0", "s1")
        with pytest.raises(ValueError):
            topo.add_link("s1", "s0")

    def test_self_link_rejected(self):
        topo = _two_switch()
        with pytest.raises(ValueError, match="itself"):
            topo.add_link("s0", "s0")
        assert topo.degree("s0") == 2

    def test_linkspec_other(self):
        spec = LinkSpec("a", "b")
        assert spec.other("a") == "b"
        assert spec.other("b") == "a"
        with pytest.raises(ValueError):
            spec.other("c")


class TestQueries:
    def test_kinds_and_listings(self):
        topo = _two_switch()
        assert topo.switches == ["s0", "s1"]
        assert topo.hosts == ["h0", "h1"]
        assert topo.kind("s0") is NodeKind.SWITCH
        assert topo.kind("h0") is NodeKind.HOST

    def test_neighbors_and_degree(self):
        topo = _two_switch()
        assert topo.neighbors("s0") == ["h0", "s1"]
        assert topo.degree("s0") == 2

    def test_unknown_node_fails_loudly(self):
        topo = _two_switch()
        with pytest.raises(ValueError, match="'nope'"):
            topo.neighbors("nope")
        with pytest.raises(ValueError, match="'nope'"):
            topo.degree("nope")

    def test_link_between(self):
        topo = _two_switch()
        assert topo.links == [LinkSpec("s0", "s1"), LinkSpec("s0", "h0"),
                              LinkSpec("s1", "h1")]
        assert "h1" not in topo.neighbors("s0")

    def test_connectivity(self):
        topo = _two_switch()
        assert nx.is_connected(oracle_graph(topo))
        topo.add_switch("island")
        assert not nx.is_connected(oracle_graph(topo))


class TestEcmpNextHops:
    """The equal-cost next hops a switch's ``routes_from`` lists."""

    def test_single_path(self):
        topo = _two_switch()
        assert topo.routes_from("s0") == {"h0": ["h0"], "h1": ["s1"]}

    def test_multipath(self):
        topo = Topology()
        for name in ("l0", "l1", "sp0", "sp1"):
            topo.add_switch(name)
        topo.add_host("h0")
        topo.add_host("h1")
        for leaf in ("l0", "l1"):
            for spine in ("sp0", "sp1"):
                topo.add_link(leaf, spine)
        topo.add_link("l0", "h0")
        topo.add_link("l1", "h1")
        assert topo.routes_from("l0")["h1"] == ["sp0", "sp1"]

    def test_hosts_never_transit(self):
        # h0 attached to both switches would be a shorter "path"; hosts
        # must not be considered as next hops toward other hosts.
        topo = Topology()
        topo.add_switch("s0")
        topo.add_switch("s1")
        topo.add_host("h0")
        topo.add_host("h1")
        topo.add_link("s0", "s1")
        topo.add_link("s0", "h0")
        topo.add_link("s1", "h0")  # dual-homed host
        topo.add_link("s1", "h1")
        assert topo.routes_from("s0")["h1"] == ["s1"]

    def test_distance_is_not_measured_through_a_host(self):
        # s1-s2-s3-s4 with h on s1 and s4: the graph's shortest path from
        # s1 to d runs s1-h-s4-d, which no packet can take.  Measured
        # over switches only, s1 is four hops out and s2 is its next hop
        # (the pairwise search returned [] and s1 got no route to d).
        topo = Topology()
        for name in ("s1", "s2", "s3", "s4"):
            topo.add_switch(name)
        topo.add_host("h")
        topo.add_host("d")
        for a, b in (("s1", "s2"), ("s2", "s3"), ("s3", "s4"),
                     ("s1", "h"), ("s4", "h"), ("s4", "d")):
            topo.add_link(a, b)
        assert topo.routes_from("s1")["d"] == ["s2"]
        assert topo.routes_from("s4")["d"] == ["d"]
        # d hangs off s4: switches rank by s4's search, a hop short.
        assert topo.switch_hops("d") == {"s4": 0, "s3": 1, "s2": 2, "s1": 3}

    def test_unreachable_destination(self):
        topo = _two_switch()
        topo.add_switch("island")
        topo.add_host("island_h")
        topo.add_link("island", "island_h")
        assert "island_h" not in topo.routes_from("s0")

    def test_argument_validation(self):
        topo = _two_switch()
        with pytest.raises(ValueError, match="not a switch"):
            topo.routes_from("h0")
        with pytest.raises(ValueError, match="not a host"):
            topo.switch_hops("s1")
