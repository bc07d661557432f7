"""Tests for the topology builders."""

import networkx as nx
import pytest

from repro.topology import fat_tree, leaf_spine, ring, single_switch
from tests.conftest import linear
from tests.topology.test_route_table import oracle_graph


def link_between(topo, a, b):
    """The link joining ``a`` and ``b``, or None."""
    return next((link for link in topo.links if {link.a, link.b} == {a, b}),
                None)


class TestLeafSpine:
    def test_testbed_defaults_match_paper(self):
        topo = leaf_spine()
        assert len(topo.switches) == 4
        assert len(topo.hosts) == 6
        # Full bipartite leaf-spine plus one link per host.
        assert len(topo.links) == 2 * 2 + 6

    def test_link_speeds(self):
        topo = leaf_spine()
        fabric = link_between(topo, "leaf0", "spine0")
        host = link_between(topo, "leaf0", "server0")
        assert fabric.bandwidth_bps == 100 * 10**9
        assert host.bandwidth_bps == 25 * 10**9

    def test_every_leaf_connects_every_spine(self):
        topo = leaf_spine(num_leaves=3, num_spines=4, hosts_per_leaf=2)
        for i in range(3):
            for j in range(4):
                assert link_between(topo, f"leaf{i}", f"spine{j}") is not None
        assert len(topo.hosts) == 6

    def test_hosts_numbered_across_leaves(self):
        topo = leaf_spine(num_leaves=2, hosts_per_leaf=3)
        assert link_between(topo, "leaf0", "server0") is not None
        assert link_between(topo, "leaf1", "server3") is not None

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            leaf_spine(num_leaves=0)


class TestSingleSwitch:
    def test_structure(self):
        topo = single_switch(num_hosts=8)
        assert topo.switches == ["sw0"]
        assert len(topo.hosts) == 8
        assert topo.degree("sw0") == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            single_switch(num_hosts=0)


class TestLinearAndRing:
    def test_linear_chain(self):
        topo = linear(num_switches=4, hosts_per_switch=2)
        assert len(topo.switches) == 4
        assert len(topo.hosts) == 8
        assert link_between(topo, "sw0", "sw1") is not None
        assert link_between(topo, "sw0", "sw3") is None

    def test_ring_wraps(self):
        topo = ring(num_switches=4)
        assert link_between(topo, "sw3", "sw0") is not None

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            ring(num_switches=2)


class TestFatTree:
    def test_k4_sizes(self):
        topo = fat_tree(k=4)
        # (k/2)^2 cores + k pods x (k/2 agg + k/2 edge) = 4 + 16 switches.
        assert len(topo.switches) == 20
        assert len(topo.hosts) == 16
        assert nx.is_connected(oracle_graph(topo))

    def test_k_must_be_even(self):
        with pytest.raises(ValueError):
            fat_tree(k=3)

    def test_equal_cost_core_paths(self):
        topo = fat_tree(k=4)
        # Cross-pod traffic from an edge switch has 2 equal-cost aggs.
        hops = topo.routes_from("edge0_0")["server15"]
        assert len(hops) == 2
