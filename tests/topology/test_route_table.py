"""The per-host distance table behind route set-up (docs/PERF.md, "The
set-up path").

``Topology.hops_to`` runs one search per destination host and everything
that needs a distance reads it.  Three guarantees are pinned here:

* **Same answers** — the pairwise implementations it replaced (one
  ``nx.shortest_path_length`` per (switch, host) and one more per
  neighbour; a per-call BFS cache over a graph copy in
  ``feasible_channels``) are kept below, verbatim, as oracles, and agree
  with the table for every (switch, host) pair and every switch on the
  five builders and on drawn switch graphs.
* **Same cost class** — the one function that searches is counted:
  one call per host, once per topology however many shards read it.
* **Derived, not stored** — a mutation drops the table.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import deploy
from repro.sim.network import Network, NetworkConfig
from repro.sim.shard import ShardRunner
from repro.topology import (fat_tree, leaf_spine, linear, ring,
                            single_switch)
from repro.topology.graph import NodeKind, Topology


# ----------------------------------------------------------------------
# Oracles: the bodies this table replaced
# ----------------------------------------------------------------------
def oracle_graph(topo):
    """A networkx graph built from the public description only, so the
    oracles share nothing with the adjacency they check."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.nodes)
    graph.add_edges_from((link.a, link.b) for link in topo.links)
    return graph


def pairwise_next_hops(topo, switch, dst_host):
    graph = oracle_graph(topo)
    kinds = {name: topo.kind(name) for name in topo.nodes}
    try:
        dist = nx.shortest_path_length(graph, switch, dst_host)
    except nx.NetworkXNoPath:
        return []
    next_hops = []
    for neighbor in graph.neighbors(switch):
        if neighbor == dst_host:
            next_hops.append(neighbor)
            continue
        if kinds[neighbor] is NodeKind.HOST:
            continue  # hosts never transit traffic
        try:
            d = nx.shortest_path_length(graph, neighbor, dst_host)
        except nx.NetworkXNoPath:
            continue
        if d == dist - 1:
            next_hops.append(neighbor)
    return sorted(next_hops)


def pairwise_feasible_channels(net, switch_name):
    topo = net.topology
    graph = oracle_graph(topo)
    switch = net.switches[switch_name]
    dist_cache = {}

    def dist(a, b):
        lengths = dist_cache.get(a)
        if lengths is None:
            lengths = dist_cache[a] = nx.single_source_shortest_path_length(graph, a)
        return lengths.get(b)

    pairs = set()
    for neighbor, in_port in net.port_map[switch_name].items():
        from_host = topo.kind(neighbor) is NodeKind.HOST
        for dst, out_ports in switch.routes.items():
            if dst == neighbor:
                continue
            if not from_host:
                d_nbr = dist(neighbor, dst)
                d_here = dist(switch_name, dst)
                if d_nbr is None or d_here is None or d_nbr != d_here + 1:
                    continue  # S is not on a shortest path from X to dst
            for out_port in out_ports:
                if out_port != in_port:
                    pairs.add((in_port, out_port))
    return pairs


def assert_matches_oracles(topo):
    for switch in topo.switches:
        for host in topo.hosts:
            assert (topo.ecmp_next_hops(switch, host)
                    == pairwise_next_hops(topo, switch, host)), (switch, host)
    net = Network(topo, NetworkConfig(seed=1))
    for name, switch in net.switches.items():
        ports_of = net.port_map[name]
        assert switch.routes == {
            host: [ports_of[n] for n in hops] for host in topo.hosts
            if (hops := pairwise_next_hops(topo, name, host))}, name
        assert switch.route_version == dict.fromkeys(switch.routes, 0)
        assert (net.feasible_channels(name)
                == pairwise_feasible_channels(net, name)), name


BUILDERS = [
    pytest.param(lambda: leaf_spine(num_leaves=3, hosts_per_leaf=2),
                 id="leaf_spine"),
    pytest.param(lambda: single_switch(num_hosts=3), id="single_switch"),
    pytest.param(lambda: linear(num_switches=4), id="linear"),
    pytest.param(lambda: ring(num_switches=5, hosts_per_switch=2), id="ring"),
    pytest.param(lambda: fat_tree(k=4), id="fat_tree"),
]


@st.composite
def switch_graphs(draw):
    """Switches joined by a drawn edge set (connected or not), each with
    0-2 single-homed hosts, plus sometimes an island no one can reach."""
    count = draw(st.integers(1, 7))
    topo = Topology("drawn")
    names = [topo.add_switch(f"s{i}") for i in range(count)]
    candidates = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    for a, b in draw(st.lists(st.sampled_from(candidates), unique=True)
                     if candidates else st.just([])):
        topo.add_link(a, b)
    for i, fanout in enumerate(draw(st.lists(
            st.integers(0, 2), min_size=count, max_size=count))):
        for j in range(fanout):
            topo.add_link(names[i], topo.add_host(f"h{i}_{j}"))
    if draw(st.booleans()):
        topo.add_link(topo.add_switch("island"), topo.add_host("island_h"))
    return topo


class TestDifferential:
    @pytest.mark.parametrize("build", BUILDERS)
    def test_builders_match_the_pairwise_oracles(self, build):
        assert_matches_oracles(build())

    @given(switch_graphs())
    @settings(max_examples=60, deadline=None)
    def test_drawn_graphs_match_the_pairwise_oracles(self, topo):
        assert_matches_oracles(topo)

    @given(switch_graphs())
    @settings(max_examples=60, deadline=None)
    def test_is_connected_agrees_with_networkx(self, topo):
        assert topo.is_connected() == nx.is_connected(oracle_graph(topo))

    def test_is_connected_on_the_edge_cases(self):
        topo = Topology("empty")
        assert not topo.is_connected()  # networkx refuses the null graph
        topo.add_switch("s0")
        assert topo.is_connected()
        topo.add_host("lonely")
        assert not topo.is_connected()
        assert not nx.is_connected(oracle_graph(topo))
        topo.add_link("s0", "lonely")
        assert topo.is_connected()

    def test_route_to_an_unknown_name_gates_like_the_oracle(self):
        # tests/analysis and examples/ inject a "phantom" destination to
        # make a loop; it is nobody's shortest path, not an error.
        net = Network(ring(num_switches=4), NetworkConfig(seed=1))
        net.switch("sw0").install_route("phantom",
                                        [net.port_toward("sw0", "sw1")])
        assert (net.feasible_channels("sw0")
                == pairwise_feasible_channels(net, "sw0"))

    def test_mutation_drops_the_table(self):
        topo = linear(num_switches=4)
        far = topo.hosts[-1]
        assert topo.ecmp_next_hops("sw0", far) == ["sw1"]
        topo.add_link("sw0", "sw3")  # a shortcut past sw1 and sw2
        assert topo.ecmp_next_hops("sw0", far) == ["sw3"]
        assert_matches_oracles(topo)
        late = topo.add_host("late")
        assert late in topo.hosts and late in topo.nodes
        assert topo.ecmp_next_hops("sw0", late) == []
        topo.add_link("sw1", late)
        assert topo.ecmp_next_hops("sw0", late) == ["sw1"]
        assert topo.add_switch("sw9") in topo.switches

    def test_listings_are_fresh_copies(self):
        topo = linear(num_switches=2)
        topo.hosts.clear()
        topo.switches.append("ghost")
        topo.nodes.reverse()
        assert topo.switches == ["sw0", "sw1"]
        assert topo.nodes == sorted(topo.hosts + topo.switches)


# ----------------------------------------------------------------------
# Cost pin: searches are counted, not inferred
# ----------------------------------------------------------------------
@pytest.fixture
def searches(monkeypatch):
    """Sources of every graph search run while the fixture is live."""
    sources = []
    search = Topology._search

    def counted(self, source):
        sources.append(source)
        return search(self, source)

    monkeypatch.setattr(Topology, "_search", counted)
    return sources


class TestSearchCount:
    def test_one_search_per_host_and_none_for_channel_state(self, searches):
        topo = fat_tree(k=4)
        net = Network(topo, NetworkConfig(seed=1))
        assert sorted(searches) == topo.hosts  # 16; the pairwise form ran 1 344
        deploy(net, channel_state=True)  # feasible_channels, every switch
        assert len(searches) == len(topo.hosts)

    def test_shards_share_one_table(self, searches):
        topo = fat_tree(k=4)
        runner = ShardRunner(topo, NetworkConfig(seed=1), shards=2)
        assert len(runner.workers) == 2
        assert sorted(searches) == topo.hosts
