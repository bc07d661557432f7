"""The distance tables behind route set-up (docs/PERF.md, "The set-up
path" and "The set-up path, part two").

A host with one link hangs off one *gateway* switch, and its distances
are the gateway's switch-only search plus one; ``Topology`` runs one
search per gateway (and one per multi-homed host), and everything that
needs a distance or a next hop reads it.  Four guarantees are pinned
here:

* **Same answers** — the pairwise implementations it replaced (one
  ``nx.shortest_path_length`` per (switch, host) and one more per
  neighbour; a per-call BFS cache over a graph copy in
  ``feasible_channels``) are kept below as oracles, verbatim but for
  the graph ``pairwise_next_hops`` searches (no host transits), and agree
  with the per-switch listing ``routes_from`` for every (switch, host)
  pair and with the distance differences of ``switch_hops`` for every
  host, on the five builders and on drawn switch graphs with single-
  and multi-homed hosts.
* **Same FIB** — each switch's table, loaded in one pass, is what
  ``install_route`` per host followed by the replaced ``seal_fib``
  (kept below as an oracle) leaves: the same routes in ``hosts`` order,
  generation 0, every rule and every ``last_matched_version`` register
  at 0 (checked where every host has one link: a simulated host has
  one NIC, so a multi-homed one builds no ``Network``).
* **Same cost class** — the one function that searches is counted: one
  call per gateway switch plus one per multi-homed host, once per
  topology however many shards read it; a channel-state deploy adds
  none.
* **Derived, not stored** — a mutation drops the tables.
"""

import os

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import deploy
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.shard import ShardRunner
from repro.sim.switch import Switch
from repro.topology import fat_tree, leaf_spine, ring, single_switch
from repro.topology.graph import NodeKind, Topology
from tests.conftest import linear

#: Drawn examples per differential (``make route-diff-deep`` raises it).
EXAMPLES = int(os.environ.get("REPRO_ROUTE_DIFF_EXAMPLES", "60"))

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


def transit_graph(topo, dst_host):
    """The oracle graph less every host but ``dst_host``: hosts never
    transit traffic.  With single-homed hosts only (all the replaced
    code met) no path ran through one anyway; a host linked to two
    switches would be a shortcut between them."""
    graph = oracle_graph(topo)
    graph.remove_nodes_from(h for h in topo.hosts if h != dst_host)
    return graph


def pairwise_next_hops(topo, switch, dst_host):
    graph = transit_graph(topo, dst_host)  # was oracle_graph(topo)
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


def seal_fib(switch):
    """``Switch.seal_fib`` as it was before the table was loaded in one
    pass: the state ``install_route`` per host left, re-baselined."""
    switch.fib_generation = 0
    for dst in switch.route_version:
        switch.route_version[dst] = 0
    registers = switch.last_matched_version
    for i in range(len(registers)):
        registers[i] = 0


def assert_matches_oracles(topo):
    for host in topo.hosts:
        oracle = nx.single_source_shortest_path_length(
            transit_graph(topo, host), host)
        # A single-homed host ranks switches by its gateway's search,
        # one hop short of the host's own; any other host by its own.
        offset = -1 if topo.degree(host) == 1 else 0
        hops = topo.switch_hops(host)
        assert {name: hop - offset for name, hop in hops.items()
                if topo.kind(name) is NodeKind.SWITCH} == {
            name: hop for name, hop in oracle.items() if name != host}, host
    expected = {switch: {host: hops for host in topo.hosts
                         if (hops := pairwise_next_hops(topo, switch, host))}
                for switch in topo.switches}
    for switch in topo.switches:
        listing = topo.routes_from(switch)
        for host in topo.hosts:
            assert (listing.get(host, [])
                    == expected[switch].get(host, [])), (switch, host)
        assert listing == expected[switch], switch
        assert list(listing) == list(expected[switch]), switch  # hosts order
    if any(topo.degree(host) > 1 for host in topo.hosts):
        return  # a simulated host has one NIC: no Network to build
    net = Network(topo, NetworkConfig(seed=1))
    for name, switch in net.switches.items():
        ports_of = net.port_map[name]
        oracle = Switch(Simulator(), name, len(switch.ports))
        for host, hops in expected[name].items():
            oracle.install_route(host, [ports_of[n] for n in hops])
        seal_fib(oracle)
        assert switch.routes == oracle.routes, name
        assert list(switch.routes) == list(oracle.routes), name
        assert list(switch.route_version.items()) == list(
            oracle.route_version.items()), name
        assert switch.fib_generation == oracle.fib_generation == 0, name
        assert (switch.last_matched_version == oracle.last_matched_version
                == [0] * len(switch.ports)), name
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
def switch_graphs(draw, multihomed=True):
    """Switches joined by a drawn edge set (connected or not), each with
    0-2 single-homed hosts, 0-2 hosts linked to 2-3 distinct switches
    (unless ``multihomed`` is off: a network refuses them), plus
    sometimes an island no one can reach."""
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
    if count >= 2 and multihomed:
        for j, attached in enumerate(draw(st.lists(st.lists(
                st.sampled_from(names), min_size=2, max_size=3, unique=True),
                max_size=2))):
            host = topo.add_host(f"m{j}")
            for name in attached:
                topo.add_link(name, host)
    if draw(st.booleans()):
        topo.add_link(topo.add_switch("island"), topo.add_host("island_h"))
    return topo


class TestDifferential:
    @pytest.mark.parametrize("build", BUILDERS)
    def test_builders_match_the_pairwise_oracles(self, build):
        assert_matches_oracles(build())

    @given(switch_graphs())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_drawn_graphs_match_the_pairwise_oracles(self, topo):
        assert_matches_oracles(topo)

    @given(switch_graphs(multihomed=False))
    @settings(max_examples=60, deadline=None)
    def test_is_connected_agrees_with_networkx(self, topo):
        # With single-homed hosts (leaves) only, every switch routes to
        # every host exactly when the whole graph is connected.
        assume(topo.hosts)
        complete = all(set(topo.routes_from(switch)) == set(topo.hosts)
                       for switch in topo.switches)
        assert complete == nx.is_connected(oracle_graph(topo))

    def test_is_connected_on_the_edge_cases(self):
        topo = Topology("edges")
        topo.add_switch("s0")
        assert nx.is_connected(oracle_graph(topo))
        assert topo.routes_from("s0") == {}
        topo.add_host("lonely")
        assert not nx.is_connected(oracle_graph(topo))
        assert topo.routes_from("s0") == {}
        topo.add_link("s0", "lonely")
        assert nx.is_connected(oracle_graph(topo))
        assert topo.routes_from("s0") == {"lonely": ["lonely"]}

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
        assert topo.routes_from("sw0")[far] == ["sw1"]
        topo.add_link("sw0", "sw3")  # a shortcut past sw1 and sw2
        assert topo.routes_from("sw0")[far] == ["sw3"]
        assert_matches_oracles(topo)
        late = topo.add_host("late")
        assert late in topo.hosts and late in topo.nodes
        assert late not in topo.routes_from("sw0")
        topo.add_link("sw1", late)
        assert topo.routes_from("sw0")[late] == ["sw1"]
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


def gateway_searches(topo):
    """The search sources set-up needs: every switch a single-homed host
    hangs off, and every other host."""
    return sorted({topo.neighbors(host)[0] if topo.degree(host) == 1
                   else host for host in topo.hosts})


class TestSearchCount:
    def test_one_search_per_gateway_none_for_channel_state(self, searches):
        topo = fat_tree(k=4)
        net = Network(topo, NetworkConfig(seed=1))
        # 8 edge switches; one search per host ran 16, the pairwise form
        # 1 344.
        assert sorted(searches) == gateway_searches(topo) == [
            f"edge{pod}_{i}" for pod in range(4) for i in range(2)]
        deploy(net, channel_state=True)  # feasible_channels, every switch
        assert len(searches) == 8

    def test_a_multi_homed_host_keeps_its_own_search(self, searches):
        topo = leaf_spine(num_leaves=3, hosts_per_leaf=2)
        dual = topo.add_host("dual")
        topo.add_link("leaf0", dual)
        topo.add_link("leaf1", dual)
        for switch in topo.switches:
            topo.routes_from(switch)
        assert sorted(searches) == gateway_searches(topo) == [
            "dual", "leaf0", "leaf1", "leaf2"]

    def test_shards_share_one_table(self, searches):
        topo = fat_tree(k=4)
        runner = ShardRunner(topo, NetworkConfig(seed=1), shards=2)
        assert len(runner.workers) == 2
        assert sorted(searches) == gateway_searches(topo)
