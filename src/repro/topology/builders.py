"""Standard topology shapes.

The defaults of :func:`leaf_spine` reproduce the paper's testbed
(Figure 8): two leaf switches, two spine switches, three servers per leaf,
25 GbE host links and 100 GbE switch-to-switch links.
"""

from __future__ import annotations


from repro.topology.graph import Topology

GBPS = 1_000_000_000


def leaf_spine(num_leaves: int = 2, num_spines: int = 2,
               hosts_per_leaf: int = 3,
               host_bw_bps: int = 25 * GBPS,
               fabric_bw_bps: int = 100 * GBPS,
               host_prop_ns: int = 500,
               fabric_prop_ns: int = 500) -> Topology:
    """A leaf-spine (folded Clos) topology.

    Every leaf connects to every spine; hosts hang off leaves.  Host
    names are ``server<N>`` (numbered across leaves, so ``server0`` is the
    first host of ``leaf0`` — the paper's "master server" in Figure 13).
    """
    if num_leaves < 1 or num_spines < 1 or hosts_per_leaf < 0:
        raise ValueError("leaf/spine/host counts must be positive")
    topo = Topology(f"leafspine-{num_leaves}x{num_spines}")
    spines = [topo.add_switch(f"spine{i}") for i in range(num_spines)]
    leaves = [topo.add_switch(f"leaf{i}") for i in range(num_leaves)]
    for leaf in leaves:
        for spine in spines:
            topo.add_link(leaf, spine, fabric_bw_bps, fabric_prop_ns)
    server = 0
    for leaf in leaves:
        for _ in range(hosts_per_leaf):
            host = topo.add_host(f"server{server}")
            topo.add_link(leaf, host, host_bw_bps, host_prop_ns)
            server += 1
    return topo


def single_switch(num_hosts: int = 4, host_bw_bps: int = 25 * GBPS,
                  host_prop_ns: int = 500) -> Topology:
    """One switch with ``num_hosts`` directly attached servers.

    This is the Figure 10 configuration (snapshot-rate scaling on a
    single switch with a varying port count).
    """
    if num_hosts < 1:
        raise ValueError("need at least one host")
    topo = Topology(f"single-{num_hosts}")
    sw = topo.add_switch("sw0")
    for i in range(num_hosts):
        host = topo.add_host(f"server{i}")
        topo.add_link(sw, host, host_bw_bps, host_prop_ns)
    return topo


def ring(num_switches: int = 4, hosts_per_switch: int = 1,
         host_bw_bps: int = 25 * GBPS,
         fabric_bw_bps: int = 100 * GBPS) -> Topology:
    """A ring of switches.  Exercises multipath with unequal path lengths
    and is the canonical shape for forwarding-loop demonstrations (§2.2,
    question 4)."""
    if num_switches < 3:
        raise ValueError("a ring needs at least three switches")
    topo = Topology(f"ring-{num_switches}")
    switches = [topo.add_switch(f"sw{i}") for i in range(num_switches)]
    for i, sw in enumerate(switches):
        topo.add_link(sw, switches[(i + 1) % num_switches], fabric_bw_bps, 500)
    server = 0
    for sw in switches:
        for _ in range(hosts_per_switch):
            host = topo.add_host(f"server{server}")
            topo.add_link(sw, host, host_bw_bps, 500)
            server += 1
    return topo


def fat_tree(k: int = 4, host_bw_bps: int = 25 * GBPS,
             fabric_bw_bps: int = 100 * GBPS,
             host_prop_ns: int = 500,
             fabric_prop_ns: int = 500) -> Topology:
    """A k-ary fat-tree (k even): (k/2)^2 cores, k pods of k/2+k/2 switches,
    (k^3)/4 hosts.  Used for larger-scale protocol tests.

    ``fabric_prop_ns`` sets every switch-to-switch propagation delay —
    the sharded runner's conservative lookahead when the fabric is cut
    (:mod:`repro.sim.shard`), so the shard-scaling benchmark raises it
    to model longer-haul fabrics with wider coordination windows.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be a positive even integer")
    half = k // 2
    topo = Topology(f"fattree-{k}")
    cores = [[topo.add_switch(f"core{i}_{j}") for j in range(half)]
             for i in range(half)]
    server = 0
    for pod in range(k):
        aggs = [topo.add_switch(f"agg{pod}_{i}") for i in range(half)]
        edges = [topo.add_switch(f"edge{pod}_{i}") for i in range(half)]
        for agg in aggs:
            for edge in edges:
                topo.add_link(agg, edge, fabric_bw_bps, fabric_prop_ns)
        for i, agg in enumerate(aggs):
            for core in cores[i]:
                topo.add_link(agg, core, fabric_bw_bps, fabric_prop_ns)
        for edge in edges:
            for _ in range(half):
                host = topo.add_host(f"server{server}")
                topo.add_link(edge, host, host_bw_bps, host_prop_ns)
                server += 1
    return topo
