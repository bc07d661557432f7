#!/usr/bin/env python3
"""Use case: where should we add capacity? (paper §2.2, question 2)

An operator sees congestion toward the spine layer.  Should she buy a
per-link capacity upgrade, or would a parallel path (or better
balancing) fix it?  The paper: "Balanced load among existing paths would
indicate the former, while localized hotspots would indicate the
latter" — and only contemporaneous measurements can tell these apart.

The script creates the classic pathology: two elephant flows whose ECMP
hashes collide on the same leaf uplink.  Synchronized queue-depth
snapshots show one uplink saturated while its equal-cost sibling sits
idle at the very same instants — a localized hotspot, so the verdict is
"rebalance, don't buy".  Re-running under flowlet switching confirms it:
the same offered load spreads and the hotspot disappears.

Run:  python examples/capacity_planning.py
"""

from repro.core import deploy
from repro.experiments.campaigns import make_balancer_factory
from repro.lb import flow_hash
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey
from repro.sim.switch import Direction, SwitchConfig
from repro.topology import leaf_spine


def _colliding_sports(salt: int, srcs, dst: str, members: int = 2):
    """One source port per sender such that every flow ECMP-hashes to
    the same group member (the elephant-collision pathology)."""
    chosen = {}
    for src in srcs:
        sport = 20_000
        while True:
            member = flow_hash(FlowKey(src, dst, sport, 5001),
                               salt) % members
            if member == 0:
                chosen[src] = sport
                break
            sport += 1
    return chosen


def run_study(balancer: str):
    topo = leaf_spine(hosts_per_leaf=3, host_bw_bps=25 * 10**9,
                      fabric_bw_bps=25 * 10**9)  # uplinks match host rate
    net = Network(topo, NetworkConfig(
        seed=3, lb_factory=make_balancer_factory(balancer),
        # Realistic shallow buffers: the hotspot saturates and drops
        # instead of queueing unboundedly.
        switch_config=SwitchConfig(queue_capacity_packets=1024)))
    # leaf0 is switch index 0 in sorted order -> ECMP salt 0.
    sports = _colliding_sports(salt=0, srcs=("server0", "server1"),
                               dst="server3")
    # Two elephants from different leaf0 hosts toward leaf1; under ECMP
    # both hash onto the same uplink and together oversubscribe it 2:1.
    for host, sport in sports.items():
        net.host(host).send_flow("server3", 40_000, sport=sport, dport=5001,
                                 size_bytes=1500, gap_ns=0)

    deployment = deploy(net, metric="queue_depth")
    epochs = deployment.schedule_campaign(count=25, interval_ns=1 * MS)
    net.run(until=60 * MS)

    uplinks = net.uplink_ports("leaf0")
    depths = {port: [] for port in uplinks}
    for epoch in epochs:
        snap = deployment.observer.snapshot(epoch)
        if not snap.complete:
            continue
        for port in uplinks:
            depths[port].append(snap.value_of("leaf0", port,
                                              Direction.EGRESS))
    return uplinks, depths


def main() -> None:
    print("congestion reported toward the spine; snapshotting leaf0's "
          "uplink queues…\n")
    for balancer in ("ecmp", "flowlet"):
        uplinks, depths = run_study(balancer)
        print(f"[{balancer}]")
        means = {}
        for port in uplinks:
            series = depths[port]
            means[port] = sum(series) / max(len(series), 1)
            print(f"  uplink port {port}: mean depth "
                  f"{means[port]:7.1f} pkts, max {max(series):5d}")
        hot = max(means.values())
        cold = min(means.values())
        if hot > 10 * max(cold, 0.5):
            print("  -> localized hotspot while the sibling path idles:\n"
                  "     capacity is NOT the problem — rebalance instead.\n")
        else:
            print("  -> load is spread across the equal-cost paths:\n"
                  "     if queues are still deep, buy capacity.\n")


if __name__ == "__main__":
    main()
