#!/usr/bin/env python3
"""Quickstart: take your first synchronized network snapshot.

Builds the paper's testbed topology (2 leaves x 2 spines x 6 servers),
runs some background traffic, deploys Speedlight with per-port packet
counters, and takes a handful of snapshots — printing, for each, its
consistency, how tightly synchronized the capture was, and the
network-wide packet total it certifies.

Run:  python examples/quickstart.py
"""

from repro.core import ControlPlaneConfig, deploy
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


def main() -> None:
    # 1. A simulated network from a declarative topology.
    topology = leaf_spine()  # the paper's Figure 8 testbed
    network = Network(topology, NetworkConfig(seed=42))
    print(f"built {topology.name}: switches={topology.switches} "
          f"hosts={len(topology.hosts)}")

    # 2. Background traffic: all-to-all Poisson with connection churn.
    workload = PoissonWorkload(network, PoissonConfig(
        rate_pps=20_000, stop_ns=1 * S, sport_churn=True))
    workload.start()

    # 3. Deploy Speedlight: per-unit packet counters with channel state,
    #    so in-flight packets are credited to the snapshot they belong to.
    #    Liveness probes are disabled: the churned all-to-all traffic
    #    keeps every channel hot, so snapshots complete from traffic
    #    alone and the sync column shows pure measurement spread.
    deployment = deploy(
        network, metric="packet_count", channel_state=True,
        control_plane=ControlPlaneConfig(probe_delay_ns=0))

    # 4. Schedule a measurement campaign and run the simulation.
    epochs = deployment.schedule_campaign(count=10, interval_ns=20 * MS)
    network.run(until=1 * S)

    # 5. Inspect the results.
    print(f"\n{'epoch':>5} {'status':>10} {'consistent':>10} "
          f"{'sync (us)':>10} {'total pkts':>11}")
    for epoch in epochs:
        snap = deployment.observer.snapshot(epoch)
        sync = deployment.sync_spread_ns(epoch) or 0
        print(f"{epoch:>5} {snap.status.value:>10} "
              f"{str(snap.consistent):>10} {sync / 1e3:>10.1f} "
              f"{snap.total_value():>11}")

    last = deployment.observer.snapshot(epochs[-1])
    print("\nper-device totals of the last snapshot:")
    for device in sorted(deployment.control_planes):
        total = sum(r.total_value for r in last.device_records(device))
        print(f"  {device:>8}: {total} packets (+ in-flight credits)")


if __name__ == "__main__":
    main()
