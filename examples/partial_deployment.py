#!/usr/bin/env python3
"""Use case: partial deployment (paper §10).

Only the leaf switches are snapshot-enabled — the spines are legacy
boxes that cannot parse the snapshot header.  Speedlight still works:
headers are pushed at the first enabled ingress and stripped at the last
enabled egress before a legacy device or host, and causal consistency is
maintained across the multi-path legacy core.

Run:  python examples/partial_deployment.py
"""

from repro.analysis import ConsistencyChecker
from repro.core import deploy
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


def main() -> None:
    network = Network(leaf_spine(),
                      NetworkConfig(seed=21, enable_tracing=True))
    workload = PoissonWorkload(network, PoissonConfig(
        rate_pps=15_000, stop_ns=1 * S, sport_churn=True))
    workload.start()

    deployment = deploy(network, metric="packet_count",
                        switches=["leaf0", "leaf1"])  # spines stay legacy
    print("snapshot-enabled devices:", sorted(deployment.control_planes))

    epochs = deployment.schedule_campaign(count=8, interval_ns=20 * MS)
    network.run(until=1 * S)

    snaps = deployment.observer.completed_snapshots()
    print(f"completed {len(snaps)}/{len(epochs)} snapshots over the "
          "partial deployment")

    # The simulator's ground-truth trace proves the cuts are still
    # causally consistent even though packets crossed legacy spines.
    checker = ConsistencyChecker(deployment.ids)
    checker.ingest(network.trace_log)
    validated = checker.check_all(snaps, channel_state=False)
    print(f"consistency checker validated {validated} per-unit records "
          "against the ground-truth event trace")

    last = snaps[-1]
    print(f"\nsnapshot {last.epoch} covers only the enabled devices:")
    for device in sorted({u.device for u in last.records}):
        print(f"  {device}: {len(last.device_records(device))} unit records")
    print("\nspines were traversed transparently; no spine state appears "
          "in the snapshot, exactly as §10 describes.")


if __name__ == "__main__":
    main()
