#!/usr/bin/env python3
"""Use case: detecting synchronized traffic / incast (paper §2.2 Q3).

A memcache client fans multi-gets out to five servers whose responses
converge on one access link.  Per-port counters or per-flow stats never
show the *simultaneity* — each flow looks tiny.  A synchronized snapshot
of instantaneous queue depth catches the fan-in red-handed: at the same
instant, the client-facing egress queue is deep while every other queue
is empty.

This script takes queue-depth snapshots during the incast and prints the
whole-network queue picture at the worst instant.

Run:  python examples/incast_detection.py
"""

from repro.core import deploy
from repro.sim.engine import MS, S, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction
from repro.topology import leaf_spine
from repro.workloads.memcache import MemcacheConfig, MemcacheWorkload


def main() -> None:
    network = Network(leaf_spine(), NetworkConfig(seed=13))

    # An aggressive multi-get load: large values, tight request loop ->
    # repeated bursts of responses converging on server0's access link.
    workload = MemcacheWorkload(network, MemcacheConfig(
        stop_ns=1 * S, keys_per_multiget=200, value_size_bytes=1500,
        mean_request_gap_ns=60 * US))
    workload.start()

    # A gauge: no channel state needed.
    deployment = deploy(network, metric="queue_depth")

    epochs = deployment.schedule_campaign(count=200, interval_ns=500 * US)
    network.run(until=400 * MS)

    snaps = deployment.observer.completed_snapshots()
    print(f"{len(snaps)} queue-depth snapshots taken during the incast\n")

    def client_queue_depth(snap):
        leaf = "leaf0"  # server0 (the client) lives on leaf0
        port = network.port_toward(leaf, "server0")
        return snap.value_of(leaf, port, Direction.EGRESS)

    worst = max(snaps, key=client_queue_depth)
    print(f"worst instant: epoch {worst.epoch}, "
          f"client queue = {client_queue_depth(worst)} packets")
    print("whole-network egress queue depths at that instant:")
    for device in sorted(deployment.control_planes):
        depths = [r.value for r in worst.device_records(device)
                  if r.unit.direction == Direction.EGRESS]
        print(f"  {device:>8}: {depths}")

    hot = [s for s in snaps if client_queue_depth(s) >= 5]
    print(f"\n{len(hot)}/{len(snaps)} snapshots caught the client queue "
          f">= 5 packets deep while other queues were idle —")
    print("synchronized fan-in that per-port averages would never show.")


if __name__ == "__main__":
    main()
