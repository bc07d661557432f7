#!/usr/bin/env python3
"""Use case: detecting a transient forwarding loop (paper §2.2 Q4).

"Forwarding loops are the canonical example of an undesirable network
state that is difficult to detect" — asynchronous counters can't
distinguish a loop from ordinary transit traffic, because measurements
taken at different times can double-count or miss packets.  Causally
consistent snapshots make the evidence unambiguous: across consecutive
snapshots, switch-to-switch traffic keeps growing while *no new traffic
enters the network* — a conservation violation only a loop can produce.

This script misconfigures a 4-switch ring so a phantom destination's
route points clockwise at every hop, injects a small burst, and lets
synchronized packet-count snapshots expose the loop.

Run:  python examples/forwarding_loop_detection.py
"""

from repro.analysis import LoopDetector
from repro.core import deploy
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.topology import ring


def main() -> None:
    # Slow ring links so each lap of the loop is visible across snapshots.
    topology = ring(num_switches=4, hosts_per_switch=1)
    network = Network(topology, NetworkConfig(seed=5))
    for link in network.links:
        if "server" not in link.name:
            link.propagation_ns = 100 * US

    # The misconfiguration: every switch forwards "phantom" clockwise.
    switches = [f"sw{i}" for i in range(4)]
    for i, name in enumerate(switches):
        next_hop = switches[(i + 1) % 4]
        port = network.port_toward(name, next_hop)
        network.switch(name).install_route("phantom", [port])

    deployment = deploy(network, metric="packet_count")

    # A short burst toward the phantom destination enters at server0.
    network.host("server0").send_flow("phantom", 20, sport=1, dport=2,
                                      gap_ns=10 * US)

    deployment.schedule_campaign(count=6, interval_ns=3 * MS)
    network.run(until=200 * MS)

    snaps = deployment.observer.completed_snapshots()
    verdicts = LoopDetector(network).scan(snaps)

    print("epochs | growth between the two consistent cuts")
    for before, after, verdict in zip(snaps, snaps[1:], verdicts):
        print(f"{before.epoch:>2} -> {after.epoch:<2} | {verdict}")

    if any(verdict.loop_suspected for verdict in verdicts):
        print("\ntransit grows without new input — packets are circulating: "
              "FORWARDING LOOP detected.")
        print("(each consistent snapshot is a legal cut, so this growth "
              "cannot be an artifact of measurement timing.)")

if __name__ == "__main__":
    main()
