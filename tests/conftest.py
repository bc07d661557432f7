"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections.abc import Callable

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet
from repro.topology import Topology, leaf_spine, single_switch
from repro.topology.builders import GBPS


def linear(num_switches: int = 3, hosts_per_switch: int = 1,
           host_bw_bps: int = 25 * GBPS,
           fabric_bw_bps: int = 100 * GBPS) -> Topology:
    """A chain of switches ``sw0``..., each with local hosts."""
    if num_switches < 1:
        raise ValueError("need at least one switch")
    topo = Topology(f"linear-{num_switches}")
    switches = [topo.add_switch(f"sw{i}") for i in range(num_switches)]
    for left, right in zip(switches, switches[1:]):
        topo.add_link(left, right, fabric_bw_bps, 500)
    server = 0
    for sw in switches:
        for _ in range(hosts_per_switch):
            host = topo.add_host(f"server{server}")
            topo.add_link(sw, host, host_bw_bps, 500)
            server += 1
    return topo


class Arrivals:
    """One flow's packets, bytes and first / last arrival at one host."""

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.first_ns = -1
        self.last_ns = -1


ReceiveLog = dict[str, dict[FlowKey, Arrivals]]


def _record_arrivals(net: Network) -> ReceiveLog:
    """Per-host, per-flow arrivals from now on, kept through every
    host's ``on_receive`` (hosts keep no per-flow state themselves)."""
    log: ReceiveLog = {}
    for name, host in net.hosts.items():
        flows = log[name] = {}

        def note(packet: Packet, flows: dict[FlowKey, Arrivals] = flows
                 ) -> None:
            entry = flows.get(packet.flow)
            if entry is None:
                entry = flows[packet.flow] = Arrivals()
                entry.first_ns = net.sim.now
            entry.packets += 1
            entry.bytes += packet.size_bytes
            entry.last_ns = net.sim.now

        host.on_receive = note
    return log


@pytest.fixture
def record_arrivals() -> Callable[[Network], ReceiveLog]:
    return _record_arrivals


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def leaf_spine_net() -> Network:
    """The paper's testbed: 2 leaves x 2 spines x 6 servers."""
    return Network(leaf_spine(), NetworkConfig(seed=1))


@pytest.fixture
def small_net() -> Network:
    """A compact leaf-spine (one host per leaf) for fast protocol tests."""
    return Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=1))


@pytest.fixture
def single_switch_net() -> Network:
    return Network(single_switch(num_hosts=4), NetworkConfig(seed=1))


@pytest.fixture
def traced_net() -> Network:
    """Leaf-spine with trace logging for consistency checking."""
    return Network(leaf_spine(hosts_per_leaf=1),
                   NetworkConfig(seed=1, enable_tracing=True))
