"""Tests for forwarding-state snapshots (§10)."""

import pytest

from repro.core import deploy
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction
from repro.topology import leaf_spine, single_switch


def _net(topo=None):
    return Network(topo or single_switch(num_hosts=3), NetworkConfig(seed=2))


class TestFibVersionRegisters:
    def test_install_route_bumps_generation(self):
        net = _net()
        sw = net.switch("sw0")
        before = sw.fib_generation
        sw.install_route("server0", [0])
        assert sw.fib_generation == before + 1
        assert sw.route_version["server0"] == sw.fib_generation

    def test_forwarding_records_matched_version(self):
        net = _net()
        sw = net.switch("sw0")
        version = sw.route_version["server1"]
        net.host("server0").send_flow("server1", 1, sport=1, dport=2)
        net.run(until=1 * MS)
        in_port = net.port_toward("sw0", "server0")
        assert sw.last_matched_version[in_port] == version

    def test_route_update_changes_recorded_version(self):
        net = _net()
        sw = net.switch("sw0")
        in_port = net.port_toward("sw0", "server0")
        net.host("server0").send_flow("server1", 1, sport=1, dport=2)
        net.run(until=1 * MS)
        old = sw.last_matched_version[in_port]
        sw.install_route("server1", [net.port_toward("sw0", "server1")])
        net.host("server0").send_flow("server1", 1, sport=3, dport=4)
        net.run(until=2 * MS)
        assert sw.last_matched_version[in_port] > old


class TestFibVersionSnapshots:
    def test_snapshot_captures_versions(self):
        net = _net()
        deployment = deploy(net, metric="fib_version")
        net.host("server0").send_flow("server1", 5, sport=1, dport=2)
        net.run(until=1 * MS)
        epoch = deployment.take_snapshot()
        net.run(until=200 * MS)
        snap = deployment.observer.snapshot(epoch)
        assert snap.complete
        in_port = net.port_toward("sw0", "server0")
        version = snap.value_of("sw0", in_port, Direction.INGRESS)
        assert version == net.switch("sw0").route_version["server1"]

    def test_channel_state_rejected_for_fib_version(self):
        net = _net()
        with pytest.raises(ValueError, match="gauge"):
            deploy(net, metric="fib_version", channel_state=True)

    def test_mid_propagation_update_visible_across_switches(self):
        """A route update applied to one leaf but not yet the other shows
        up as mixed generations in one consistent snapshot — the §2.2 Q4
        'impossible state' made observable."""
        net = _net(leaf_spine(hosts_per_leaf=1))
        deployment = deploy(net, metric="fib_version")
        # Steady traffic keeps the registers fresh.
        net.host("server0").send_flow("server1", 2000, sport=1, dport=2,
                                      gap_ns=50_000)
        net.host("server1").send_flow("server0", 2000, sport=2, dport=1,
                                      gap_ns=50_000)
        # Mid-run, only leaf0 gets a new configuration generation.
        leaf0 = net.switch("leaf0")

        def update_leaf0():
            leaf0.install_route("server1", [net.port_toward("leaf0", "spine0")])

        net.sim.schedule(20 * MS, update_leaf0)
        epoch = deployment.take_snapshot(at_wall_ns=40 * MS)
        net.run(until=300 * MS)
        snap = deployment.observer.snapshot(epoch)
        assert snap.complete
        host_in = net.port_toward("leaf0", "server0")
        leaf0_version = snap.value_of("leaf0", host_in, Direction.INGRESS)
        assert leaf0_version == leaf0.route_version["server1"]
        # leaf1 still reports its original generation.
        leaf1 = net.switch("leaf1")
        leaf1_in = net.port_toward("leaf1", "server1")
        leaf1_version = snap.value_of("leaf1", leaf1_in, Direction.INGRESS)
        assert leaf1_version == leaf1.route_version["server0"]
