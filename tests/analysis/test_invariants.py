"""Tests for network-wide invariants over consistent snapshots."""

import pytest

from repro.analysis import LinkAudit, LoopDetector
from repro.core import ControlPlaneConfig, deploy
from repro.core.control_plane import UnitSnapshotRecord
from repro.core.snapshot import GlobalSnapshot
from repro.sim.channel import BernoulliLoss
from repro.sim.engine import MS, S, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction, UnitId
from repro.topology import leaf_spine, ring
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


def _campaign(net, count=4, interval=5 * MS, channel_state=True,
              until=1 * S):
    deployment = deploy(
        net, metric="packet_count", channel_state=channel_state,
        control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
    deployment.schedule_campaign(count=count, interval_ns=interval)
    net.run(until=until)
    return deployment


class TestLinkAudit:
    def test_lossless_network_all_nonnegative(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=1))
        wl = PoissonWorkload(net, PoissonConfig(
            seed=2, rate_pps=20_000, stop_ns=1 * S, sport_churn=True))
        wl.start()
        deployment = _campaign(net)
        snaps = deployment.observer.completed_snapshots(
            require_consistent=True)
        assert snaps
        audit = LinkAudit(net)
        for snap in snaps:
            reports = audit.audit(snap)
            assert len(reports) == 8  # 4 fabric links x 2 directions
            assert audit.violations(snap) == []

    def test_lossy_network_discrepancy_still_nonnegative(self):
        net = Network(
            leaf_spine(hosts_per_leaf=1),
            NetworkConfig(seed=3,
                          loss_factory=lambda spec, rng:
                          BernoulliLoss(0.01, rng)))
        wl = PoissonWorkload(net, PoissonConfig(
            seed=4, rate_pps=20_000, stop_ns=2 * S, sport_churn=True))
        wl.start()
        deployment = _campaign(net, until=2 * S)
        snaps = deployment.observer.completed_snapshots(
            require_consistent=True)
        assert snaps
        audit = LinkAudit(net)
        for snap in snaps:
            assert audit.violations(snap) == []
            # Losses make some discrepancies strictly positive.
        assert any(r.discrepancy > 0 for r in audit.audit(snaps[-1]))

    def test_inconsistent_snapshot_rejected(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=5))
        audit = LinkAudit(net)
        snap = GlobalSnapshot(epoch=1, requested_wall_ns=0,
                              expected_units={UnitId("leaf0", 1,
                                                     Direction.INGRESS)})
        snap.add_record(UnitSnapshotRecord(
            unit=UnitId("leaf0", 1, Direction.INGRESS), epoch=1, value=1,
            channel_state=0, consistent=False, captured_ns=0, read_ns=0))
        with pytest.raises(ValueError, match="consistent"):
            audit.violations(snap)

    def test_forged_impossible_state_detected(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=6))
        audit = LinkAudit(net)
        sender, receiver = audit._links[0]
        snap = GlobalSnapshot(epoch=1, requested_wall_ns=0,
                              expected_units={sender, receiver})
        snap.add_record(UnitSnapshotRecord(
            unit=sender, epoch=1, value=5, channel_state=0,
            consistent=True, captured_ns=0, read_ns=0))
        snap.add_record(UnitSnapshotRecord(
            unit=receiver, epoch=1, value=9, channel_state=0,
            consistent=True, captured_ns=0, read_ns=0))
        violations = audit.violations(snap)
        assert len(violations) == 1
        assert violations[0].discrepancy == -4


class TestLoopDetector:
    def _looped_ring(self):
        net = Network(ring(num_switches=4, hosts_per_switch=1),
                      NetworkConfig(seed=7))
        for link in net.links:
            if "server" not in link.name:
                link.propagation_ns = 100 * US
        switches = [f"sw{i}" for i in range(4)]
        for i, name in enumerate(switches):
            port = net.port_toward(name, switches[(i + 1) % 4])
            net.switch(name).install_route("phantom", [port])
        return net

    def test_loop_flagged(self):
        net = self._looped_ring()
        deployment = deploy(net, metric="packet_count")
        net.host("server0").send_flow("phantom", 20, sport=1, dport=2,
                                      gap_ns=10 * US)
        epochs = deployment.schedule_campaign(count=4, interval_ns=5 * MS)
        net.run(until=300 * MS)
        snaps = deployment.observer.completed_snapshots(
            require_consistent=True)
        verdicts = LoopDetector(net).scan(snaps)
        assert any(v.loop_suspected for v in verdicts)

    def test_healthy_traffic_not_flagged(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=8))
        wl = PoissonWorkload(net, PoissonConfig(
            seed=9, rate_pps=20_000, stop_ns=1 * S, sport_churn=True))
        wl.start()
        deployment = _campaign(net, channel_state=False)
        snaps = deployment.observer.completed_snapshots(
            require_consistent=True)
        verdicts = LoopDetector(net).scan(snaps)
        assert verdicts
        assert not any(v.loop_suspected for v in verdicts)

    def test_idle_network_not_flagged(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=10))
        deployment = _campaign(net, channel_state=False)
        snaps = deployment.observer.completed_snapshots(
            require_consistent=True)
        verdicts = LoopDetector(net).scan(snaps)
        assert not any(v.loop_suspected for v in verdicts)

    def test_epoch_order_enforced(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=11))
        detector = LoopDetector(net)
        a = GlobalSnapshot(epoch=2, requested_wall_ns=0, expected_units=set())
        b = GlobalSnapshot(epoch=1, requested_wall_ns=0, expected_units=set())
        with pytest.raises(ValueError):
            detector.compare(a, b)
