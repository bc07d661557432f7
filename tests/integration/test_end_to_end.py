"""End-to-end integration tests: full campaigns validated against the
ground-truth consistency checker."""

import pytest

from repro.analysis import ConsistencyChecker
from repro.core import ControlPlaneConfig, deploy
from repro.sim.channel import BernoulliLoss
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.topology import fat_tree, leaf_spine, ring
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


def _run_campaign(net, deployment, count=8, interval_ns=10 * MS,
                  settle_ns=300 * MS):
    epochs = deployment.schedule_campaign(count, interval_ns)
    last = deployment.observer.snapshot(epochs[-1]).requested_wall_ns
    net.run(until=last + settle_ns)
    return epochs


def _traffic(net, duration, rate=20_000, seed=2):
    wl = PoissonWorkload(net, PoissonConfig(seed=seed, rate_pps=rate,
                                            stop_ns=duration,
                                            sport_churn=True))
    wl.start()
    return wl


class TestNoChannelState:
    def test_campaign_completes_and_conserves(self, traced_net):
        net = traced_net
        _traffic(net, 1 * S)
        deployment = deploy(net, metric="packet_count")
        epochs = _run_campaign(net, deployment)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) == len(epochs)
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        assert checker.check_all(snaps, channel_state=False) > 0

    def test_byte_count_metric(self, traced_net):
        net = traced_net
        _traffic(net, 1 * S)
        deployment = deploy(net, metric="byte_count")
        _run_campaign(net, deployment, count=5)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) == 5
        checker = ConsistencyChecker(deployment.ids, metric="byte_count")
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=False)

    def test_monotone_totals_across_epochs(self, small_net):
        net = small_net
        _traffic(net, 1 * S)
        deployment = deploy(net, metric="packet_count")
        _run_campaign(net, deployment, count=6)
        totals = [s.total_value()
                  for s in deployment.observer.completed_snapshots()]
        assert totals == sorted(totals)
        assert totals[-1] > totals[0] > 0


class TestChannelState:
    def test_campaign_consistent_and_conserves(self, traced_net):
        net = traced_net
        _traffic(net, 1 * S)
        deployment = deploy(
            net, metric="packet_count", channel_state=True,
            control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
        epochs = _run_campaign(net, deployment)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) == len(epochs)
        consistent = deployment.observer.completed_snapshots(
            require_consistent=True)
        assert len(consistent) >= len(epochs) - 1  # startup epoch may mark
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        assert checker.check_all(snaps, channel_state=True) > 0

    def test_byte_count_channel_state(self):
        net = Network(leaf_spine(hosts_per_leaf=1),
                      NetworkConfig(seed=3, enable_tracing=True))
        _traffic(net, 1 * S)
        deployment = deploy(net, metric="byte_count", channel_state=True)
        _run_campaign(net, deployment, count=5)
        snaps = deployment.observer.completed_snapshots()
        checker = ConsistencyChecker(deployment.ids, metric="byte_count")
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=True)

    def test_inconsistency_marking_is_sound(self):
        """Force ID skips (a switch misses initiations) and verify that
        every record still marked consistent satisfies the conservation
        law — the marking may over-approximate, never under-approximate."""
        net = Network(leaf_spine(hosts_per_leaf=1),
                      NetworkConfig(seed=5, enable_tracing=True))
        _traffic(net, 2 * S, rate=10_000)
        deployment = deploy(
            net, metric="packet_count", channel_state=True,
            control_plane=ControlPlaneConfig(probe_delay_ns=0,
                                             reinitiation_timeout_ns=0))
        devices = sorted(deployment.control_planes)
        epochs = []
        for i in range(10):
            initiators = devices if i % 3 == 0 else \
                [d for d in devices if d != "leaf1"]
            epochs.append(deployment.observer.take_snapshot(
                at_wall_ns=net.sim.now + 10 * MS + i * 8 * MS,
                initiators=initiators))
        net.run(until=2 * S)
        snaps = [deployment.observer.snapshot(e) for e in epochs
                 if deployment.observer.snapshot(e).complete]
        assert snaps
        assert any(not s.consistent for s in snaps)  # skips really occurred
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=True)  # consistent ones hold


class TestFaultTolerance:
    def test_snapshots_survive_data_plane_packet_loss(self):
        net = Network(
            leaf_spine(hosts_per_leaf=1),
            NetworkConfig(seed=7, enable_tracing=True,
                          loss_factory=lambda spec, rng:
                          BernoulliLoss(0.005, rng)))
        _traffic(net, 2 * S)
        deployment = deploy(
            net, metric="packet_count", channel_state=True,
            control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
        epochs = _run_campaign(net, deployment, count=6, settle_ns=800 * MS)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) >= 5
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=True)

    def test_notification_buffer_overflow_recovered_by_polling(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=9))
        _traffic(net, 1 * S)
        deployment = deploy(net, metric="packet_count")
        for cp in deployment.control_planes.values():
            cp.channel.capacity = 2
        epochs = _run_campaign(net, deployment, count=10, interval_ns=2 * MS)
        if deployment.notification_stats()["dropped"] == 0:
            pytest.skip("buffer never overflowed at this seed")
        for cp in deployment.control_planes.values():
            cp.poll_registers()
        # After register polling, every unit's view reaches the last epoch.
        for cp in deployment.control_planes.values():
            assert cp.min_finalized_epoch() >= len(epochs) - 1


class TestOtherTopologies:
    def test_fat_tree_snapshot(self):
        net = Network(fat_tree(k=4), NetworkConfig(seed=4))
        _traffic(net, 500 * MS, rate=300)
        deployment = deploy(net, metric="packet_count")
        epoch = deployment.take_snapshot()
        net.run(until=500 * MS)
        snap = deployment.observer.snapshot(epoch)
        assert snap.complete
        # 20 switches, each port contributes two units.
        assert len(snap.records) == sum(
            2 * len(net.switch(s).connected_ports()) for s in net.switches)

    def test_ring_topology_with_channel_state(self):
        net = Network(ring(num_switches=4, hosts_per_switch=1),
                      NetworkConfig(seed=6, enable_tracing=True))
        _traffic(net, 1 * S, rate=10_000)
        deployment = deploy(
            net, metric="packet_count", channel_state=True,
            control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
        _run_campaign(net, deployment, count=4, settle_ns=500 * MS)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) == 4
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=True)
