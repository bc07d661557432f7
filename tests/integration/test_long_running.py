"""Long-running and fault-injection integration scenarios."""


from repro.analysis import ConsistencyChecker
from repro.core import (ControlPlaneConfig, ObserverConfig, SnapshotStatus,
                        deploy)
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine, single_switch
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


class TestWraparoundCampaign:
    def test_small_id_space_survives_many_epochs(self):
        """A long campaign on a tiny (max_sid=15) register space: every
        epoch must round-trip through wraparound repeatedly."""
        net = Network(single_switch(num_hosts=2),
                      NetworkConfig(seed=4, enable_tracing=True))
        wl = PoissonWorkload(net, PoissonConfig(
            seed=5, rate_pps=10_000, stop_ns=2 * S, sport_churn=True,
            pairs=[("server0", "server1"), ("server1", "server0")]))
        wl.start()
        deployment = deploy(net, metric="packet_count", max_sid=15)
        epochs = deployment.schedule_campaign(count=40, interval_ns=8 * MS)
        net.run(until=2 * S)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) == 40  # 40 epochs over a 16-slot register file
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=False)
        totals = [s.total_value() for s in snaps]
        assert totals == sorted(totals)

    def test_wraparound_with_channel_state(self):
        net = Network(leaf_spine(hosts_per_leaf=1),
                      NetworkConfig(seed=6, enable_tracing=True))
        wl = PoissonWorkload(net, PoissonConfig(
            seed=7, rate_pps=20_000, stop_ns=2 * S, sport_churn=True))
        wl.start()
        deployment = deploy(
            net, metric="packet_count", channel_state=True, max_sid=31,
            control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
        epochs = deployment.schedule_campaign(count=25, interval_ns=10 * MS)
        net.run(until=2 * S)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) == 25
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=True)


class TestDeviceFailureMidCampaign:
    def test_failed_device_excluded_then_campaign_continues(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=8))
        wl = PoissonWorkload(net, PoissonConfig(
            seed=9, rate_pps=10_000, stop_ns=2 * S, sport_churn=True))
        wl.start()
        deployment = deploy(
            net, metric="packet_count",
            observer=ObserverConfig(retry_timeout_ns=30 * MS,
                                    max_retries=1))
        # spine1's control-plane CPU dies 100 ms in.
        def kill_spine1():
            net.switch("spine1").notification_sink = lambda n: None

        net.sim.schedule(100 * MS, kill_spine1)
        epochs = deployment.schedule_campaign(count=20, interval_ns=15 * MS)
        net.run(until=2 * S)
        snaps = [deployment.observer.snapshot(e) for e in epochs]
        early = [s for s in snaps if s.requested_wall_ns < 100 * MS]
        late = [s for s in snaps if s.requested_wall_ns > 200 * MS]
        assert early and late
        assert all(s.status is SnapshotStatus.COMPLETE for s in early)
        # Post-failure snapshots complete by excluding the dead device.
        for snap in late:
            assert snap.status is SnapshotStatus.COMPLETE
            assert "spine1" in snap.excluded_devices
            assert all(u.device != "spine1" for u in snap.records)


class TestLeavesOnlyPartialDeployment:
    def test_channel_state_on_leaves_only(self):
        net = Network(leaf_spine(hosts_per_leaf=1),
                      NetworkConfig(seed=10, enable_tracing=True))
        wl = PoissonWorkload(net, PoissonConfig(
            seed=11, rate_pps=15_000, stop_ns=1 * S, sport_churn=True))
        wl.start()
        deployment = deploy(
            net, metric="packet_count", channel_state=True,
            switches=["leaf0", "leaf1"],
            control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
        epochs = deployment.schedule_campaign(count=5, interval_ns=15 * MS)
        net.run(until=1 * S)
        snaps = deployment.observer.completed_snapshots()
        assert len(snaps) == 5
        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(net.trace_log)
        checker.check_all(snaps, channel_state=True)
