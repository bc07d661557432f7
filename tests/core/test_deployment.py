"""Tests for deployment wiring."""

import pytest

from repro.core import RECOVERY_PRESETS, deploy
from repro.core.dataplane import SpeedlightUnit
from repro.core.deployment import merge_progress
from repro.core.ideal import IdealUnit
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction, EXTERNAL_CHANNEL, UnitId
from repro.topology import leaf_spine, single_switch


def _net(topo=None, seed=1):
    return Network(topo or leaf_spine(), NetworkConfig(seed=seed))


class TestWiring:
    def test_agents_on_every_connected_unit(self):
        net = _net()
        dep = deploy(net, metric="packet_count")
        expected = sum(2 * len(sw.connected_ports())
                       for sw in net.switches.values())
        assert len(dep.agents) == expected
        assert all(isinstance(a, SpeedlightUnit) for a in dep.agents.values())

    def test_counters_installed_under_metric_name(self):
        net = _net()
        deploy(net, metric="byte_count")
        for sw in net.switches.values():
            for port_index in sw.connected_ports():
                assert "byte_count" in sw.ports[port_index].ingress.counters

    @pytest.mark.parametrize("fields, error, match", [
        ({"switches": ["leaf0", "nope"]}, ValueError, "'nope' is unknown"),
        ({"switches": ["server0"]}, ValueError, "'server0' is a host"),
        ({"switches": ["leaf0", "leaf0"]}, ValueError,
         "'leaf0' is listed twice"),
        ({"switches": []}, ValueError, r"switches=\[\] deploys nothing"),
        # A misspelt field is refused, not dropped.
        ({"chanel_state": True}, TypeError, "chanel_state"),
        # Removed fields are refused by name: a recovery policy is applied
        # by passing the two configs it builds; gating is the topology's.
        ({"recovery": RECOVERY_PRESETS["eager"]}, TypeError, "recovery"),
        ({"gate_host_channels": True}, TypeError, "gate_host_channels"),
        ({"cos_classes": [0]}, TypeError, "cos_classes"),
        # An unknown metric fails before any switch is touched, naming
        # every metric there is.
        ({"metric": "nope"}, KeyError,
         "unknown metric 'nope'; known metrics: active_flows, byte_count, "
         "ewma_interarrival, ewma_packet_rate, fib_version, heavy_hitter, "
         "packet_count, queue_depth, queue_watermark"),
    ])
    def test_bad_fields_rejected(self, fields, error, match):
        net = _net()
        with pytest.raises(error, match=match):
            deploy(net, **{"metric": "packet_count", **fields})
        assert all(sw.snapshot_units() == [] and sw.notification_sink is None
                   for sw in net.switches.values())

    def test_gauge_metric_rejects_channel_state(self):
        net = _net()
        with pytest.raises(ValueError, match="gauge"):
            deploy(net, metric="queue_depth", channel_state=True)

    def test_unknown_in_flight_rule_rejected(self):
        net = _net()
        with pytest.raises(ValueError, match="in-flight"):
            deploy(net, metric="heavy_hitter", channel_state=True)

    def test_ideal_units_selected(self):
        net = _net()
        dep = deploy(net, metric="packet_count", ideal_units=True)
        assert all(isinstance(a, IdealUnit) for a in dep.agents.values())
        assert dep.ids.max_sid is None

    def test_queue_depth_binds_egress_gauge(self):
        net = _net(single_switch(num_hosts=2))
        dep = deploy(net, metric="queue_depth")
        sw = net.switch("sw0")
        ingress = sw.ports[0].ingress.counters.get("queue_depth")
        assert ingress.read() == 0  # ingress units have no queue


class TestGating:
    def test_no_gating_without_channel_state(self):
        net = _net()
        dep = deploy(net, metric="packet_count", channel_state=False)
        for cp in dep.control_planes.values():
            for tracker in cp.trackers.values():
                assert tracker.gating == []

    def test_host_facing_ingress_not_gated(self):
        net = _net()
        dep = deploy(net, metric="packet_count", channel_state=True)
        cp = dep.control_planes["leaf0"]
        host_port = net.port_toward("leaf0", "server0")
        tracker = cp.trackers[UnitId("leaf0", host_port, Direction.INGRESS)]
        assert tracker.gating == []

    def test_switch_facing_ingress_gated_on_external(self):
        net = _net()
        dep = deploy(net, metric="packet_count", channel_state=True)
        cp = dep.control_planes["leaf0"]
        uplink = net.port_toward("leaf0", "spine0")
        tracker = cp.trackers[UnitId("leaf0", uplink, Direction.INGRESS)]
        assert tracker.gating == [EXTERNAL_CHANNEL]

    def test_egress_gating_excludes_infeasible_channels(self):
        net = _net()
        dep = deploy(net, metric="packet_count", channel_state=True)
        cp = dep.control_planes["leaf0"]
        spine0_port = net.port_toward("leaf0", "spine0")
        spine1_port = net.port_toward("leaf0", "spine1")
        tracker = cp.trackers[UnitId("leaf0", spine0_port, Direction.EGRESS)]
        # Valley channel spine1 -> spine0 can never carry routed traffic.
        assert spine1_port not in tracker.gating
        assert 0 in tracker.gating  # server0's ingress can


class TestPartialDeployment:
    def test_only_selected_switches_enabled(self):
        net = _net()
        dep = deploy(net, metric="packet_count", switches=["leaf0", "leaf1"])
        assert set(dep.control_planes) == {"leaf0", "leaf1"}
        assert all(u.device in ("leaf0", "leaf1") for u in dep.agents)
        for spine in ("spine0", "spine1"):
            assert net.switch(spine).snapshot_units() == []

    def test_boundary_stripping_set(self):
        net = _net()
        deploy(net, metric="packet_count", switches=["leaf0", "spine0"])
        leaf0 = net.switch("leaf0")
        to_spine0 = net.port_toward("leaf0", "spine0")
        to_spine1 = net.port_toward("leaf0", "spine1")
        assert not leaf0.ports[to_spine0].egress.strip_header_for_peer
        assert leaf0.ports[to_spine1].egress.strip_header_for_peer

    def test_partial_deployment_end_to_end(self):
        net = _net()
        dep = deploy(net, metric="packet_count", switches=["leaf0", "leaf1"])
        epoch = dep.take_snapshot()
        net.run(until=200 * MS)
        snap = dep.observer.snapshot(epoch)
        assert snap.complete
        assert {u.device for u in snap.records} == {"leaf0", "leaf1"}


class TestConvenience:
    def test_notification_stats_aggregates(self):
        net = _net(single_switch(num_hosts=2))
        dep = deploy(net, metric="packet_count")
        dep.take_snapshot()
        net.run(until=200 * MS)
        stats = dep.notification_stats()
        assert stats["received"] == 4
        assert stats["processed"] == 4
        assert stats["dropped"] == 0

    def test_sync_spread_requires_two_timestamps(self):
        net = _net(single_switch(num_hosts=2))
        dep = deploy(net, metric="packet_count")
        assert dep.sync_spread_ns(1) is None
        dep.take_snapshot()
        net.run(until=200 * MS)
        assert dep.sync_spread_ns(1) >= 0

    def test_sync_spread_is_latest_minus_earliest_capture(self):
        """§8.1 from the folded per-epoch table: on a campaign without
        re-initiations every notification is one unit's capture, so the
        spread is that of the capture timestamps — across control planes,
        and for every epoch asked without rescanning a log."""
        net = _net(leaf_spine(num_leaves=2, num_spines=1, hosts_per_leaf=1))
        dep = deploy(net, metric="packet_count")
        epochs = dep.schedule_campaign(3, 10 * MS)
        net.run(until=200 * MS)
        for epoch in epochs:
            captured = [r.captured_ns
                        for r in dep.observer.snapshot(epoch).records.values()]
            assert len(captured) > 2
            assert dep.sync_spread_ns(epoch) == max(captured) - min(captured)
        assert sum(len(cp.progress) for cp in dep.control_planes.values()) == 9

    def test_merge_progress_folds_tables_without_touching_them(self):
        tables = [{1: [5, 9, 2]}, {1: [3, 7, 1], 2: [4, 4, 1]}, {}]
        assert merge_progress(tables) == {1: [3, 9, 3], 2: [4, 4, 1]}
        assert tables == [{1: [5, 9, 2]}, {1: [3, 7, 1], 2: [4, 4, 1]}, {}]
