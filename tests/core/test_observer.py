"""Tests for the snapshot observer."""

import random

import pytest

from repro.core import ObserverConfig, SnapshotStatus, deploy
from repro.core.control_plane import UnitSnapshotRecord
from repro.faults import FaultInjector, FaultSchedule
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction, UnitId
from repro.topology import leaf_spine, single_switch


def _deploy(topo=None, seed=1, **dep_kwargs):
    net = Network(topo or single_switch(num_hosts=2), NetworkConfig(seed=seed))
    dep_kwargs.setdefault("metric", "packet_count")
    deployment = deploy(net, **dep_kwargs)
    return net, deployment


class TestBasicOperation:
    def test_take_snapshot_completes(self):
        net, dep = _deploy()
        epoch = dep.take_snapshot()
        net.run(until=200 * MS)
        snap = dep.observer.snapshot(epoch)
        assert snap.status is SnapshotStatus.COMPLETE
        assert len(snap.records) == 4  # 2 ports x 2 directions

    def test_epochs_increment(self):
        net, dep = _deploy()
        assert dep.take_snapshot() == 1
        assert dep.take_snapshot() == 2

    def test_campaign_schedules_at_cadence(self):
        net, dep = _deploy()
        epochs = dep.schedule_campaign(count=3, interval_ns=10 * MS)
        walls = [dep.observer.snapshot(e).requested_wall_ns for e in epochs]
        assert walls[1] - walls[0] == 10 * MS
        assert walls[2] - walls[1] == 10 * MS
        net.run(until=300 * MS)
        assert len(dep.observer.completed_snapshots()) == 3

    def test_campaign_count_validated(self):
        _net, dep = _deploy()
        with pytest.raises(ValueError):
            dep.schedule_campaign(count=0, interval_ns=1 * MS)

    def test_completion_callback_fires(self):
        net, dep = _deploy()
        seen = []
        dep.observer.on_resolved(lambda snap: seen.append(
            (snap.epoch, snap.status)))
        epoch = dep.take_snapshot()
        net.run(until=200 * MS)
        assert seen == [(epoch, SnapshotStatus.COMPLETE)]

    def test_completed_snapshots_ordered_and_filtered(self):
        net, dep = _deploy()
        dep.schedule_campaign(count=3, interval_ns=5 * MS)
        net.run(until=300 * MS)
        snaps = dep.observer.completed_snapshots(require_consistent=True)
        assert [s.epoch for s in snaps] == [1, 2, 3]


class TestWindowEnforcement:
    def test_stale_pending_snapshots_abandoned_at_initiation(self):
        # Tiny ID space: window = (8 - 1) // 2 = 3.
        net, dep = _deploy(max_sid=7,
                           observer=ObserverConfig(retry_timeout_ns=10 * S))
        # Break completion so snapshots stay pending.
        for sw in net.switches.values():
            sw.notification_sink = lambda n: None
        epochs = [dep.take_snapshot() for _ in range(6)]
        # Nothing is abandoned until initiations actually circulate.
        assert all(dep.observer.snapshot(e).status is SnapshotStatus.PENDING
                   for e in epochs)
        net.run(until=1 * S)
        statuses = [dep.observer.snapshot(e).status for e in epochs]
        assert statuses[0] is SnapshotStatus.ABANDONED
        assert statuses[1] is SnapshotStatus.ABANDONED
        assert statuses[-1] is not SnapshotStatus.ABANDONED

    def test_keeping_pace_never_abandons(self):
        # A long campaign on a tiny space is fine when completion keeps
        # up with the cadence.
        net, dep = _deploy(max_sid=7)
        epochs = dep.schedule_campaign(count=12, interval_ns=10 * MS)
        net.run(until=2 * S)
        statuses = {dep.observer.snapshot(e).status for e in epochs}
        assert statuses == {SnapshotStatus.COMPLETE}


class TestRetriesAndExclusion:
    def test_silent_device_excluded_and_snapshot_partial_or_complete(self):
        net, dep = _deploy(
            topo=leaf_spine(hosts_per_leaf=1),
            observer=ObserverConfig(retry_timeout_ns=10 * MS, max_retries=1))
        # leaf1's CPU never hears from its ASIC: it will never ship.
        net.switch("leaf1").notification_sink = lambda n: None
        epoch = dep.take_snapshot()
        net.run(until=1 * S)
        snap = dep.observer.snapshot(epoch)
        assert "leaf1" in snap.excluded_devices
        assert snap.status is SnapshotStatus.COMPLETE  # of remaining devices
        assert all(u.device != "leaf1" for u in snap.records)

    def test_snapshot_with_every_device_excluded_is_partial(self):
        """Every control plane crashes before the campaign: each epoch
        ends with no records at all, which is not a complete cut."""
        net, dep = _deploy(topo=leaf_spine(hosts_per_leaf=2))
        schedule = FaultSchedule()
        schedule.add("cp_crash", 1 * MS)
        FaultInjector(net, schedule, deployment=dep).arm()
        epochs = dep.schedule_campaign(count=3, interval_ns=5 * MS)
        net.run(until=1 * S)
        for epoch in epochs:
            snap = dep.observer.snapshot(epoch)
            assert snap.records == {}
            assert len(snap.excluded_devices) == 4
            assert not snap.complete
            assert snap.status is SnapshotStatus.PARTIAL
        assert dep.observer.completed_snapshots(require_consistent=True) == []

    def test_retry_resends_initiations(self):
        net, dep = _deploy(
            observer=ObserverConfig(retry_timeout_ns=10 * MS, max_retries=2))
        cp = dep.control_planes["sw0"]
        net.switch("sw0").notification_sink = lambda n: None  # never done
        dep.take_snapshot()
        net.run(until=1 * S)
        assert cp.initiations_sent >= 3  # original + 2 retries


class TestRecordIntake:
    def test_unknown_epoch_ignored(self):
        _net, dep = _deploy()
        record = UnitSnapshotRecord(
            unit=UnitId("sw0", 0, Direction.INGRESS), epoch=999, value=1,
            channel_state=None, consistent=True, captured_ns=0, read_ns=0)
        dep.observer.on_unit_record(record)  # must not raise
        assert 999 not in dep.observer.snapshots

    def test_unexpected_unit_ignored(self):
        net, dep = _deploy()
        epoch = dep.take_snapshot()
        stray = UnitSnapshotRecord(
            unit=UnitId("ghost", 0, Direction.INGRESS), epoch=epoch, value=1,
            channel_state=None, consistent=True, captured_ns=0, read_ns=0)
        dep.observer.on_unit_record(stray)
        assert stray.unit not in dep.observer.snapshot(epoch).records


class TestNodeAttachment:
    def test_device_registered_later_joins_next_snapshot(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=1))
        # Deploy on three of the four switches initially.
        deployment = deploy(
            net, metric="packet_count",
            switches=["leaf0", "spine0", "spine1"])
        first = deployment.take_snapshot()
        net.run(until=150 * MS)
        assert deployment.observer.snapshot(first).complete
        n_first = len(deployment.observer.snapshot(first).records)

        # Attach leaf1 at runtime: build a deployment over the remaining
        # switch via the public API, then point its shipping at the
        # original observer.
        extra = deploy(net, metric="packet_count", switches=["leaf1"])
        # Merge: the new device reports to the original observer.
        cp = extra.control_planes["leaf1"]
        cp.ship = lambda record: net.mgmt.send(
            deployment.observer.on_unit_record, record)
        units = {u for u in extra.agents if u.device == "leaf1"}
        deployment.observer.register_device("leaf1", cp, units)
        net.refresh_header_stripping()

        second = deployment.take_snapshot()
        net.run(until=400 * MS)
        snap = deployment.observer.snapshot(second)
        assert snap.complete
        assert len(snap.records) == n_first + len(units)

    def test_duplicate_device_rejected(self):
        _net, dep = _deploy()
        cp = dep.control_planes["sw0"]
        with pytest.raises(ValueError):
            dep.observer.register_device("sw0", cp, set())


def _full_walk_enforce_window(observer, initiating_epoch):
    """Reference no-lapping enforcement: inspect every snapshot ever
    taken, in epoch order, at every initiation."""
    floor = initiating_epoch - observer.ids.window + 1
    for epoch, snapshot in sorted(observer.snapshots.items()):
        if epoch < floor and snapshot.status is SnapshotStatus.PENDING:
            observer._resolve(snapshot, SnapshotStatus.ABANDONED)


class _CountingSnapshots(dict):
    """``observer.snapshots`` stand-in that counts the snapshots looked
    at while ``counting`` is set (by key or by iteration)."""

    counting = False
    inspected = 0

    def __getitem__(self, epoch):
        self.inspected += self.counting
        return super().__getitem__(epoch)

    def get(self, epoch, default=None):
        self.inspected += self.counting
        return super().get(epoch, default)

    def _walk(self, iterator):
        for item in iterator:
            self.inspected += self.counting
            yield item

    def __iter__(self):
        return self._walk(super().__iter__())

    def items(self):
        return self._walk(super().items())

    def values(self):
        return self._walk(super().values())


class TestWindowCursor:
    """The amortised-O(1) abandon cursor against the full walk."""

    def _abandonments(self, shuffle_seed, reference):
        net, dep = _deploy(max_sid=7,
                           observer=ObserverConfig(retry_timeout_ns=10 * S))
        observer = dep.observer
        if reference:
            observer._enforce_window = (
                lambda epoch: _full_walk_enforce_window(observer, epoch))
        for sw in net.switches.values():
            sw.notification_sink = lambda n: None  # nothing ever completes
        seen = []
        observer.on_resolved(
            lambda snap: seen.append((net.sim.now, snap.epoch, snap.status)))
        instants = [20 * MS + i * 3 * MS for i in range(24)]
        random.Random(shuffle_seed).shuffle(instants)
        for at_wall in instants:
            observer.take_snapshot(at_wall_ns=at_wall)
        net.run(until=1 * S)
        return seen

    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2, 3])
    def test_abandon_set_and_order_match_the_full_walk(self, shuffle_seed):
        got = self._abandonments(shuffle_seed, reference=False)
        want = self._abandonments(shuffle_seed, reference=True)
        assert got == want
        assert {status for _t, _e, status in got} == {SnapshotStatus.ABANDONED}
        assert len(got) == 24 - 3  # all but the last window's worth

    def test_each_enforcement_inspects_o1_snapshots(self):
        net, dep = _deploy(max_sid=7)
        observer = dep.observer
        counted = observer.snapshots = _CountingSnapshots()
        per_call = []
        enforce = observer._enforce_window

        def counting_enforce(epoch):
            before = counted.inspected
            counted.counting = True
            try:
                enforce(epoch)
            finally:
                counted.counting = False
            per_call.append(counted.inspected - before)

        observer._enforce_window = counting_enforce
        epochs = dep.schedule_campaign(count=3000, interval_ns=2 * MS)
        net.run(until=3000 * 2 * MS + 1 * S)
        assert len(per_call) == 3000
        assert max(per_call) <= 1  # the full walk would reach 2999
        assert sum(per_call) <= 3000
        # Pace was kept: the wrapped ID space lapped ~430 times, nothing
        # was abandoned.
        assert all(observer.snapshot(e).status is SnapshotStatus.COMPLETE
                   for e in epochs)

    def test_device_set_changes_reach_the_next_snapshot(self):
        net, dep = _deploy(topo=leaf_spine(hosts_per_leaf=1))
        observer = dep.observer
        before = observer.take_snapshot()
        again = observer.take_snapshot()
        # A device registered now (leaf1's control plane under a second
        # name) joins from the next snapshot on.
        added_units = {UnitId("leaf9", u.port, u.direction)
                       for u in observer.snapshot(before).expected_units
                       if u.device == "leaf1"}
        observer.register_device("leaf9", observer.control_planes["leaf1"],
                                 added_units)
        with_it = observer.take_snapshot()
        expected = [observer.snapshot(e).expected_units
                    for e in (before, again, with_it)]
        assert expected[1] == expected[0]
        assert expected[2] == expected[0] | added_units
        # Snapshots of one device set share one expected set; an
        # exclusion must not leak into the others.
        later = observer.take_snapshot()
        observer.snapshot(later).exclude_device("leaf0")
        assert observer.snapshot(again).expected_units == expected[0]
        assert observer.snapshot(with_it).expected_units == expected[2]
