"""Per-epoch state stays bounded, and a frozen snapshot reads as it did
live.

A resolved snapshot keeps its records as columns (``GlobalSnapshot``
``freeze``); the control planes' retry table and the relays' completion
sets forget what the ID window has left behind.  The first test pins
table sizes against run length; the second compares every resolved
snapshot, frozen, with what its callbacks saw before the freeze.
"""

import gc

import pytest

from repro.analysis.report import epoch_record
from repro.core import ControlPlaneConfig, ObserverConfig, SnapshotStatus, deploy
from repro.core.aggregation import AggregationConfig
from repro.core.control_plane import UnitSnapshotRecord
from repro.core.snapshot import GlobalSnapshot, UnitTable
from repro.service.pipeline import SnapshotPipeline
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction, UnitId
from repro.topology import fat_tree, leaf_spine, ring
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


def _live_records() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is UnitSnapshotRecord)


class TestTablesDoNotGrowWithRunLength:
    def test_n_then_4n_epochs(self):
        net = Network(fat_tree(k=4), NetworkConfig(seed=3))
        before = _live_records()
        # max_sid=15: a window of 7 epochs, so the relays prune within N.
        dep = deploy(net, aggregation=AggregationConfig(degree=4), max_sid=15)
        window = dep.ids.window
        units = sum(len(cp.trackers) for cp in dep.control_planes.values())

        def run(count):
            start = net.sim.now + 5 * MS
            dep.schedule_campaign(count, 2 * MS, start_wall_ns=start)
            net.run(until=start + count * 2 * MS + 100 * MS)
            return {
                "records": _live_records() - before,
                "initiated": max(len(cp._initiated)
                                 for cp in dep.control_planes.values()),
                "completed": max(len(agent._completed)
                                 for agent in dep.aggregation.agents.values()),
                "epochs": max(len(agent._epochs)
                              for agent in dep.aggregation.agents.values()),
            }

        n = 20
        for sizes in (run(n), run(3 * n)):
            # One epoch's records at most, whatever the history.
            assert sizes["records"] <= units
            assert sizes["initiated"] <= window
            assert sizes["completed"] <= 2 * window + 1
            assert sizes["epochs"] <= window
        snapshots = dep.observer.snapshots
        assert len(snapshots) == 4 * n
        assert all(s.status is SnapshotStatus.COMPLETE and s.frozen
                   for s in snapshots.values())
        assert dep.observer.late_records == 0


def _capture(observer):
    """What each snapshot looked like when its callbacks ran."""
    seen = {}

    def on_resolved(snap):
        assert not snap.frozen
        seen[snap.epoch] = (
            epoch_record(snap), list(snap.records.items()), snap.consistent,
            snap.capture_spread_ns, snap.missing_units, snap.complete)

    observer.on_resolved(on_resolved)
    return seen


def _assert_frozen_equals_live(observer, seen):
    assert observer.late_records == 0
    assert set(seen) == {epoch for epoch, snap in observer.snapshots.items()
                         if snap.status is not SnapshotStatus.PENDING}
    for epoch, (doc, items, consistent, spread, missing, complete) in (
            seen.items()):
        snap = observer.snapshots[epoch]
        assert snap.frozen
        assert epoch_record(snap) == doc
        frozen_items = list(snap.records.items())
        assert frozen_items == items
        assert all(a is b for (a, _), (b, _) in zip(frozen_items, items))
        assert snap.consistent == consistent
        assert snap.capture_spread_ns == spread
        assert snap.missing_units == missing
        assert snap.complete == complete


class TestFrozenEqualsLive:
    def test_with_channel_state(self):
        net = Network(ring(num_switches=4, hosts_per_switch=1),
                      NetworkConfig(seed=6))
        PoissonWorkload(net, PoissonConfig(seed=2, rate_pps=3_000,
                                           stop_ns=120 * MS)).start()
        dep = deploy(net, channel_state=True,
                     control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
        seen = _capture(dep.observer)
        dep.schedule_campaign(6, 10 * MS)
        net.run(until=300 * MS)
        assert any(row["channel_state"] for doc, *_ in seen.values()
                   for row in doc["records"])
        _assert_frozen_equals_live(dep.observer, seen)

    def test_with_partial_snapshots_and_excluded_devices(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=1))
        dep = deploy(net, observer=ObserverConfig(retry_timeout_ns=10 * MS,
                                                  max_retries=1))
        # spine1 never ships (excluded); leaf1 loses one port's units, so
        # it reports but stays short (PARTIAL).
        net.switch("spine1").notification_sink = lambda n: None
        leaf1 = net.switch("leaf1")
        deliver = leaf1.notification_sink
        leaf1.notification_sink = (
            lambda n: deliver(n) if n.unit.port != 0 else None)
        seen = _capture(dep.observer)
        dep.schedule_campaign(3, 5 * MS)
        net.run(until=1 * S)
        statuses = {doc["status"] for doc, *_ in seen.values()}
        assert statuses == {"partial"}
        assert all(doc["excluded_devices"] == ["spine1"]
                   and doc["missing_units"] and doc["records"]
                   for doc, *_ in seen.values())
        _assert_frozen_equals_live(dep.observer, seen)

    def test_with_an_abandoned_epoch(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=1))
        dep = deploy(net, max_sid=7,
                     observer=ObserverConfig(retry_timeout_ns=10 * S))
        # leaf1 never ships: every epoch stays pending with the others'
        # records until the window passes it.
        net.switch("leaf1").notification_sink = lambda n: None
        seen = _capture(dep.observer)
        for k in range(6):
            dep.observer.take_snapshot(at_wall_ns=5 * MS + k * 5 * MS)
        net.run(until=200 * MS)
        abandoned = [doc for doc, *_ in seen.values()
                     if doc["status"] == "abandoned"]
        assert abandoned and all(doc["records"] for doc in abandoned)
        _assert_frozen_equals_live(dep.observer, seen)


class TestFrozenSnapshot:
    def _frozen(self, records):
        table = UnitTable()
        snap = GlobalSnapshot(epoch=3, requested_wall_ns=0,
                              expected_units={r.unit for r in records})
        for record in records:
            snap.add_record(record)
        snap.freeze(table)
        return snap, table

    def _record(self, port, value=5, channel_state=None):
        return UnitSnapshotRecord(UnitId("sw0", port, Direction.INGRESS), 3,
                                  value, channel_state, True, 10 + port, 99)

    def test_value_outside_int64_names_epoch_and_unit(self):
        with pytest.raises(OverflowError, match=r"epoch 3, unit sw0:1:"):
            self._frozen([self._record(0), self._record(1, value=1 << 63)])

    def test_mixed_channel_state_survives(self):
        records = [self._record(0, channel_state=4), self._record(1)]
        snap, _ = self._frozen(records)
        assert list(snap.records.values()) == records
        assert snap.total_value() == 14

    def test_mutators_raise(self):
        records = [self._record(0), self._record(1)]
        snap, _ = self._frozen(records)
        with pytest.raises(RuntimeError, match="snapshot 3 is resolved"):
            snap.add_record(self._record(0, value=9))
        with pytest.raises(RuntimeError, match="snapshot 3 is resolved"):
            snap.exclude_device("sw0")
        assert list(snap.records.values()) == records
        assert snap.expected_units == {r.unit for r in records}
        assert not snap.excluded_devices

    def test_readers_answer_alike_live_and_frozen(self):
        records = [self._record(0, value=5, channel_state=4),
                   self._record(1, value=7)]
        frozen, table = self._frozen(records)
        live = GlobalSnapshot(epoch=3, requested_wall_ns=0,
                              expected_units={r.unit for r in records},
                              records={r.unit: r for r in records})
        table.extend([UnitId("sw0", 2, Direction.INGRESS)])  # not recorded
        units = [r.unit for r in records]
        absent = UnitId("sw1", 0, Direction.INGRESS)
        for snap in (live, frozen):
            assert snap.totals_of((units[1], absent, units[0])) == [7, None, 9]
            assert snap.value_of("sw0", 1, Direction.INGRESS) == 7
            for port in (2, 3):
                with pytest.raises(KeyError):
                    snap.value_of("sw0", port, Direction.INGRESS)
            assert snap.total_value() == 16
            assert snap.total_value(include_channel_state=False) == 12
            assert snap.last_read_ns == 99
            assert snap.capture_to_read_ns == 99 - 10
        empty = GlobalSnapshot(epoch=4, requested_wall_ns=0, expected_units=set())
        assert empty.last_read_ns is None and empty.capture_to_read_ns == 0

    def test_mutating_records_changes_nothing(self):
        snap, _ = self._frozen([self._record(0)])
        snap.records.clear()
        assert snap.record_count == 1 and snap.complete


class TestResolvedSnapshotIsFinal:
    """A record that reaches a COMPLETE or PARTIAL snapshot is counted in
    ``late_records`` and dropped: the stored document is the one the
    snapshot rendered at resolution, even when the record lands before
    the ingest server has stored it."""

    def _late_records_after_resolution(self, net, dep, late_for):
        pipeline = SnapshotPipeline(net.sim, dep.observer)
        rendered = {}
        sent = []

        def on_resolved(snap):
            rendered[snap.epoch] = epoch_record(snap)
            late = late_for(snap)
            sent.append(late)
            net.sim.schedule(0, dep.observer.on_unit_record, late)

        dep.observer.on_resolved(on_resolved)
        dep.schedule_campaign(3, 5 * MS)
        net.run(until=1 * S)
        assert dep.observer.late_records == len(sent) == 3
        assert pipeline.ingested == 3
        for epoch, doc in rendered.items():
            stored = pipeline.store.get(epoch)
            assert stored.pop("merged_epochs") == 0
            assert stored == doc == epoch_record(dep.observer.snapshot(epoch))
        return rendered

    def test_late_record_for_a_complete_snapshot(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=1))
        dep = deploy(net)

        def late_for(snap):
            unit, record = next(iter(snap.records.items()))
            return UnitSnapshotRecord(unit, snap.epoch, record.value + 1000,
                                      None, True, record.captured_ns,
                                      record.read_ns + 1)

        rendered = self._late_records_after_resolution(net, dep, late_for)
        assert {doc["status"] for doc in rendered.values()} == {"complete"}

    def test_late_record_for_a_partial_snapshot(self):
        net = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=1))
        dep = deploy(net, observer=ObserverConfig(retry_timeout_ns=10 * MS,
                                                  max_retries=1))
        # leaf1 loses port 0's records: it reports, stays short, and the
        # snapshot times out PARTIAL still expecting those units.
        leaf1 = net.switch("leaf1")
        deliver = leaf1.notification_sink
        leaf1.notification_sink = (
            lambda n: deliver(n) if n.unit.port != 0 else None)

        def late_for(snap):
            unit = sorted(snap.missing_units, key=str)[0]
            return UnitSnapshotRecord(unit, snap.epoch, 1, None, True,
                                      snap.requested_wall_ns,
                                      net.sim.now)

        rendered = self._late_records_after_resolution(net, dep, late_for)
        assert {doc["status"] for doc in rendered.values()} == {"partial"}
        assert all(doc["missing_units"] for doc in rendered.values())
