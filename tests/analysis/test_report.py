"""Tests for snapshot export and campaign series."""

import json

import pytest

from repro.analysis.report import (CampaignSeries, epoch_from_record,
                                   epoch_record, snapshot_rows,
                                   snapshot_to_json)
from repro.core.control_plane import UnitSnapshotRecord
from repro.core.snapshot import GlobalSnapshot, SnapshotStatus
from repro.sim.switch import Direction, UnitId


def _unit(device="sw0", port=0, direction=Direction.INGRESS):
    return UnitId(device, port, direction)


def _snap(epoch, values, channel=None):
    """values: {unit: value}"""
    snap = GlobalSnapshot(epoch=epoch, requested_wall_ns=0,
                          expected_units=set(values))
    for unit, value in values.items():
        snap.add_record(UnitSnapshotRecord(
            unit=unit, epoch=epoch, value=value, channel_state=channel,
            consistent=True, captured_ns=epoch * 100, read_ns=epoch * 100))
    return snap


class TestRows:
    def test_rows_sorted_and_flat(self):
        units = {_unit(port=1): 10, _unit(port=0): 5,
                 _unit("sw1", 0): 7}
        rows = snapshot_rows(_snap(3, units))
        assert [(r["device"], r["port"]) for r in rows] == [
            ("sw0", 0), ("sw0", 1), ("sw1", 0)]
        assert rows[0]["value"] == 5
        assert rows[0]["epoch"] == 3

    def test_json_round_trips(self):
        snap = _snap(2, {_unit(): 9}, channel=4)
        doc = json.loads(snapshot_to_json(snap))
        assert doc["epoch"] == 2
        assert doc["records"][0]["total"] == 13
        assert doc["consistent"] is True


class TestCampaignSeries:
    def test_series_aligned_across_snapshots(self):
        a, b = _unit(port=0), _unit(port=1)
        snaps = [_snap(1, {a: 1, b: 10}), _snap(2, {a: 2, b: 20}),
                 _snap(3, {a: 3, b: 30})]
        series = CampaignSeries.from_snapshots(snaps)
        assert len(series) == 3
        assert series.series[a] == [1, 2, 3]
        assert series.series[b] == [10, 20, 30]

    def test_units_missing_somewhere_dropped(self):
        a, b = _unit(port=0), _unit(port=1)
        snaps = [_snap(1, {a: 1, b: 10}), _snap(2, {a: 2})]
        series = CampaignSeries.from_snapshots(snaps)
        assert list(series.series) == [a]

    def test_total_values_option(self):
        a = _unit()
        snaps = [_snap(1, {a: 1}, channel=5)]
        assert CampaignSeries.from_snapshots(snaps, use_total=True).series[a] \
            == [6]

    def test_named_filters_direction(self):
        ingress, egress = _unit(port=0), _unit(port=0, direction=Direction.EGRESS)
        snaps = [_snap(1, {ingress: 1, egress: 2})]
        named = CampaignSeries.from_snapshots(snaps).named(Direction.EGRESS)
        assert list(named) == ["sw0:0"]
        assert named["sw0:0"] == [2.0]

    def test_deltas(self):
        a = _unit()
        snaps = [_snap(1, {a: 10}), _snap(2, {a: 25}), _snap(3, {a: 45})]
        deltas = CampaignSeries.from_snapshots(snaps).deltas()
        assert deltas.series[a] == [15, 20]
        assert deltas.epochs == [2, 3]

    def test_series_order_is_units_order_not_set_order(self):
        # 24 units: a bare set of them iterates in PYTHONHASHSEED order.
        units = [_unit(f"sw{d}", port, direction) for d in range(3)
                 for port in range(4) for direction in Direction]
        snaps = [_snap(epoch, {u: epoch * i
                               for i, u in enumerate(reversed(units))})
                 for epoch in (1, 2)]
        series = CampaignSeries.from_snapshots(snaps)
        assert len(series.series) >= 24
        assert list(series.series) == series.units()
        assert list(series.deltas().series) == series.units()

    def test_deltas_need_two_snapshots(self):
        with pytest.raises(ValueError):
            CampaignSeries.from_snapshots([_snap(1, {_unit(): 1})]).deltas()

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            CampaignSeries.from_snapshots([])
        with pytest.raises(ValueError):
            CampaignSeries.from_snapshots(
                [_snap(1, {_unit(port=0): 1}), _snap(2, {_unit(port=1): 1})])


class TestEpochRecordRoundTrip:
    """The one canonical epoch-record serializer (service satellite).

    ``epoch_record(epoch_from_record(doc)) == doc`` bit-for-bit — the
    delta store, the query API, and batch JSON export all ride on it.
    """

    def _rich_snapshot(self):
        """Exclusions, reasons, missing units, retries, PARTIAL status."""
        present = {_unit(port=0): 5, _unit(port=1): 9,
                   _unit("sw1", 0, Direction.EGRESS): 7}
        missing = {_unit("sw2", 2), _unit("sw2", 2, Direction.EGRESS)}
        snap = GlobalSnapshot(epoch=6, requested_wall_ns=1234,
                              expected_units=set(present) | missing)
        for unit, value in present.items():
            snap.add_record(UnitSnapshotRecord(
                unit=unit, epoch=6, value=value, channel_state=2,
                consistent=(value != 9), captured_ns=600 + value,
                read_ns=700 + value))
        snap.excluded_devices = {"sw2"}
        snap.exclusion_reasons = {"sw2": "silent"}
        snap.status = SnapshotStatus.PARTIAL
        snap.retries = 2
        return snap

    def _canon(self, doc):
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_record_then_rebuild_then_record_is_identity(self):
        doc = epoch_record(self._rich_snapshot())
        assert self._canon(epoch_record(epoch_from_record(doc))) \
            == self._canon(doc)

    def test_rebuild_preserves_semantics(self):
        snap = self._rich_snapshot()
        rebuilt = epoch_from_record(epoch_record(snap))
        assert rebuilt.records == snap.records
        assert rebuilt.expected_units == snap.expected_units
        assert rebuilt.missing_units == snap.missing_units
        assert rebuilt.excluded_devices == snap.excluded_devices
        assert rebuilt.exclusion_reasons == snap.exclusion_reasons
        assert rebuilt.status is snap.status
        assert rebuilt.retries == snap.retries
        assert rebuilt.consistent == snap.consistent
        assert rebuilt.capture_spread_ns == snap.capture_spread_ns

    def test_snapshot_to_json_is_the_same_document(self):
        snap = self._rich_snapshot()
        assert json.loads(snapshot_to_json(snap)) == epoch_record(snap)

    def test_exclusion_reasons_and_rows_deterministically_ordered(self):
        doc = epoch_record(self._rich_snapshot())
        assert list(doc["exclusion_reasons"]) == sorted(
            doc["exclusion_reasons"])
        assert doc["missing_units"] == sorted(doc["missing_units"])
        rows = doc["records"]
        keys = [(r["device"], r["port"], r["direction"]) for r in rows]
        assert keys == sorted(keys)
        assert all("read_ns" in r for r in rows)
