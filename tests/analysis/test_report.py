"""Tests for snapshot export."""

import json

import pytest

from repro.analysis.report import (epoch_from_record, epoch_record,
                                   snapshot_rows)
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
        doc = json.loads(json.dumps(epoch_record(snap)))
        assert doc["epoch"] == 2
        assert doc["records"][0]["total"] == 13
        assert doc["consistent"] is True


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

    def test_exclusion_reasons_and_rows_deterministically_ordered(self):
        doc = epoch_record(self._rich_snapshot())
        assert list(doc["exclusion_reasons"]) == sorted(
            doc["exclusion_reasons"])
        assert doc["missing_units"] == sorted(doc["missing_units"])
        rows = doc["records"]
        keys = [(r["device"], r["port"], r["direction"]) for r in rows]
        assert keys == sorted(keys)
        assert all("read_ns" in r for r in rows)
