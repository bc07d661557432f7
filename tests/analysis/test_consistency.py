"""Tests for the causal-consistency checker."""

import pytest

from repro.analysis.consistency import ConsistencyChecker, ConsistencyViolation
from repro.core.control_plane import UnitSnapshotRecord
from repro.core.ids import IdSpace
from repro.core.snapshot import GlobalSnapshot
from repro.sim.switch import Direction, TraceEvent, UnitId

UNIT = UnitId("sw0", 0, Direction.INGRESS)


def _event(carried, after, t=0, is_data=True, size=100):
    return TraceEvent(packet_uid=t, unit=UNIT, time_ns=t,
                      carried_sid=carried, unit_sid_after=after, channel=0,
                      is_data=is_data, size_bytes=size)


def _snapshot(record):
    snap = GlobalSnapshot(epoch=record.epoch, requested_wall_ns=0,
                          expected_units={record.unit})
    snap.add_record(record)
    return snap


def _record(epoch, value, channel=None, consistent=True):
    return UnitSnapshotRecord(unit=UNIT, epoch=epoch, value=value,
                              channel_state=channel, consistent=consistent,
                              captured_ns=0, read_ns=0)


class TestExpectedValues:
    def test_with_channel_state_counts_pre_epoch_sends(self):
        checker = ConsistencyChecker(IdSpace(None))
        checker.ingest([_event(0, 0, 1), _event(0, 0, 2),  # two pre-1 sends
                        _event(1, 1, 3),                   # the marker
                        _event(0, 1, 4)])                  # in-flight pre-1
        assert checker.expected_with_channel_state(UNIT, 1) == 3
        assert checker.expected_with_channel_state(UNIT, 2) == 4

    def test_without_channel_state_counts_pre_capture_arrivals(self):
        checker = ConsistencyChecker(IdSpace(None))
        checker.ingest([_event(0, 0, 1), _event(1, 1, 2), _event(0, 1, 3)])
        # Only the first arrival happened while the unit's epoch was < 1.
        assert checker.expected_without_channel_state(UNIT, 1) == 1

    def test_non_data_events_ignored(self):
        checker = ConsistencyChecker(IdSpace(None))
        checker.ingest([_event(0, 0, 1, is_data=False), _event(1, 1, 2)])
        assert checker.expected_with_channel_state(UNIT, 1) == 0

    def test_byte_count_metric_uses_sizes(self):
        checker = ConsistencyChecker(IdSpace(None), metric="byte_count")
        checker.ingest([_event(0, 0, 1, size=700), _event(1, 1, 2)])
        assert checker.expected_with_channel_state(UNIT, 1) == 700

    def test_gauge_metric_rejected(self):
        with pytest.raises(ValueError):
            ConsistencyChecker(IdSpace(None), metric="queue_depth")

    def test_unknown_unit_expects_zero(self):
        checker = ConsistencyChecker(IdSpace(None))
        assert checker.expected_with_channel_state(UNIT, 5) == 0


class TestChecks:
    def _checker_with_history(self):
        checker = ConsistencyChecker(IdSpace(None))
        checker.ingest([_event(0, 0, 1), _event(0, 0, 2), _event(1, 1, 3)])
        return checker

    def test_correct_snapshot_passes(self):
        checker = self._checker_with_history()
        checker.check_all([_snapshot(_record(1, value=2, channel=0))],
                          channel_state=True)

    def test_wrong_value_raises(self):
        checker = self._checker_with_history()
        with pytest.raises(ConsistencyViolation):
            checker.check_all([_snapshot(_record(1, value=5, channel=0))],
                              channel_state=True)

    def test_inconsistent_records_exempt(self):
        checker = self._checker_with_history()
        checker.check_all(
            [_snapshot(_record(1, value=99, channel=0, consistent=False))],
            channel_state=True)

    def test_no_channel_state_law(self):
        checker = self._checker_with_history()
        checker.check_all([_snapshot(_record(1, value=2))],
                          channel_state=False)
        with pytest.raises(ConsistencyViolation):
            checker.check_all([_snapshot(_record(1, value=3))],
                              channel_state=False)

    def test_check_all_counts_records(self):
        checker = self._checker_with_history()
        snaps = [_snapshot(_record(1, value=2, channel=0))]
        assert checker.check_all(snaps, channel_state=True) == 1

    def test_marking_precision(self):
        # Marking is conservative: the audit counts a marked record as
        # flagged whether its value is right (2) or wrong (9), and holds
        # neither to the law.
        checker = self._checker_with_history()
        snaps = [_snapshot(_record(1, value=2, channel=0, consistent=False)),
                 _snapshot(_record(1, value=9, channel=0, consistent=False))]
        audit = checker.audit(snaps, channel_state=True)
        assert (audit.records_flagged, audit.records_checked) == (2, 0)
        assert audit.violations == []


class TestWrappedIngestion:
    def test_unwraps_monotonically(self):
        ids = IdSpace(7)
        checker = ConsistencyChecker(ids)
        # The unit advances through 10 epochs, wrapping at 8.
        events = []
        for epoch in range(1, 11):
            events.append(_event(ids.wrap(epoch), ids.wrap(epoch), t=epoch))
        checker.ingest(events)
        # All 10 arrivals carried epochs below 11.
        assert checker.expected_with_channel_state(UNIT, 11) == 10
        assert checker.expected_with_channel_state(UNIT, 5) == 4
