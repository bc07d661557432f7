"""The observer's one-step relay-message intake against its per-record
intake.

``SnapshotObserver.on_aggregate`` takes a relay message's records in one
step when it can (:meth:`GlobalSnapshot.add_records`), and one record at
a time otherwise.  The oracle is the per-record path itself: the same
message sequence fed record by record to ``on_unit_record`` must leave
the same records, statuses, late-record and intake counts, and resolve
the same snapshots in the same order with the same records.
"""

import os
import random

from hypothesis import example, given, settings, strategies as st

from repro.core.aggregation import AggregateMessage
from repro.core.control_plane import UnitSnapshotRecord
from repro.core.ids import IdSpace
from repro.core.observer import SnapshotObserver
from repro.core.snapshot import SnapshotStatus
from repro.sim.engine import Simulator
from repro.sim.mgmt import ManagementPlane
from repro.sim.switch import Direction, UnitId

#: Examples per run (``make intake-diff-deep`` sets
#: ``REPRO_INTAKE_DIFF_EXAMPLES=5000``).
INTAKE_DIFF_EXAMPLES = int(os.environ.get("REPRO_INTAKE_DIFF_EXAMPLES", "60"))

#: Two registered devices, two units each: every snapshot expects four.
EXPECTED = [UnitId(device, 0, direction)
            for device in ("d0", "d1")
            for direction in (Direction.INGRESS, Direction.EGRESS)]
#: A unit no snapshot expects (a device attached after initiation).
STRANGER = UnitId("late", 0, Direction.EGRESS)
POOL = EXPECTED + [STRANGER]
#: Epochs 1-4 start in these dispositions; epoch 5 is never scheduled.
DISPOSITIONS = (SnapshotStatus.PENDING, SnapshotStatus.COMPLETE,
                SnapshotStatus.PARTIAL, SnapshotStatus.ABANDONED)
EPOCHS = st.integers(1, 5)


class _Target:
    def schedule_initiation(self, epoch, at_wall_ns):
        pass


def _record(unit, epoch, value):
    return UnitSnapshotRecord(unit, epoch, value, None, value % 3 != 0,
                              10 * value, 20 * value)


def _observer(dispositions):
    """An observer with one snapshot per entry of ``dispositions`` (epochs
    1, 2, ...), each brought to that status; nothing is ever run."""
    sim = Simulator()
    observer = SnapshotObserver(sim, ManagementPlane(sim, random.Random(0)),
                                IdSpace())
    for device in ("d0", "d1"):
        observer.register_device(
            device, _Target(), [u for u in EXPECTED if u.device == device])
    resolved = []
    observer.on_resolved(lambda s: resolved.append(
        (s.epoch, s.status, list(s.rows()))))
    for status in dispositions:
        epoch = observer.take_snapshot()
        if status is SnapshotStatus.COMPLETE:
            for unit in EXPECTED:
                observer.on_unit_record(_record(unit, epoch, 1))
        elif status is not SnapshotStatus.PENDING:
            snapshot = observer.snapshots[epoch]
            snapshot.add_record(_record(EXPECTED[0], epoch, 2))
            observer._resolve(snapshot, status)
    observer.records_in = 0
    return observer, resolved


@st.composite
def _messages(draw):
    """A relay message: any units of the pool (duplicates and strangers
    included), or every expected unit in some order with a tail after
    the one that completes the snapshot."""
    epoch = draw(EPOCHS)
    loose = st.lists(st.sampled_from(POOL), max_size=7)
    units = draw(st.one_of(loose, st.builds(
        lambda head, tail: head + tail, st.permutations(EXPECTED), loose)))
    values = draw(st.lists(st.integers(0, 50), min_size=len(units),
                           max_size=len(units)))
    return AggregateMessage(
        source="d1", epoch=epoch,
        records=[_record(u, epoch, v) for u, v in zip(units, values)],
        min_finalized=draw(st.integers(0, 5)), complete=draw(st.booleans()))


def _state(observer, resolved):
    return {
        "snapshots": {e: (s.status, list(s.rows()), s.record_count)
                      for e, s in observer.snapshots.items()},
        "late_records": observer.late_records,
        "records_in": observer.records_in,
        "fabric_min_epoch": observer.fabric_min_epoch,
        "resolved": resolved,
    }


class TestBatchIntakeEqualsPerRecordIntake:
    @settings(max_examples=INTAKE_DIFF_EXAMPLES, deadline=None)
    @given(dispositions=st.lists(st.sampled_from(DISPOSITIONS),
                                 min_size=4, max_size=4),
           messages=st.lists(_messages(), max_size=6))
    # The completing record first, then a duplicate of an earlier unit.
    @example(dispositions=list(DISPOSITIONS), messages=[AggregateMessage(
        "d1", 1, [_record(u, 1, i) for i, u in enumerate(
            EXPECTED + EXPECTED[:1])], 0, True)])
    def test_same_records_statuses_counts_and_resolutions(self, dispositions,
                                                          messages):
        batched = _observer(dispositions)
        for message in messages:
            batched[0].on_aggregate(message)
        per_record = _observer(dispositions)
        for message in messages:
            if message.min_finalized > per_record[0].fabric_min_epoch:
                per_record[0].fabric_min_epoch = message.min_finalized
            for record in message.records:
                per_record[0].on_unit_record(record)
        assert _state(*batched) == _state(*per_record)
        assert batched[0].records_in == sum(len(m.records) for m in messages)

    def test_a_message_that_fits_is_taken_in_one_step(self):
        observer, resolved = _observer([SnapshotStatus.PENDING])
        snapshot = observer.snapshots[1]
        calls = []
        observer.on_unit_record = calls.append
        observer.on_aggregate(AggregateMessage(
            "d1", 1, [_record(u, 1, 3) for u in EXPECTED[:2]], 0, False))
        observer.on_aggregate(AggregateMessage(
            "d1", 1, [_record(u, 1, 4) for u in EXPECTED[2:]], 0, True))
        assert calls == []
        assert snapshot.status is SnapshotStatus.COMPLETE
        assert [row[0] for row in snapshot.rows()] == EXPECTED
        assert observer.records_in == 4 and len(resolved) == 1
