"""Global snapshot assembly.

The observer receives per-unit :class:`UnitSnapshotRecord` objects from
device control planes and assembles them into
:class:`GlobalSnapshot` objects — "a set of local measurements that
together provide a coherent image of the entire network data plane at
nearly a single point in time" (§1).

A resolved snapshot is final and *frozen*: its per-unit records
collapse into a few int64 columns (:class:`UnitColumns`) over the
observer's :class:`UnitTable`, about a seventh of what the record
objects cost, and neither mutator accepts it any more.  Every reader
here answers from the columns; ``records`` stays as a compatibility
view that a resolved snapshot rebuilds on each access.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import attrgetter
from typing import Optional, Union

from repro.core.control_plane import UnitSnapshotRecord
from repro.sim.switch import UnitId

#: One unit's row: ``(unit, value, channel_state, consistent,
#: captured_ns, read_ns)``.
UnitRow = tuple[UnitId, int, Optional[int], bool, int, int]

_unit_of = attrgetter("unit")


class SnapshotStatus(enum.Enum):
    """Lifecycle of a global snapshot at the observer."""

    PENDING = "pending"        # initiated, records still arriving
    COMPLETE = "complete"      # every expected unit reported
    PARTIAL = "partial"        # timed out with some units missing
    ABANDONED = "abandoned"    # evicted to preserve the no-lapping window


class UnitTable:
    """Numbers units once, in the order they are first seen; a number
    never changes and is never reused (removed devices keep theirs)."""

    __slots__ = ("units", "numbers")

    def __init__(self) -> None:
        self.units: list[UnitId] = []
        self.numbers: dict[UnitId, int] = {}

    def extend(self, units: Iterable[UnitId]) -> None:
        """Number each unit not yet numbered, in the order given."""
        numbers, listed = self.numbers, self.units
        for unit in units:
            fresh = len(listed)
            if numbers.setdefault(unit, fresh) == fresh:
                listed.append(unit)

    def __len__(self) -> int:
        return len(self.units)


class UnitColumns:
    """A resolved snapshot's records as columns, in the records' order.

    ``unit`` holds :class:`UnitTable` numbers; ``value``, ``captured_ns``
    and ``read_ns`` are int64 arrays; ``consistent`` is one byte per
    record; ``channel_state`` is None when every record's is None, an
    int64 array when none is, and a tuple otherwise.
    """

    __slots__ = ("table", "unit", "value", "channel_state", "consistent",
                 "captured_ns", "read_ns")

    def __init__(self, epoch: int, records: dict[UnitId, UnitSnapshotRecord],
                 table: UnitTable) -> None:
        self.table = table
        listed = list(records.values())
        table.extend(records)
        self.unit = array("H" if len(table) <= 1 << 16 else "I",
                          map(table.numbers.__getitem__, records))
        self.consistent = bytes([r.consistent for r in listed])
        states = [r.channel_state for r in listed]
        nones = states.count(None)
        self.channel_state: Union[None, array[int], tuple[Optional[int], ...]]
        try:
            self.value = array("q", [r.value for r in listed])
            self.captured_ns = array("q", [r.captured_ns for r in listed])
            self.read_ns = array("q", [r.read_ns for r in listed])
            self.channel_state = (None if nones == len(states)
                                  else array("q", states) if nones == 0
                                  else tuple(states))
        except (OverflowError, TypeError) as error:
            raise _unfit(epoch, listed, error) from error

    def __len__(self) -> int:
        return len(self.unit)

    def units(self) -> list[UnitId]:
        return list(map(self.table.units.__getitem__, self.unit))

    def rows(self) -> Iterator[UnitRow]:
        states: Iterable[Optional[int]] = (
            repeat(None) if self.channel_state is None else self.channel_state)
        return zip(self.units(), self.value, states,
                   map(bool, self.consistent), self.captured_ns, self.read_ns)

    def records(self, epoch: int) -> dict[UnitId, UnitSnapshotRecord]:
        return {unit: UnitSnapshotRecord(unit, epoch, value, state, consistent,
                                         captured_ns, read_ns)
                for unit, value, state, consistent, captured_ns, read_ns
                in self.rows()}


def _unfit(epoch: int, records: list[UnitSnapshotRecord],
           error: Exception) -> Exception:
    """Name the epoch, unit and field that do not fit an int64 column."""
    for record in records:
        for name in ("value", "captured_ns", "read_ns", "channel_state"):
            field = getattr(record, name)
            if field is None and name == "channel_state":
                continue
            try:
                array("q", [field])
            except (OverflowError, TypeError):
                return type(error)(
                    f"epoch {epoch}, unit {record.unit}: {name} {field!r} "
                    "does not fit an int64 column")
    return error  # pragma: no cover - the bulk build failed, so one row does


class GlobalSnapshot:
    """All per-unit records for one snapshot epoch."""

    __slots__ = ("epoch", "requested_wall_ns", "expected_units", "_records",
                 "_columns", "excluded_devices", "exclusion_reasons",
                 "status", "retries")

    def __init__(self, epoch: int, requested_wall_ns: int,
                 expected_units: set[UnitId],
                 records: Optional[dict[UnitId, UnitSnapshotRecord]] = None,
                 excluded_devices: Optional[set[str]] = None,
                 exclusion_reasons: Optional[dict[str, str]] = None,
                 status: SnapshotStatus = SnapshotStatus.PENDING,
                 retries: int = 0) -> None:
        self.epoch = epoch
        self.requested_wall_ns = requested_wall_ns
        self.expected_units = expected_units
        #: The records while they can change; None once frozen.
        self._records: Optional[dict[UnitId, UnitSnapshotRecord]] = (
            {} if records is None else records)
        self._columns: Optional[UnitColumns] = None
        self.excluded_devices: set[str] = (
            set() if excluded_devices is None else excluded_devices)
        #: device -> why it was excluded: ``"silent"`` for a device that
        #: never reported, ``"relay:<name>"`` when its records were lost
        #: behind a silent aggregation-tree ancestor (the attribution the
        #: observer computes at timeout; see repro.core.aggregation).
        self.exclusion_reasons: dict[str, str] = (
            {} if exclusion_reasons is None else exclusion_reasons)
        self.status = status
        self.retries = retries

    # ------------------------------------------------------------------
    # Records: a dict while assembling, columns once frozen
    # ------------------------------------------------------------------
    @property
    def records(self) -> dict[UnitId, UnitSnapshotRecord]:
        """Unit -> record, in arrival order.  A frozen snapshot rebuilds
        the mapping on each access, so mutating it changes nothing."""
        records = self._records
        if records is None:
            assert self._columns is not None
            return self._columns.records(self.epoch)
        return records

    @property
    def frozen(self) -> bool:
        return self._records is None

    def freeze(self, table: UnitTable) -> None:
        """Keep the records as columns over ``table`` (the observer does
        this once a resolved snapshot's callbacks have run).  Every
        record's epoch is the snapshot's: the observer files each record
        under its own epoch."""
        records = self._records
        if records is not None:
            self._columns = UnitColumns(self.epoch, records, table)
            self._records = None

    def rows(self) -> Iterator[UnitRow]:
        """One :data:`UnitRow` per record, in ``records`` order, without
        building records for a frozen snapshot."""
        columns = self._columns
        if columns is not None:
            return columns.rows()
        return ((u, r.value, r.channel_state, r.consistent, r.captured_ns,
                 r.read_ns) for u, r in self.records.items())

    @property
    def record_count(self) -> int:
        columns = self._columns
        return len(self.records) if columns is None else len(columns)

    def _times(self, field: str) -> Sequence[int]:
        """One int field (``captured_ns`` or ``read_ns``) of every record."""
        columns = self._columns
        if columns is not None:
            return getattr(columns, field)
        return list(map(attrgetter(field), self.records.values()))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _live(self) -> dict[UnitId, UnitSnapshotRecord]:
        """The records, while the snapshot can still change."""
        if self._records is None:
            raise RuntimeError(f"snapshot {self.epoch} is resolved and final; "
                               "its records cannot change")
        return self._records

    def add_record(self, record: UnitSnapshotRecord) -> bool:
        """Incorporate one unit record; returns True if it was expected.
        Raises on a frozen snapshot."""
        records = self._live()
        if record.unit not in self.expected_units:
            return False  # spurious completion (e.g. a just-attached node)
        records[record.unit] = record
        return True

    def add_records(self, records: Sequence[UnitSnapshotRecord]) -> bool:
        """Incorporate ``records`` in one step, as :meth:`add_record` one
        at a time would; or change nothing and return False when that
        could differ: a unit not expected, or more records than units
        still missing (a record past the completing one would be late).
        Raises on a frozen snapshot."""
        records_now, expected = self._live(), self.expected_units
        if len(records_now) + len(records) > len(expected):
            return False
        batch = dict(zip(map(_unit_of, records), records))
        if not expected.issuperset(batch):
            return False
        records_now.update(batch)
        return True

    def exclude_device(self, device: str, reason: str = "silent") -> None:
        """Drop a failed device from the snapshot (observer timeout, §6).
        Raises on a frozen snapshot."""
        records = self._live()
        self.excluded_devices.add(device)
        self.exclusion_reasons[device] = reason
        self.expected_units = {u for u in self.expected_units
                               if u.device != device}
        self._records = {u: r for u, r in records.items()
                         if u.device != device}

    @property
    def missing_units(self) -> set[UnitId]:
        # ``records`` holds expected units only (see ``complete``).
        if self.record_count >= len(self.expected_units):
            return set()
        columns = self._columns
        return self.expected_units - set(
            self.records if columns is None else columns.units())

    @property
    def complete(self) -> bool:
        # ``records`` only ever holds expected units (``add_record``
        # rejects others, ``exclude_device`` filters both), so a count
        # will do.  A snapshot left with no records (every device
        # excluded) is not complete.
        records = self._records
        count = len(records if records is not None
                    else self._columns)  # type: ignore[arg-type]
        return count >= len(self.expected_units) and count > 0

    @property
    def consistent(self) -> bool:
        """True when every reported record is marked consistent — only
        then do the values form a causally consistent cut."""
        columns = self._columns
        if columns is not None:
            return 0 not in columns.consistent
        return all(r.consistent for r in self.records.values())

    @property
    def usable(self) -> bool:
        return self.complete and self.consistent and not self.excluded_devices

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    @property
    def capture_spread_ns(self) -> int:
        """Max minus min data-plane capture timestamp across records —
        the realized synchronization of this snapshot."""
        times = self._times("captured_ns")
        return max(times) - min(times) if times else 0

    @property
    def last_read_ns(self) -> Optional[int]:
        """When the last record was read by its control plane; None
        before any record arrived."""
        reads = self._times("read_ns")
        return max(reads) if reads else None

    @property
    def capture_to_read_ns(self) -> int:
        """First data-plane capture to last control-plane read: the time
        the snapshot took to collect (0 without records)."""
        last = self.last_read_ns
        return 0 if last is None else last - min(self._times("captured_ns"))

    def total_value(self, include_channel_state: bool = True) -> int:
        """Sum of all unit values (network-wide total for accumulator
        metrics such as packet counts)."""
        return sum(value + (state or 0) if include_channel_state else value
                   for _unit, value, state, *_ in self.rows())

    def totals_of(self, units: Iterable[UnitId]) -> list[Optional[int]]:
        """Each unit's value plus channel state, in the order given; None
        for a unit the snapshot holds no record of."""
        columns = self._columns
        if columns is not None:
            states = columns.channel_state
            totals = (columns.value if states is None else
                      [v + (s or 0) for v, s in zip(columns.value, states)])
            by_number = dict(zip(columns.unit, totals))
            return list(map(by_number.get, map(columns.table.numbers.get, units)))
        return [None if r is None else r.value + (r.channel_state or 0)
                for r in map(self.records.get, units)]

    def value_of(self, device: str, port: int, direction: str) -> int:
        unit = UnitId(device, port, direction)
        columns = self._columns
        if columns is None:
            return self.records[unit].value
        try:
            return columns.value[columns.unit.index(columns.table.numbers[unit])]
        except ValueError:  # numbered, but not in this snapshot
            raise KeyError(unit) from None

    def device_records(self, device: str) -> list[UnitSnapshotRecord]:
        records = self.records
        return [records[u] for u in sorted(records) if u.device == device]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GlobalSnapshot(epoch={self.epoch}, {self.status.value}, "
                f"{self.record_count}/{len(self.expected_units)} records, "
                f"consistent={self.consistent})")
