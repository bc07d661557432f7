"""Global snapshot assembly.

The observer receives per-unit :class:`UnitSnapshotRecord` objects from
device control planes and assembles them into
:class:`GlobalSnapshot` objects — "a set of local measurements that
together provide a coherent image of the entire network data plane at
nearly a single point in time" (§1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.control_plane import UnitSnapshotRecord
from repro.sim.switch import Direction, UnitId


class SnapshotStatus(enum.Enum):
    """Lifecycle of a global snapshot at the observer."""

    PENDING = "pending"        # initiated, records still arriving
    COMPLETE = "complete"      # every expected unit reported
    PARTIAL = "partial"        # timed out with some units missing
    ABANDONED = "abandoned"    # evicted to preserve the no-lapping window


@dataclass
class GlobalSnapshot:
    """All per-unit records for one snapshot epoch."""

    epoch: int
    requested_wall_ns: int
    expected_units: set[UnitId]
    records: dict[UnitId, UnitSnapshotRecord] = field(default_factory=dict)
    excluded_devices: set[str] = field(default_factory=set)
    #: device -> why it was excluded: ``"silent"`` for a device that
    #: never reported, ``"relay:<name>"`` when its records were lost
    #: behind a silent aggregation-tree ancestor (the attribution the
    #: observer computes at timeout; see repro.core.aggregation).
    exclusion_reasons: dict[str, str] = field(default_factory=dict)
    status: SnapshotStatus = SnapshotStatus.PENDING
    retries: int = 0

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def add_record(self, record: UnitSnapshotRecord) -> bool:
        """Incorporate one unit record; returns True if it was expected."""
        if record.unit not in self.expected_units:
            return False  # spurious completion (e.g. a just-attached node)
        self.records[record.unit] = record
        return True

    def exclude_device(self, device: str, reason: str = "silent") -> None:
        """Drop a failed device from the snapshot (observer timeout, §6)."""
        self.excluded_devices.add(device)
        self.exclusion_reasons[device] = reason
        self.expected_units = {u for u in self.expected_units
                               if u.device != device}
        self.records = {u: r for u, r in self.records.items()
                        if u.device != device}

    @property
    def missing_units(self) -> set[UnitId]:
        # ``records`` holds expected units only (see ``complete``).
        if len(self.records) >= len(self.expected_units):
            return set()
        return self.expected_units - set(self.records)

    @property
    def complete(self) -> bool:
        # ``records`` only ever holds expected units (``add_record``
        # rejects others, ``exclude_device`` filters both), so a length
        # check avoids rebuilding a UnitId set per arriving record — a
        # top-ten hotspot in notification-heavy trials.  A snapshot left
        # with no records (every device excluded) is not complete.
        records = self.records
        return len(records) >= len(self.expected_units) and bool(records)

    @property
    def consistent(self) -> bool:
        """True when every reported record is marked consistent — only
        then do the values form a causally consistent cut."""
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
        if not self.records:
            return 0
        times = [r.captured_ns for r in self.records.values()]
        return max(times) - min(times)

    def total_value(self, include_channel_state: bool = True) -> int:
        """Sum of all unit values (network-wide total for accumulator
        metrics such as packet counts)."""
        if include_channel_state:
            return sum(r.total_value for r in self.records.values())
        return sum(r.value for r in self.records.values())

    def value_of(self, device: str, port: int, direction: Direction) -> int:
        record = self.records[UnitId(device, port, direction)]
        return record.value

    def values_by_unit(self) -> dict[UnitId, int]:
        return {u: r.value for u, r in self.records.items()}

    def device_records(self, device: str) -> list[UnitSnapshotRecord]:
        return [r for u, r in sorted(self.records.items(),
                                     key=lambda kv: (kv[0].device, kv[0].port,
                                                     kv[0].direction.value))
                if u.device == device]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GlobalSnapshot(epoch={self.epoch}, {self.status.value}, "
                f"{len(self.records)}/{len(self.expected_units)} records, "
                f"consistent={self.consistent})")
