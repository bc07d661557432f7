"""Snapshot export.

Turns :class:`~repro.core.snapshot.GlobalSnapshot` objects into plain
rows/dicts (for JSON/CSV export or ad-hoc analysis) and back.
"""

from __future__ import annotations

import functools
from operator import itemgetter

from repro.core.control_plane import UnitSnapshotRecord
from repro.core.snapshot import GlobalSnapshot, SnapshotStatus
from repro.sim.switch import UnitId, parse_unit_key


def snapshot_rows(snapshot: GlobalSnapshot) -> list[dict[str, object]]:
    """One flat dict per unit record, in unit order; a frozen snapshot's
    rows come straight from its columns."""
    epoch = snapshot.epoch
    return [{
        "epoch": epoch,
        "device": device,
        "port": port,
        "direction": direction,
        "value": value,
        "channel_state": channel_state,
        "total": value if channel_state is None else value + channel_state,
        "consistent": consistent,
        "captured_ns": captured_ns,
        "read_ns": read_ns,
    } for (device, port, direction), value, channel_state, consistent,
        captured_ns, read_ns in sorted(snapshot.rows(), key=itemgetter(0))]


@functools.lru_cache(maxsize=4096)
def _unit(device: str, port: int, direction: str) -> UnitId:
    """A decoded row's unit, cached: a fabric's units are fixed at deploy
    time, so a hit spares the tuple build per row and shares one
    :class:`UnitId` per unit; a dropped one is rebuilt."""
    return UnitId(device, port, direction)


def epoch_record(snapshot: GlobalSnapshot) -> dict[str, object]:
    """*The* JSON-stable epoch-record shape.

    Every exporter — batch reports, the
    service-mode delta store and its query API — serializes epochs
    through this one function, so ``exclusion_reasons`` and per-unit
    records round-trip identically everywhere.  The document is pure
    JSON types with deterministic ordering, and
    :func:`epoch_from_record` inverts it exactly:
    ``epoch_record(epoch_from_record(doc)) == doc``.
    """
    return {
        "epoch": snapshot.epoch,
        "status": snapshot.status.value,
        "retries": snapshot.retries,
        "consistent": snapshot.consistent,
        "requested_wall_ns": snapshot.requested_wall_ns,
        "capture_spread_ns": snapshot.capture_spread_ns,
        "excluded_devices": sorted(snapshot.excluded_devices),
        "exclusion_reasons": {d: snapshot.exclusion_reasons[d]
                              for d in sorted(snapshot.exclusion_reasons)},
        "missing_units": sorted(map(str, snapshot.missing_units)),
        "records": snapshot_rows(snapshot),
    }


def epoch_from_record(doc: dict[str, object]) -> GlobalSnapshot:
    """Rebuild a :class:`GlobalSnapshot` from its :func:`epoch_record`
    document (the derived fields — ``consistent``,
    ``capture_spread_ns`` — are recomputed from the records, not
    trusted from the document; row fields are taken as they are)."""
    epoch = int(doc["epoch"])  # type: ignore[arg-type]
    records: dict[UnitId, UnitSnapshotRecord] = {}
    for row in doc["records"]:  # type: ignore[union-attr]
        unit = _unit(row["device"], row["port"], row["direction"])
        records[unit] = UnitSnapshotRecord(
            unit, epoch, row["value"], row["channel_state"],
            row["consistent"], row["captured_ns"], row["read_ns"])
    missing = {_unit(*parse_unit_key(name))
               for name in doc["missing_units"]}  # type: ignore[union-attr]
    return GlobalSnapshot(
        epoch=epoch,
        requested_wall_ns=int(doc["requested_wall_ns"]),  # type: ignore[arg-type]
        expected_units=set(records) | missing,
        records=records,
        excluded_devices=set(doc["excluded_devices"]),  # type: ignore[arg-type]
        exclusion_reasons=dict(doc["exclusion_reasons"]),  # type: ignore[arg-type]
        status=SnapshotStatus(doc["status"]),
        retries=int(doc["retries"]))  # type: ignore[arg-type]
