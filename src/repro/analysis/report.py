"""Snapshot export, campaign time-series assembly, and trial-row tables.

Turns :class:`~repro.core.snapshot.GlobalSnapshot` objects into plain
rows/dicts (for JSON/CSV export or ad-hoc analysis), assembles
campaigns into per-unit time series — the input shape for the
correlation and balance analyses — and renders
:class:`~repro.runtime.result.TrialResult` batches as flat rows for the
CLI's suite summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Optional

from repro.core.control_plane import UnitSnapshotRecord
from repro.core.snapshot import GlobalSnapshot, SnapshotStatus
from repro.runtime.result import TrialResult
from repro.sim.switch import Direction, UnitId


def snapshot_rows(snapshot: GlobalSnapshot) -> list[dict[str, object]]:
    """One flat dict per unit record (stable ordering)."""
    rows = []
    for unit, record in sorted(snapshot.records.items(),
                               key=lambda kv: (kv[0].device, kv[0].port,
                                               kv[0].direction.value)):
        rows.append({
            "epoch": snapshot.epoch,
            "device": unit.device,
            "port": unit.port,
            "direction": unit.direction.value,
            "value": record.value,
            "channel_state": record.channel_state,
            "total": record.total_value,
            "consistent": record.consistent,
            "captured_ns": record.captured_ns,
            "read_ns": record.read_ns,
        })
    return rows


def _unit_name(unit: UnitId) -> str:
    return f"{unit.device}:{unit.port}:{unit.direction.value}"


def _parse_unit(name: str) -> UnitId:
    device, port, direction = name.rsplit(":", 2)
    return UnitId(device, int(port), Direction(direction))


def epoch_record(snapshot: GlobalSnapshot) -> dict[str, object]:
    """*The* JSON-stable epoch-record shape.

    Every exporter — batch reports, :func:`snapshot_to_json`, the
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
        "missing_units": sorted(_unit_name(u)
                                for u in snapshot.missing_units),
        "records": snapshot_rows(snapshot),
    }


def epoch_from_record(doc: dict[str, object]) -> GlobalSnapshot:
    """Rebuild a :class:`GlobalSnapshot` from its :func:`epoch_record`
    document (the derived fields — ``consistent``,
    ``capture_spread_ns`` — are recomputed from the records, not
    trusted from the document)."""
    epoch = int(doc["epoch"])  # type: ignore[arg-type]
    records: dict[UnitId, UnitSnapshotRecord] = {}
    for row in doc["records"]:  # type: ignore[union-attr]
        unit = UnitId(row["device"], int(row["port"]),
                      Direction(row["direction"]))
        records[unit] = UnitSnapshotRecord(
            unit=unit, epoch=epoch, value=int(row["value"]),
            channel_state=(None if row["channel_state"] is None
                           else int(row["channel_state"])),
            consistent=bool(row["consistent"]),
            captured_ns=int(row["captured_ns"]),
            read_ns=int(row["read_ns"]))
    missing = {_parse_unit(name)
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


def snapshot_to_json(snapshot: GlobalSnapshot, indent: Optional[int] = None) -> str:
    """A self-describing JSON document for one snapshot."""
    return json.dumps(epoch_record(snapshot), indent=indent)


def _unit_order(unit: UnitId) -> tuple[str, int, str]:
    return (unit.device, unit.port, unit.direction.value)


@dataclass
class CampaignSeries:
    """Per-unit time series across a snapshot campaign.

    Only units present in *every* snapshot are included, so all series
    have equal length (ragged series break rank-correlation analyses).
    """

    epochs: list[int]
    series: dict[UnitId, list[int]]

    @classmethod
    def from_snapshots(cls, snapshots: Sequence[GlobalSnapshot],
                       use_total: bool = False) -> "CampaignSeries":
        snaps = [s for s in snapshots if s.records]
        if not snaps:
            raise ValueError("no snapshots with records")
        common = set(snaps[0].records)
        for snap in snaps[1:]:
            common &= set(snap.records)
        if not common:
            raise ValueError("snapshots share no units")
        # ``series`` is public and ``deltas()`` inherits its order: build
        # it in ``units()`` order, not the set's hash-seed order.
        series: dict[UnitId, list[int]] = {
            u: [] for u in sorted(common, key=_unit_order)}
        for snap in snaps:
            for unit, values in series.items():
                record = snap.records[unit]
                values.append(record.total_value if use_total
                              else record.value)
        return cls(epochs=[s.epoch for s in snaps], series=series)

    def __len__(self) -> int:
        return len(self.epochs)

    def units(self) -> list[UnitId]:
        return sorted(self.series, key=_unit_order)

    def named(self, direction: Optional[Direction] = None) -> dict[str, list[float]]:
        """Series keyed by "device:port" strings (the spearman_matrix
        input shape), optionally filtered to one direction."""
        out: dict[str, list[float]] = {}
        for unit in self.units():
            if direction is not None and unit.direction is not direction:
                continue
            out[f"{unit.device}:{unit.port}"] = [float(v)
                                                 for v in self.series[unit]]
        return out

    def deltas(self) -> "CampaignSeries":
        """Per-interval differences (cumulative counters → rates)."""
        if len(self.epochs) < 2:
            raise ValueError("need at least two snapshots for deltas")
        return CampaignSeries(
            epochs=self.epochs[1:],
            series={u: [b - a for a, b in zip(vals, vals[1:])]
                    for u, vals in self.series.items()})


# ----------------------------------------------------------------------
# Trial-result rows (the CLI's suite summary)
# ----------------------------------------------------------------------

def trial_rows(results: Sequence[TrialResult]) -> list[dict[str, object]]:
    """One flat dict per trial, suitable for JSON/CSV export."""
    return [{
        "label": r.label or r.kind,
        "kind": r.kind,
        "seed": r.seed,
        "fingerprint": r.fingerprint,
        "params": dict(r.params),
    } for r in results]


def render_trial_rows(results: Sequence[TrialResult]) -> str:
    """A fixed-width table of executed trials (label, kind, id)."""
    rows = trial_rows(results)
    if not rows:
        return "(no trials)"
    label_w = max(len(str(row["label"])) for row in rows)
    kind_w = max(len(str(row["kind"])) for row in rows)
    lines = [f"{'trial':<{label_w}}  {'kind':<{kind_w}}  id"]
    for row in rows:
        lines.append(f"{row['label']:<{label_w}}  {row['kind']:<{kind_w}}  "
                     f"{str(row['fingerprint'])[:12]}")
    return "\n".join(lines)
