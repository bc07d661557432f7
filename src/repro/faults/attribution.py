"""Per-epoch fault attribution — which fault touched which snapshot.

The injector's audit log records *when* each fault was applied and
reverted; the observer records *how* each snapshot epoch fared.  This
module joins the two: for every epoch it reports the fault spans whose
active interval overlapped the epoch's collection window, alongside the
epoch's outcome (complete / consistent / excluded devices / retries).
The faults experiment surfaces the result so a flagged-inconsistent
epoch can be traced to the link flap or CP crash that caused it instead
of being a bare statistic.

Everything here is pure data-plumbing over already-recorded values — no
RNG, no simulation access — so attribution never perturbs a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Any, Optional

from repro.core.snapshot import GlobalSnapshot
from repro.faults.injector import InjectionRecord


@dataclass(frozen=True)
class FaultSpan:
    """One fault's active interval, reconstructed from the audit log.

    ``end_ns is None`` means the fault was never reverted — it was
    permanent (``duration_ns == 0``) or the run ended first.  Instant
    kinds (e.g. ``clock_step``) appear as zero-length spans.
    """

    kind: str
    target: str
    start_ns: int
    end_ns: Optional[int] = None

    def overlaps(self, window_start_ns: int, window_end_ns: int) -> bool:
        """Does this span intersect ``[window_start_ns, window_end_ns]``?

        Zero-length spans (instant faults) count when they land inside
        the window.
        """
        if self.start_ns > window_end_ns:
            return False
        return self.end_ns is None or self.end_ns >= window_start_ns

    def to_jsonable(self) -> dict[str, Any]:
        return {"kind": self.kind, "target": self.target,
                "start_ns": self.start_ns, "end_ns": self.end_ns}


def spans_from_log(log: Iterable[InjectionRecord]) -> list[FaultSpan]:
    """Pair apply/revert records into :class:`FaultSpan`\\ s.

    Reverts are matched FIFO per ``(kind, target)`` — the injector
    schedules reverts in apply order for a given key, so first-in
    first-out reconstructs the true intervals even when the same fault
    recurs on the same target.
    """
    open_spans: dict[tuple[str, str], list[int]] = {}
    spans: list[FaultSpan] = []
    for record in sorted(log, key=lambda r: r.time_ns):
        key = (record.kind, record.target)
        if record.action == "apply":
            open_spans.setdefault(key, []).append(record.time_ns)
        elif record.action == "revert":
            pending = open_spans.get(key)
            if not pending:
                raise ValueError(
                    f"revert without apply for {record.kind}/{record.target} "
                    f"at t={record.time_ns}")
            spans.append(FaultSpan(kind=record.kind, target=record.target,
                                   start_ns=pending.pop(0),
                                   end_ns=record.time_ns))
        else:
            raise ValueError(f"unknown log action {record.action!r}")
    for (kind, target), starts in open_spans.items():
        for start in starts:
            spans.append(FaultSpan(kind=kind, target=target, start_ns=start))
    spans.sort(key=lambda s: (s.start_ns, s.kind, s.target))
    return spans


@dataclass(frozen=True)
class EpochAttribution:
    """One epoch's outcome joined with the faults that overlapped it."""

    epoch: int
    window_start_ns: int
    window_end_ns: int
    complete: bool
    consistent: bool
    excluded_devices: tuple[str, ...]
    retries: int
    overlapping: tuple[FaultSpan, ...]

    @property
    def faulted(self) -> bool:
        return bool(self.overlapping)

    @property
    def clean(self) -> bool:
        """Completed consistently with nothing excluded."""
        return self.complete and self.consistent and not self.excluded_devices

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "window_start_ns": self.window_start_ns,
            "window_end_ns": self.window_end_ns,
            "complete": self.complete,
            "consistent": self.consistent,
            "excluded_devices": list(self.excluded_devices),
            "retries": self.retries,
            "overlapping": [span.to_jsonable() for span in self.overlapping],
        }


def attribute_epochs(log: Iterable[InjectionRecord],
                     snapshots: Sequence[GlobalSnapshot], *,
                     horizon_ns: int) -> list[EpochAttribution]:
    """Attribute fault spans to snapshot epochs.

    An epoch's collection window runs from its requested wall time to
    the last record read for it (or ``horizon_ns`` when nothing was ever
    read — the epoch waited out the whole run).  A span is attributed
    when its active interval intersects that window: a link that was
    down anywhere inside the window can have delayed, flagged, or
    starved the epoch.
    """
    spans = spans_from_log(log)
    result: list[EpochAttribution] = []
    for snap in sorted(snapshots, key=lambda s: s.epoch):
        start = snap.requested_wall_ns
        last_read = snap.last_read_ns
        end = max(horizon_ns if last_read is None else last_read, start)
        overlapping = tuple(s for s in spans if s.overlaps(start, end))
        result.append(EpochAttribution(
            epoch=snap.epoch, window_start_ns=start, window_end_ns=end,
            complete=snap.complete, consistent=snap.consistent,
            excluded_devices=tuple(sorted(snap.excluded_devices)),
            retries=snap.retries, overlapping=overlapping))
    return result


__all__ = [
    "EpochAttribution",
    "FaultSpan",
    "attribute_epochs",
    "spans_from_log",
]
