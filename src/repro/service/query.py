"""Queries over stored snapshot history.

The §8 management applications — "is the network losing packets?",
"who is the heavy hitter right now?" — as an API over the service's
delta store.  Every query decodes epoch documents through the one
canonical serializer (:func:`repro.analysis.report.epoch_from_record`),
so answers are computed on exactly the records batch reports would
show.  Only :meth:`QueryEngine.range` hands documents out, so only it
asks the store for copies; the other queries read the store's own rows
(:meth:`repro.service.store.EpochStore.views`).

Conservation checks reuse the existing analysis layer: per-flow cut
conservation via :class:`repro.analysis.consistency.ConsistencyChecker`
when the run traced its data plane, and the topology-driven per-link
non-negativity audit (:class:`repro.analysis.invariants.LinkAudit`)
which needs only the snapshots themselves.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Callable, Optional

from repro.analysis.consistency import ConsistencyChecker
from repro.analysis.invariants import LinkAudit
from repro.analysis.report import epoch_from_record
from repro.core.snapshot import GlobalSnapshot
from repro.service.store import EpochDoc, EpochStore

#: Resolves one device name to live heavy-flow evidence:
#: ``(unit name, flow 5-tuple string, estimated packets)`` triples.
FlowResolver = Callable[[str], list[tuple[str, str, int]]]


def _by_epoch(docs: Iterator[EpochDoc]) -> list[EpochDoc]:
    return sorted(docs, key=lambda d: d["epoch"])  # type: ignore[arg-type,return-value]


class QueryEngine:
    """Answers epoch-range, conservation, and heavy-hitter queries."""

    def __init__(self, store: EpochStore,
                 link_audit: Optional[LinkAudit] = None,
                 checker: Optional[ConsistencyChecker] = None,
                 channel_state: bool = False,
                 flow_resolver: Optional[FlowResolver] = None) -> None:
        self.store = store
        self.link_audit = link_audit
        self.checker = checker
        self.channel_state = channel_state
        self.flow_resolver = flow_resolver

    # ------------------------------------------------------------------
    # Epoch range scans
    # ------------------------------------------------------------------
    def epochs(self) -> list[int]:
        return self.store.epochs()

    def range(self, start: Optional[int] = None,
              end: Optional[int] = None) -> list[EpochDoc]:
        """Stored documents with ``start <= epoch <= end``, by epoch."""
        return _by_epoch(self.store.scan(start=start, end=end))

    def snapshot(self, epoch: int) -> Optional[GlobalSnapshot]:
        """One epoch rebuilt as a :class:`GlobalSnapshot`."""
        doc = self.store.view(epoch)
        return None if doc is None else epoch_from_record(doc)

    # ------------------------------------------------------------------
    # Conservation
    # ------------------------------------------------------------------
    def conservation(self, start: Optional[int] = None,
                     end: Optional[int] = None) -> dict[str, object]:
        """Audit stored history against the conservation laws.

        Uses the per-flow trace checker when one is wired, else the
        per-link audit.  Only snapshots claiming consistency are held
        to the law (that is the inconsistent flag's purpose); the rest
        are counted as skipped.
        """
        if self.checker is None and self.link_audit is None:
            raise ValueError("conservation queries need a "
                             "ConsistencyChecker or a LinkAudit")
        checked = 0
        skipped = 0
        violations: dict[int, list[str]] = {}
        for doc in _by_epoch(self.store.views(start=start, end=end)):
            snapshot = epoch_from_record(doc)
            if not snapshot.record_count or not snapshot.consistent:
                skipped += 1
                continue
            checked += 1
            found: list[str] = []
            if self.checker is not None:
                found.extend(self.checker.violations_of(
                    snapshot, self.channel_state))
            if self.link_audit is not None:
                for report in self.link_audit.violations(snapshot):
                    found.append(
                        f"link {report.sender} -> {report.receiver}: "
                        f"received {report.received} > sent {report.sent}")
            if found:
                violations[snapshot.epoch] = found
        return {
            "checked": checked,
            "skipped": skipped,
            "violating_epochs": sorted(violations),
            "violations": {e: violations[e] for e in sorted(violations)},
        }

    # ------------------------------------------------------------------
    # Heavy-hitter drilldown
    # ------------------------------------------------------------------
    def heavy_hitters(self, epoch: Optional[int] = None,
                      top: int = 5) -> dict[str, object]:
        """The ``top`` heaviest units of one epoch (default: the largest).

        Stored records locate the load — which switch, port, and
        direction carry the heaviest flow estimates.  When a live
        :attr:`flow_resolver` is wired (serve mode over the
        ``heavy_hitter`` metric), each top device is drilled down to
        the actual flow 5-tuple its count-min sketch pins the load on.
        """
        if epoch is None:
            epoch = self.store.max_epoch
        if epoch is None:
            return {"epoch": None, "units": [], "flows": []}
        doc = self.store.view(epoch)
        if doc is None:
            return {"epoch": epoch, "units": [], "flows": []}
        rows = sorted(
            doc["records"],  # type: ignore[arg-type]
            key=lambda r: (-int(r["value"]), r["device"],  # type: ignore[index]
                           int(r["port"]), r["direction"]))  # type: ignore[index]
        units = [{
            "device": row["device"],
            "port": row["port"],
            "direction": row["direction"],
            "value": row["value"],
        } for row in rows[:top] if int(row["value"]) > 0]  # type: ignore[arg-type]
        flows: list[dict[str, object]] = []
        if self.flow_resolver is not None:
            for device in sorted({str(u["device"]) for u in units}):
                for unit_name, flow, estimate in self.flow_resolver(device):
                    flows.append({"unit": unit_name, "flow": flow,
                                  "estimate": estimate})
            flows.sort(key=lambda f: (-int(f["estimate"]),  # type: ignore[arg-type]
                                      str(f["unit"])))
        return {"epoch": epoch, "units": units, "flows": flows}

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """Store span + counters, the serve mode's status answer."""
        merged = 0
        usable = 0
        total = 0
        for doc in self.store.scan_meta():
            total += 1
            merged += int(doc.get("merged_epochs", 0))  # type: ignore[arg-type]
            if doc["status"] == "complete" and doc["consistent"]:
                usable += 1
        out: dict[str, object] = {
            "epochs_stored": total,
            "min_epoch": self.store.min_epoch,
            "max_epoch": self.store.max_epoch,
            "usable_epochs": usable,
            "merged_epochs": merged,
        }
        out.update(self.store.stats())
        return out
