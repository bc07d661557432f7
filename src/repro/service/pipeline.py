"""The continuous snapshot pipeline: ticker → stream → store.

Glues the intake stream to the delta store with an explicitly modeled,
explicitly *bounded* ingest path:

* a :class:`ContinuousCampaign` ticker keeps one snapshot in flight per
  ``interval_ns`` forever (each tick schedules the next, so the horizon
  is open-ended — no pre-scheduled campaign array);
* resolved epochs queue at the ingest server, which serializes them one
  at a time at a modeled cost (base + per-record), the same
  :class:`~repro.sim.server.SerialServer` as the relay and CPU queues;
* when the queue is full the pipeline **coalesces** instead of growing:
  the newest waiting epoch is merged into the arriving one (the metrics
  are cumulative counters, so the newer snapshot subsumes the older
  view) and the loss is counted, per epoch and in aggregate, as
  ``merged_epochs`` on the stored document.

Nothing here reads a wall clock — throughput measurement lives in
:mod:`repro.runtime.streaming`, which is allowed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.report import epoch_record
from repro.core.observer import SnapshotObserver
from repro.core.snapshot import GlobalSnapshot
from repro.service.store import EpochStore, StoreConfig
from repro.service.stream import SnapshotStream
from repro.sim.engine import Simulator, US, check_minimums
from repro.sim.server import SerialServer

#: Serial ingest cost per epoch: encode + index + store bookkeeping.
INGEST_SERVICE_NS = 120 * US
#: Marginal ingest cost per unit record, on top of
#: ``INGEST_SERVICE_NS`` per epoch.
INGEST_PER_RECORD_NS = 2 * US


@dataclass
class PipelineConfig:
    """Sizing and cost model of the service pipeline."""

    #: Epochs retained by the store ring.
    retention: int = 1024
    #: Store keyframe cadence (entries between full documents).
    keyframe_interval: int = 64
    #: Ingest queue bound, the epoch in service included (so >= 2);
    #: arrivals past it coalesce into the newest waiting one, never queue.
    queue_capacity: int = 64

    def __post_init__(self) -> None:
        check_minimums(self, {"retention": 1, "keyframe_interval": 1,
                              "queue_capacity": 2})


class SnapshotPipeline(SerialServer[list]):
    """Continuous epoch intake with backpressure, feeding a delta store;
    the ingest server's items are ``[snapshot, merged_count]``."""

    def __init__(self, sim: Simulator, observer: SnapshotObserver,
                 config: Optional[PipelineConfig] = None,
                 store: Optional[EpochStore] = None) -> None:
        self.config = config or PipelineConfig()
        super().__init__(sim, self.config.queue_capacity, self._ingest_head)
        self.store = store or EpochStore(StoreConfig(
            retention=self.config.retention,
            keyframe_interval=self.config.keyframe_interval))
        self.stream = SnapshotStream(observer)
        self.stream.subscribe(self._pump)
        #: Epochs merged away under backpressure, lifetime.
        self.coalesced_epochs = 0

    @property
    def ingested(self) -> int:
        """Epochs stored, lifetime."""
        return self.processed

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        for snapshot in self.stream.drain():
            self._enqueue(snapshot)

    def _enqueue(self, snapshot: GlobalSnapshot) -> None:
        if len(self._queue) + self._busy >= self.capacity:
            # Backpressure: fold the newest waiting epoch into this one.
            # Cumulative counters mean the newer snapshot subsumes the
            # older network view; what is lost is temporal resolution,
            # and that loss is counted — never an unbounded queue.
            newest = self._queue[-1]
            newest[0] = snapshot
            newest[1] += 1
            self.coalesced_epochs += 1
        else:
            self.deliver([snapshot, 0])

    def _begin(self, item: list) -> int:
        return INGEST_SERVICE_NS + INGEST_PER_RECORD_NS * item[0].record_count

    def _ingest_head(self, item: list) -> None:
        snapshot, merged = item
        doc = epoch_record(snapshot)
        doc["merged_epochs"] = merged
        self.store.append(doc)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Epochs resolved but not yet stored."""
        return super().backlog + self.stream.pending

    def stats(self) -> dict[str, int]:
        out = {
            "ingested": self.ingested,
            "coalesced_epochs": self.coalesced_epochs,
            "backlog": self.backlog,
            "resolved": self.stream.resolved,
            "filtered": self.stream.filtered,
        }
        out.update({f"store_{k}": v for k, v in self.store.stats().items()})
        return out


class ContinuousCampaign:
    """An open-ended snapshot ticker (service mode's trigger).

    ``schedule_campaign`` pre-allocates a fixed epoch array; a service
    has no end date.  This ticker takes one snapshot per interval and
    reschedules itself, honoring the observer's no-lapping window
    enforcement exactly as batch campaigns do.  ``stop()`` halts after
    the current tick and ``start()`` resumes at the instant it is
    called; ``ticks`` counts snapshots taken.
    """

    def __init__(self, sim: Simulator, observer: SnapshotObserver,
                 interval_ns: int) -> None:
        if interval_ns < 1:
            raise ValueError("interval_ns must be positive")
        self.sim = sim
        self.observer = observer
        self.interval_ns = interval_ns
        self.ticks = 0
        self.max_ticks: Optional[int] = None
        self._running = False
        #: Bumped by every (re)start, so a tick still queued from before
        #: a ``stop()`` cannot revive a second chain beside the new one.
        self._generation = 0

    def start(self, max_ticks: Optional[int] = None) -> None:
        self.max_ticks = max_ticks
        if self._running:
            return
        self._running = True
        self._generation += 1
        self.sim.schedule(0, self._tick, self._generation)

    def stop(self) -> None:
        self._running = False

    def _tick(self, generation: int) -> None:
        if not self._running or generation != self._generation:
            return
        if self.max_ticks is not None and self.ticks >= self.max_ticks:
            self._running = False
            return
        self.observer.take_snapshot()
        self.ticks += 1
        self.sim.schedule(self.interval_ns, self._tick, generation)
