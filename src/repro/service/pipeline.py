"""The continuous snapshot pipeline: ticker → stream → store.

Glues the intake stream to the delta store with an explicitly modeled,
explicitly *bounded* ingest path:

* a :class:`ContinuousCampaign` ticker keeps one snapshot in flight per
  ``interval_ns`` forever (each tick schedules the next, so the horizon
  is open-ended — no pre-scheduled campaign array);
* resolved epochs queue at the ingest server, which serializes them one
  at a time at a modeled cost (base + per-record), the same shape as the
  relay/notification servers elsewhere in the model;
* when the queue is full the pipeline **coalesces** instead of growing:
  the newest queued epoch is merged into the arriving one (the metrics
  are cumulative counters, so the newer snapshot subsumes the older
  view) and the loss is counted, per epoch and in aggregate, as
  ``merged_epochs`` on the stored document.

Nothing here reads a wall clock — throughput measurement lives in
:mod:`repro.runtime.streaming`, which is allowed to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.analysis.report import epoch_record
from repro.core.observer import SnapshotObserver
from repro.core.snapshot import GlobalSnapshot
from repro.service.store import EpochStore, StoreConfig
from repro.service.stream import SnapshotStream
from repro.sim.engine import Simulator, US, check_minimums


@dataclass
class PipelineConfig:
    """Sizing and cost model of the service pipeline."""

    #: Epochs retained by the store ring.
    retention: int = 1024
    #: Store keyframe cadence (entries between full documents).
    keyframe_interval: int = 64
    #: Ingest queue bound; arrivals past it coalesce, never queue.
    queue_capacity: int = 64
    #: Serial ingest cost per epoch: encode + index + store bookkeeping.
    ingest_service_ns: int = 120 * US
    #: Marginal ingest cost per unit record.
    ingest_per_record_ns: int = 2 * US

    def __post_init__(self) -> None:
        # A negative cost would schedule the ingest in the past.
        check_minimums(self, {"retention": 1, "keyframe_interval": 1,
                              "queue_capacity": 1, "ingest_service_ns": 0,
                              "ingest_per_record_ns": 0})


class SnapshotPipeline:
    """Continuous epoch intake with backpressure, feeding a delta store."""

    def __init__(self, sim: Simulator, observer: SnapshotObserver,
                 config: Optional[PipelineConfig] = None,
                 store: Optional[EpochStore] = None) -> None:
        self.sim = sim
        self.config = config or PipelineConfig()
        self.store = store or EpochStore(StoreConfig(
            retention=self.config.retention,
            keyframe_interval=self.config.keyframe_interval))
        self.stream = SnapshotStream(observer)
        self.stream.subscribe(self._pump)
        #: FIFO of [snapshot, merged_count] awaiting the ingest server.
        self._queue: deque[list] = deque()
        self._busy = False
        #: Epochs stored / merged away under backpressure, lifetime.
        self.ingested = 0
        self.coalesced_epochs = 0

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        for snapshot in self.stream.drain():
            self._enqueue(snapshot)

    def _enqueue(self, snapshot: GlobalSnapshot) -> None:
        if len(self._queue) >= self.config.queue_capacity:
            # Backpressure: fold the newest queued epoch into this one.
            # Cumulative counters mean the newer snapshot subsumes the
            # older network view; what is lost is temporal resolution,
            # and that loss is counted — never an unbounded queue.
            displaced = self._queue.pop()
            merged = displaced[1] + 1
            self.coalesced_epochs += 1
            self._queue.append([snapshot, merged])
        else:
            self._queue.append([snapshot, 0])
        self._service()

    def _service(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        snapshot = self._queue[0][0]
        cost = (self.config.ingest_service_ns
                + self.config.ingest_per_record_ns * len(snapshot.records))
        self.sim.schedule_fast(cost, self._ingest_head)

    def _ingest_head(self) -> None:
        snapshot, merged = self._queue.popleft()
        doc = epoch_record(snapshot)
        doc["merged_epochs"] = merged
        self.store.append(doc)
        self.ingested += 1
        self._busy = False
        self._service()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Epochs resolved but not yet stored."""
        return len(self._queue) + self.stream.pending

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
