"""Span recorder and the wrappers that put it around each layer.

The program has no tracing of its own yet (a later issue), so the
traced pass patches span recorders onto the *classes and module
globals* of each layer's public entry points.  The hot path looks its
callbacks up at schedule time (``sw.ports[p].egress.handle_packet``) or
binds them at construction, so wrappers installed before a network is
built are seen everywhere.

A span is (name, start, end, parent).  Every span is folded into one
accumulator per (parent name, name) edge as it closes — a packet-path
run closes ~10^7 spans, far too many to keep — and the first
``RAW_SPAN_CAP`` are also kept raw for the trace file.

Self time of a span = its duration minus the part its child spans
cover, so the self times of all spans under one root add up to the
root's duration exactly (nested and re-entrant spans included).
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Optional

#: Raw spans kept for the trace file; the aggregates cover every span.
RAW_SPAN_CAP = 20_000

#: (span name, module, owner class or None for a module global, attribute).
#: The span name is ``<layer>:<what>``; the layer is the module name the
#: ledger reports under.  A function imported by name into another module
#: is listed once per namespace that holds a reference to it.
SPAN_POINTS: list[tuple[str, str, Optional[str], str]] = [
    # set-up
    ("topology:fat_tree", "repro.topology", None, "fat_tree"),
    ("topology:leaf_spine", "repro.topology", None, "leaf_spine"),
    ("topology:leaf_spine", "repro.runtime.streaming", None, "leaf_spine"),
    ("sim.network:Network", "repro.sim.network", "Network", "__init__"),
    ("core.builder:deploy", "repro.core", None, "deploy"),
    ("core.builder:deploy", "repro.core.builder", None, "deploy"),
    ("core.builder:deploy", "repro.runtime.streaming", None, "deploy"),
    ("workloads:Workload.start", "repro.workloads.base", "Workload", "start"),
    # packet path
    ("sim.engine:Simulator.run", "repro.sim.engine", "Simulator", "run"),
    ("sim.engine:Simulator.run_horizon", "repro.sim.engine", "Simulator",
     "run_horizon"),
    ("sim.switch:IngressUnit.handle_packet", "repro.sim.switch",
     "IngressUnit", "handle_packet"),
    ("sim.switch:EgressUnit.handle_packet", "repro.sim.switch",
     "EgressUnit", "handle_packet"),
    ("sim.switch:Switch.forward", "repro.sim.switch", "Switch", "forward"),
    ("sim.switch:Port.receive_from_link", "repro.sim.switch", "Port",
     "receive_from_link"),
    ("sim.channel:Link.transmit", "repro.sim.channel", "Link", "transmit"),
    ("sim.host:Host.receive_from_link", "repro.sim.host", "Host",
     "receive_from_link"),
    ("sim.host:Host.send_packet", "repro.sim.host", "Host", "send_packet"),
    ("workloads:Workload.emit", "repro.workloads.base", "Workload", "emit"),
    ("core.dataplane:SpeedlightUnit.process_packet", "repro.core.dataplane",
     "SpeedlightUnit", "process_packet"),
    # collection path
    ("core.control_plane:Switch.send_notification", "repro.sim.switch",
     "Switch", "send_notification"),
    ("core.control_plane:NotificationChannel.deliver",
     "repro.core.control_plane", "NotificationChannel", "deliver"),
    ("core.control_plane:SwitchControlPlane.schedule_initiation",
     "repro.core.control_plane", "SwitchControlPlane", "schedule_initiation"),
    ("core.aggregation:AggregationAgent.on_local_record",
     "repro.core.aggregation", "AggregationAgent", "on_local_record"),
    ("core.aggregation:AggregationAgent.on_initiation",
     "repro.core.aggregation", "AggregationAgent", "on_initiation"),
    ("core.aggregation:RelayChannel.deliver", "repro.core.aggregation",
     "RelayChannel", "deliver"),
    ("core.observer:SnapshotObserver.take_snapshot", "repro.core.observer",
     "SnapshotObserver", "take_snapshot"),
    ("core.observer:SnapshotObserver.on_unit_record", "repro.core.observer",
     "SnapshotObserver", "on_unit_record"),
    ("core.observer:SnapshotObserver.on_aggregate", "repro.core.observer",
     "SnapshotObserver", "on_aggregate"),
    # space-parallel rounds
    ("sim.shard:InProcessShardRunner.run", "repro.sim.shard",
     "InProcessShardRunner", "run"),
    ("sim.shard:ShardWorker.run_horizon", "repro.sim.shard", "ShardWorker",
     "run_horizon"),
    ("sim.shard:ShardWorker.drain", "repro.sim.shard", "ShardWorker", "drain"),
    ("sim.shard:ShardWorker.inject", "repro.sim.shard", "ShardWorker",
     "inject"),
    ("sim.shard:_route", "repro.sim.shard", None, "_route"),
    ("sim.shard:BoundaryLink.transmit", "repro.sim.shard", "BoundaryLink",
     "transmit"),
    ("core.sharded:ShardWorker.send_ctrl", "repro.sim.shard", "ShardWorker",
     "send_ctrl"),
    ("core.sharded:RemoteControlPlane.schedule_initiation",
     "repro.core.sharded", "RemoteControlPlane", "schedule_initiation"),
    # service path
    ("analysis.report:epoch_record", "repro.analysis.report", None,
     "epoch_record"),
    ("analysis.report:epoch_record", "repro.service.pipeline", None,
     "epoch_record"),
    ("analysis.report:epoch_from_record", "repro.analysis.report", None,
     "epoch_from_record"),
    ("analysis.report:epoch_from_record", "repro.service.query", None,
     "epoch_from_record"),
    ("service.pipeline:SnapshotPipeline._pump", "repro.service.pipeline",
     "SnapshotPipeline", "_pump"),
    ("service.pipeline:SnapshotPipeline._ingest_head",
     "repro.service.pipeline", "SnapshotPipeline", "_ingest_head"),
    ("service.store:EpochStore.append", "repro.service.store", "EpochStore",
     "append"),
    ("service.store:EpochStore.scan", "repro.service.store", "EpochStore",
     "scan"),
    ("service.store:encode_delta", "repro.service.store", None,
     "encode_delta"),
    ("service.store:apply_delta", "repro.service.store", None, "apply_delta"),
    ("service.store:canonical_bytes", "repro.service.store", None,
     "canonical_bytes"),
    ("service.query:QueryEngine.range", "repro.service.query", "QueryEngine",
     "range"),
    ("service.query:QueryEngine.snapshot", "repro.service.query",
     "QueryEngine", "snapshot"),
    ("service.query:QueryEngine.conservation", "repro.service.query",
     "QueryEngine", "conservation"),
    ("service.query:QueryEngine.heavy_hitters", "repro.service.query",
     "QueryEngine", "heavy_hitters"),
    ("service.query:QueryEngine.summary", "repro.service.query",
     "QueryEngine", "summary"),
    ("analysis.invariants:LinkAudit.violations", "repro.analysis.invariants",
     "LinkAudit", "violations"),
    # Event callbacks the engine dispatches straight into a layer.  They
    # are private names: without them their time is charged to
    # ``sim.engine``, so a rename only lowers the ledger's resolution
    # (and is reported as ``bench.spans_missing``).
    ("sim.switch:_EgressQueue._finish", "repro.sim.switch", "_EgressQueue",
     "_finish"),
    ("sim.channel:Link._deliver", "repro.sim.channel", "Link", "_deliver"),
    ("workloads:PoissonWorkload._tick", "repro.workloads.synthetic",
     "PoissonWorkload", "_tick"),
    ("workloads:MemcacheWorkload._multiget", "repro.workloads.memcache",
     "MemcacheWorkload", "_multiget"),
    ("workloads:MemcacheWorkload._respond", "repro.workloads.memcache",
     "MemcacheWorkload", "_respond"),
    ("core.control_plane:NotificationChannel._finish",
     "repro.core.control_plane", "NotificationChannel", "_finish"),
    ("core.control_plane:SwitchControlPlane._fire_initiation",
     "repro.core.control_plane", "SwitchControlPlane", "_fire_initiation"),
    ("core.control_plane:SwitchControlPlane._inject_initiation",
     "repro.core.control_plane", "SwitchControlPlane", "_inject_initiation"),
    ("core.control_plane:SwitchControlPlane._maybe_reinitiate",
     "repro.core.control_plane", "SwitchControlPlane", "_maybe_reinitiate"),
    ("core.aggregation:RelayChannel._finish", "repro.core.aggregation",
     "RelayChannel", "_finish"),
    ("core.aggregation:AggregationAgent._flush", "repro.core.aggregation",
     "AggregationAgent", "_flush"),
    ("core.observer:SnapshotObserver._enforce_window", "repro.core.observer",
     "SnapshotObserver", "_enforce_window"),
    ("core.observer:SnapshotObserver._check_progress", "repro.core.observer",
     "SnapshotObserver", "_check_progress"),
    ("service.pipeline:ContinuousCampaign._tick", "repro.service.pipeline",
     "ContinuousCampaign", "_tick"),
]

#: Spans whose first argument is a batch: the recorder also counts items.
BATCH_SPANS = {"sim.shard:_route"}

#: Generator functions: every resumption is one span.
GENERATOR_SPANS = {"service.store:EpochStore.scan"}


class SpanRecorder:
    """In-memory span sink with per-edge aggregation."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 raw_cap: int = RAW_SPAN_CAP) -> None:
        self.clock = clock
        self.raw_cap = raw_cap
        self.reset()

    def reset(self) -> None:
        #: (parent name or "", name) -> [count, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        #: span name -> items seen (``BATCH_SPANS`` only)
        self.items: dict[str, int] = {}
        #: (span id, parent id or 0, name, start, end), first ``raw_cap``
        self.raw: list[tuple[int, int, str, float, float]] = []
        self.closed = 0
        #: open frames: [name, child seconds, start, span id]
        self._stack: list[list] = []
        self._next_id = 1

    # -- recording ------------------------------------------------------
    def enter(self, name: str) -> None:
        span_id = self._next_id
        self._next_id = span_id + 1
        self._stack.append([name, 0.0, self.clock(), span_id])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack
        name, child_s, start, span_id = stack.pop()
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_name, parent_id = parent[0], parent[3]
        else:
            parent_name, parent_id = "", 0
        edge = self.edges.get((parent_name, name))
        if edge is None:
            edge = self.edges[(parent_name, name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - child_s
        self.closed += 1
        if len(self.raw) < self.raw_cap:
            self.raw.append((span_id, parent_id, name, start, end))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span around every call."""
        enter, leave = self.enter, self.exit
        if name in BATCH_SPANS:
            def traced(*args: Any, **kwargs: Any) -> Any:
                self.items[name] = self.items.get(name, 0) + len(args[0])
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
        elif name in GENERATOR_SPANS:
            def traced(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            leave()
                        yield item
                finally:
                    inner.close()
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- reading --------------------------------------------------------
    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for (_parent, name), (count, total_s, self_s) in self.edges.items():
            row = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["count"] += count
            row["total_s"] += total_s
            row["self_s"] += self_s
        return out

    def by_layer(self) -> dict[str, dict[str, float]]:
        """Per layer (the span name up to ``:``): count and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, row in self.by_name().items():
            layer = out.setdefault(name.split(":", 1)[0],
                                   {"count": 0, "self_s": 0.0})
            layer["count"] += row["count"]
            layer["self_s"] += row["self_s"]
        return out

    def edge(self, parent: str, name: str) -> tuple[int, float, float]:
        count, total_s, self_s = self.edges.get((parent, name), (0, 0.0, 0.0))
        return count, total_s, self_s

    def span_cost_s(self, calls: int = 200_000) -> float:
        """Host seconds one span adds to a call, measured on a no-op."""
        def noop() -> None:
            return None

        probe = SpanRecorder(self.clock, raw_cap=0)
        traced = probe.wrap("bench:probe", noop)
        clock = self.clock
        started = clock()
        for _ in range(calls):
            noop()
        bare = clock() - started
        started = clock()
        for _ in range(calls):
            traced()
        return max(0.0, (clock() - started - bare) / calls)


class Installation:
    """The set of patches one :func:`install` call made."""

    def __init__(self) -> None:
        self._patched: list[tuple[Any, str, Any]] = []
        #: Span points whose module, class or attribute no longer exists.
        self.missing: list[str] = []

    def remove(self) -> None:
        """Put every original back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def install(recorder: SpanRecorder) -> Installation:
    """Patch a span around every entry point in :data:`SPAN_POINTS`.

    A point that no longer resolves is skipped and listed in
    ``missing`` (reported as ``bench.spans_missing``), so that a refactor
    of the program shows up in the ledger instead of breaking the pass.
    """
    installation = Installation()
    wrappers: dict[tuple[str, int], Any] = {}
    for name, module_name, owner_name, attr in SPAN_POINTS:
        try:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            installation.missing.append(f"{module_name}:{owner_name or ''}"
                                        f".{attr}")
            continue
        key = (name, id(original))
        wrapper = wrappers.get(key)
        if wrapper is None:
            wrapper = wrappers[key] = recorder.wrap(name, original)
        setattr(owner, attr, wrapper)
        installation._patched.append((owner, attr, original))
    return installation
