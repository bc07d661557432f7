"""One run of one workload: set up, drive, read back, count, check.

``measure`` is the whole of a rep.  It times set-up (several times,
median), drives the rig slice by slice with the clock around each
slice, reads the stored epochs back through ``QueryEngine`` with every
answer checked, and then derives the end-to-end metrics, the exact
simulated statistics and the result digest.  With a recorder it runs
the same code under span wrappers and adds the per-layer ledger.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Optional

# Bound here, before any wrapper is installed: the harness's own use of
# the serializer to check answers must not show up in the ledger.
from repro.analysis.report import epoch_record
from repro.core.snapshot import SnapshotStatus

import scenarios
import stats
import tracing

GOLDEN = (5 ** 0.5 - 1) / 2

#: Windows of the scan-shaped queries.
RANGE_LAST = 64
CONSERVATION_LAST = 32

#: The calibration loop runs this many iterations per sample (~8 ms), and
#: this is the rate it reads on the reference box when the box is quiet.
CALIBRATION_LOOPS = 200_000
REFERENCE_MOPS = 25.0


class Pace:
    """Machine speed, sampled between the things the harness times.

    The reference box is a shared VM whose speed moves by 10-50% for
    seconds at a time (``bench/NOISE.md``); CPU time moves with it, so
    it is the processor that slows, not the scheduler that preempts.
    Every timed interval is therefore scaled to what it would have
    taken at ``REFERENCE_MOPS``, by the machine's speed over that
    interval: the mean of one sample of a fixed pure-Python loop taken
    just before the interval and one just after.  The loop is the one ``repro.perf.bench``
    calibrates with, kept here so that no change to the program can
    move the yardstick.
    """

    def __init__(self) -> None:
        self.samples_mops: list[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        started = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i & 7
        mops = CALIBRATION_LOOPS / (time.perf_counter() - started) / 1e6
        self.samples_mops.append(mops)
        return mops

    def lap(self) -> float:
        """Speed over the interval since the previous lap, as a share of
        the reference speed (< 1: the machine was slow, so an interval
        measured over it is scaled *down* by this factor)."""
        before, self._last = self._last, self._sample()
        return (before + self._last) / 2 / REFERENCE_MOPS


def canonical(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


class CheckedReader:
    """Issues queries, times each, and checks every answer against the
    snapshots the observer resolved."""

    def __init__(self, rig: scenarios.Rig) -> None:
        self._unsettled: list[tuple[str, float]] = []
        self.engine = rig.query_engine()
        self.store = rig.store
        self.snapshots = rig.observer.snapshots
        self._reads = 0
        self.latency_ms: dict[str, list[float]] = {}
        self.issued = 0
        #: Documents the answers carried (the hits of ``decode_per_hit``).
        self.docs_returned = 0
        self.wrong: list[str] = []
        self.digest = hashlib.sha256()

    # -- ground truth ---------------------------------------------------
    def truth(self, epoch: int) -> dict:
        return epoch_record(self.snapshots[epoch])

    def stored_doc(self, epoch: int) -> dict:
        """What the store must hold for ``epoch``: the record plus the
        pipeline's annotation (nothing was coalesced into it)."""
        return {**self.truth(epoch), "merged_epochs": 0}

    def _timed(self, kind: str, call, *args):
        started = time.perf_counter()
        answer = call(*args)
        self._unsettled.append((kind, (time.perf_counter() - started) * 1e3))
        self.issued += 1
        return answer

    def settle(self, speed: float) -> None:
        """Scale the latencies taken since the last lap by the machine's
        speed over them and move them to the pool."""
        for kind, ms in self._unsettled:
            self.latency_ms.setdefault(kind, []).append(ms * speed)
        self._unsettled.clear()

    def _verdict(self, kind: str, ok: bool, answer: object) -> None:
        self.digest.update(canonical(answer))
        if not ok:
            self.wrong.append(kind)

    # -- queries --------------------------------------------------------
    def point(self, epoch: int) -> None:
        snapshot = self._timed("get", self.engine.snapshot, epoch)
        doc = None if snapshot is None else epoch_record(snapshot)
        self.docs_returned += 1
        self._verdict("get", doc == self.truth(epoch), doc)

    def range_last(self, count: Optional[int], kind: str) -> None:
        start = (None if count is None
                 else self.store.max_epoch - count + 1)
        docs = self._timed(kind, self.engine.range, start, None)
        stored = [e for e in self.store.epochs()
                  if start is None or e >= start]
        self.docs_returned += len(docs)
        self._verdict(kind, docs == [self.stored_doc(e) for e in stored],
                      docs)

    def conservation_last(self, count: int) -> None:
        start = self.store.max_epoch - count + 1
        answer = self._timed("conservation32", self.engine.conservation,
                             start, None)
        held = [e for e in self.store.epochs() if e >= start
                and self.snapshots[e].records
                and self.snapshots[e].consistent]
        self.docs_returned += answer["checked"] + answer["skipped"]
        self._verdict("conservation32",
                      answer["violating_epochs"] == []
                      and answer["checked"] == len(held), answer)

    def heavy(self) -> None:
        answer = self._timed("heavy", self.engine.heavy_hitters)
        self.docs_returned += 1
        rows = sorted(self.truth(self.store.max_epoch)["records"],
                      key=lambda r: (-r["value"], r["device"], r["port"],
                                     r["direction"]))
        want = [{k: r[k] for k in ("device", "port", "direction", "value")}
                for r in rows[:5] if r["value"] > 0]
        self._verdict("heavy", answer["epoch"] == self.store.max_epoch
                      and answer["units"] == want, answer)

    def summary(self) -> None:
        answer = self._timed("summary", self.engine.summary)
        self.docs_returned += answer["epochs_stored"]
        stored = self.store.epochs()
        usable = sum(1 for e in stored
                     if self.snapshots[e].status is SnapshotStatus.COMPLETE
                     and self.snapshots[e].consistent)
        self._verdict("summary",
                      answer["epochs_stored"] == len(stored)
                      and answer["min_epoch"] == stored[0]
                      and answer["max_epoch"] == stored[-1]
                      and answer["usable_epochs"] == usable
                      and answer["merged_epochs"] == 0, answer)

    # -- mixes ----------------------------------------------------------
    def round(self, point_reads: int, scans: bool) -> None:
        """One round of the closed-loop client: single-epoch reads
        spread over the ring, then (``scans``) one of each scan-shaped
        query.

        A read costs what its distance from the front of the ring
        costs, so which positions a rep happens to draw moves its median
        by 10%; the positions therefore follow the golden-ratio sequence
        (evenly spread at every length, the same for every seed) rather
        than the workload's seed."""
        stored = self.store.epochs()
        if not stored:
            return
        for _ in range(point_reads):
            self._reads += 1
            position = self._reads * GOLDEN % 1.0
            self.point(stored[int(position * len(stored))])
        if scans:
            self.scans()

    def scans(self) -> None:
        self.range_last(RANGE_LAST, "range64")
        self.conservation_last(CONSERVATION_LAST)
        self.heavy()
        self.summary()

    def read_back(self) -> None:
        """After the run: everything stored is read back and compared,
        and every scan-shaped query is checked once."""
        self.range_last(None, "range_all")
        self.scans()

    def pool(self) -> list[float]:
        return [ms for kind in self.latency_ms.values() for ms in kind]


@dataclass
class Result:
    """Everything one rep produced."""

    workload: str
    seed: int
    seconds: float
    metrics: dict[str, float]
    #: Exact simulated statistics: equal across reps of one seed.
    stats: dict[str, int]
    #: Recorded but not compared: a batched core may change it.
    events: int
    digest: str
    attempted: int
    failed: int
    problems: list[str]
    #: True when every planned slice ran (else the host-time guard cut
    #: the input short and the reference does not apply).
    full_input: bool
    detail: dict[str, float] = field(default_factory=dict)
    #: Per-slice raw seconds and machine speed (kept in ``bench/out``).
    series: dict[str, list] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    trace: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------

def _delivered(rig: scenarios.Rig) -> int:
    return sum(h.packets_received
               for net in rig.networks for h in net.hosts.values())


def _events(rig: scenarios.Rig) -> int:
    return sum(net.sim.events_run for net in rig.networks)


def _fabric_stats(rig: scenarios.Rig) -> dict[str, int]:
    """``aggregation.stats()`` over every shard's slice of the fabric
    (all zero without one)."""
    total = {"messages": 0, "records_forwarded": 0, "partial_flushes": 0,
             "max_backlog": 0}
    for deployment in rig.deployments:
        if deployment.aggregation is not None:
            got = deployment.aggregation.stats()
            for key in total:
                total[key] = (max(total[key], got[key])
                              if key == "max_backlog"
                              else total[key] + got[key])
    return total


def _simulated_stats(rig: scenarios.Rig, clean: int,
                     queries: int) -> dict[str, int]:
    snapshots = list(rig.observer.snapshots.values())
    notifications = {"processed": 0, "dropped": 0}
    for deployment in rig.deployments:
        got = deployment.notification_stats()
        for key in notifications:
            notifications[key] += got[key]
    relay = _fabric_stats(rig)
    store = rig.store.stats()
    return {
        "sim_time_ns": rig.sim.now,
        "packets_emitted": sum(w.packets_emitted for w in rig.workloads),
        "packets_delivered": _delivered(rig),
        "link_drops": sum(link.packets_dropped
                          for net in rig.networks for link in net.links),
        "snapshots_taken": rig.campaign.ticks,
        "snapshots_complete": sum(
            1 for s in snapshots if s.status is SnapshotStatus.COMPLETE),
        "snapshots_consistent": sum(
            1 for s in snapshots
            if s.status is SnapshotStatus.COMPLETE and s.consistent),
        "snapshots_clean": clean,
        "notifications_processed": notifications["processed"],
        "notifications_dropped": notifications["dropped"],
        "relay_messages": relay["messages"],
        "relay_records_forwarded": relay["records_forwarded"],
        "rounds": rig.runner.rounds if rig.runner is not None else 0,
        "epochs_stored": store["appended"],
        "epochs_coalesced": rig.coalesced,
        "store_evicted": store["evicted"],
        "store_promoted": store["promoted"],
        "store_keyframes": store["keyframes"],
        "store_encoded_bytes": store["encoded_bytes"],
        "queries": queries,
    }


# ----------------------------------------------------------------------
# The rep
# ----------------------------------------------------------------------

def _set_up(spec: scenarios.WorkloadSpec, seed: int, pace: Pace):
    """Build the rig repeatedly; returns the last rig and, per build,
    the host seconds it took at the reference machine speed."""
    times: list[float] = []
    spent = 0.0
    rig = None
    pace.lap()
    while True:
        rig = None
        gc.collect()
        started = time.perf_counter()
        rig = spec.build(seed)
        wall = time.perf_counter() - started
        spent += wall
        times.append(wall * pace.lap())
        if len(times) >= scenarios.SETUP_MAX_REPEATS or (
                len(times) >= scenarios.SETUP_MIN_REPEATS
                and spent >= scenarios.SETUP_MIN_SECONDS):
            return rig, times


def _slices_only_s(rig: scenarios.Rig, slices: int, seconds: float) -> float:
    """Raw host seconds ``rig`` spends inside the same slices, with
    nothing between them."""
    ended = 0.0

    def on_slice() -> None:
        nonlocal ended
        ended = time.perf_counter()

    gc.collect()
    started = time.perf_counter()
    rig.drive(slices, on_slice, scenarios.GUARD_FACTOR * seconds)
    return ended - started


def _operations(sim_stats: dict[str, int], clean: int,
                reader: CheckedReader, pool_size: int,
                seconds: float) -> tuple[int, int, list[str]]:
    """(attempted, failed, what went wrong): a packet not delivered, a
    snapshot not clean or not stored, and a wrong answer each fail."""
    undelivered = (sim_stats["packets_emitted"]
                   - sim_stats["packets_delivered"])
    unclean = sim_stats["snapshots_taken"] - clean
    unstored = sim_stats["snapshots_taken"] - sim_stats["epochs_stored"]
    attempted = (sim_stats["packets_emitted"] + sim_stats["snapshots_taken"]
                 + reader.issued)
    failed = (max(0, undelivered) + max(unclean, unstored, 0)
              + len(reader.wrong))
    problems: list[str] = []
    if undelivered:
        problems.append(f"{undelivered} packets emitted but not delivered")
    if unclean:
        problems.append(f"{unclean} snapshots not complete, consistent "
                        f"and audit-clean")
    if unstored or sim_stats["epochs_coalesced"]:
        problems.append(f"{unstored} epochs unstored, "
                        f"{sim_stats['epochs_coalesced']} coalesced")
    if reader.wrong:
        problems.append(f"wrong answers: {sorted(set(reader.wrong))}")
    if (seconds >= scenarios.NOMINAL_SECONDS
            and not stats.supported(pool_size, 0.95)):
        problems.append(f"query_p95_ms needs {stats.MIN_SAMPLES_BEYOND} "
                        f"samples beyond it; the pool has {pool_size}")
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float,
            recorder: Optional[tracing.SpanRecorder] = None) -> Result:
    spec = scenarios.WORKLOADS[workload]
    slices = scenarios.slices_for(spec, seconds)
    pace = Pace()

    installation = None
    if recorder is not None:
        recorder.reset()
        installation = tracing.install(recorder)
    single_run_s = 0.0
    try:
        if recorder is not None and spec.build_single_shard is not None:
            single_run_s = _slices_only_s(
                spec.build_single_shard(seed), slices, seconds)
            recorder.reset()
        rig, setup_times = _set_up(spec, seed, pace)
        setup_spans = recorder.by_name() if recorder is not None else {}

        reader = CheckedReader(rig)
        raw_slice_s: list[float] = []
        slice_s: list[float] = []
        critical_s: list[float] = []
        delivered_before = delivered_after = _delivered(rig)
        stored_before = stored_after = rig.store.appended
        busy = [rig.busy_seconds()]
        storing_s = 0.0
        coordinator_raw_s = 0.0
        mark = 0.0

        def between_slices(read: bool) -> None:
            """Store what resolved (rigs without a service), read, and
            scale both by the machine's speed meanwhile."""
            nonlocal storing_s, stored_after, mark
            started = time.perf_counter()
            rig.store_resolved()
            storing = time.perf_counter() - started
            stored_after = rig.store.appended
            if read:
                reader.round(spec.point_reads, spec.scans)
            speed = pace.lap()
            storing_s += storing * speed
            reader.settle(speed)
            mark = time.perf_counter()

        def on_slice() -> None:
            nonlocal delivered_after, coordinator_raw_s
            raw = time.perf_counter() - mark
            speed = pace.lap()
            wall = raw * speed
            raw_slice_s.append(raw)
            slice_s.append(wall)
            delivered_after = _delivered(rig)
            busy.append(rig.busy_seconds())
            spent = [(b - a) * speed for a, b in zip(busy[-2], busy[-1])]
            # Slowest shard plus whatever the coordinator did outside
            # the shards; with one shard that is the slice itself.
            coordinator = max(0.0, wall - sum(spent)) if spent else 0.0
            coordinator_raw_s += coordinator / speed
            critical_s.append(max(spent) + coordinator if spent else wall)
            between_slices(read=len(slice_s) >= spec.reader_after)

        gc.collect()
        if recorder is not None:
            recorder.reset()
            recorder.enter("bench:window")
        pace.lap()
        window_started = mark = time.perf_counter()
        rig.drive(slices, on_slice, scenarios.GUARD_FACTOR * seconds)
        run_wall = time.perf_counter() - window_started
        # What resolved during the drain, then the final read-back.
        between_slices(read=False)
        reader.read_back()
        reader.settle(pace.lap())
        if recorder is not None:
            recorder.exit()
    finally:
        if installation is not None:
            installation.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- end-to-end metrics ---------------------------------------------
    # Host seconds inside the slices, at the reference machine speed.
    run_s = sum(slice_s)
    snapshots = rig.observer.snapshots
    audit = rig.link_audit()
    clean = sum(1 for s in snapshots.values()
                if s.status is SnapshotStatus.COMPLETE and s.consistent
                and not audit.violations(s))
    pool = reader.pool()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "packets_per_s": (delivered_after - delivered_before) / run_s,
        "snapshots_per_s": clean / run_s,
        "epochs_per_s": (stored_after - stored_before) / (run_s + storing_s),
        "query_p50_ms": stats.percentile(pool, 0.50),
        "query_p95_ms": stats.percentile(pool, 0.95),
        "critical_path_s": sum(critical_s),
        "peak_rss_mb": peak_rss_mb,
    }

    # -- operations and checks ------------------------------------------
    sim_stats = _simulated_stats(rig, clean, reader.issued)
    digest = hashlib.sha256()
    for epoch in sorted(snapshots):
        digest.update(canonical(epoch_record(snapshots[epoch])))
    digest.update(reader.digest.digest())
    attempted, failed, problems = _operations(sim_stats, clean, reader,
                                              len(pool), seconds)

    result = Result(
        workload=workload, seed=seed, seconds=seconds, metrics=metrics,
        stats=sim_stats, events=_events(rig), digest=digest.hexdigest(),
        attempted=attempted, failed=failed, problems=problems,
        full_input=len(slice_s) >= slices,
        detail={
            "slices": len(slice_s),
            "slice_s_min": min(slice_s),
            "slice_s_median": statistics.median(slice_s),
            "slice_s_max": max(slice_s),
            "raw_run_s": sum(raw_slice_s),
            "raw_coordinator_s": coordinator_raw_s,
            "storing_s": storing_s,
            "run_wall_s": run_wall,
            "setup_repeats": len(setup_times),
            "setup_s_min": min(setup_times),
            "setup_s_max": max(setup_times),
            "query_samples": len(pool),
            "query_beyond_p95": stats.samples_beyond(len(pool), 0.95),
            "calibration_samples": len(pace.samples_mops),
            "calibration_mops": statistics.median(pace.samples_mops),
            "calibration_mops_min": min(pace.samples_mops),
            "calibration_mops_max": max(pace.samples_mops),
        },
        series={
            "raw_slice_s": raw_slice_s,
            "slice_speed": [n / r for n, r in zip(slice_s, raw_slice_s)],
        })
    if recorder is not None:
        result.layers = ledger(rig, recorder, setup_spans, len(setup_times),
                               reader, result, len(installation.missing),
                               single_run_s)
        result.trace = {
            "trace_id": f"{workload}-{seed}",
            "spans_closed": recorder.closed,
            "spans_missing": installation.missing,
            "by_name": recorder.by_name(),
            "edges": [{"parent": parent, "name": name, "count": count,
                       "total_s": total_s, "self_s": self_s}
                      for (parent, name), (count, total_s, self_s)
                      in sorted(recorder.edges.items())],
            "raw_spans": [list(span) for span in recorder.raw],
        }
    return result


# ----------------------------------------------------------------------
# The per-layer ledger
# ----------------------------------------------------------------------

def self_time_metric(layer: str) -> str:
    """The per-layer metric that holds ``layer``'s self time (two keep
    the names the issue gave them)."""
    return {"analysis.invariants": "analysis.invariants.audit_s",
            "bench": "bench.other_self_s"}.get(layer, f"{layer}.self_s")


def ledger(rig: scenarios.Rig, recorder: tracing.SpanRecorder,
           setup_spans: dict, setup_repeats: int, reader: CheckedReader,
           result: Result, spans_missing: int,
           single_run_s: float) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced run.

    ``<layer>.self_s`` is the self time of the layer's spans inside the
    trace window (run + read-back); together with ``bench.other_self_s``
    (the harness itself) they add up to ``bench.traced_window_s``.
    """
    spans = recorder.by_name()
    layers = recorder.by_layer()

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def span(name: str, key: str, table: dict = spans) -> float:
        return table.get(name, {}).get(key, 0)

    def per_setup(name: str) -> float:
        return span(name, "total_s", setup_spans) / setup_repeats

    def p50(kind: str) -> float:
        samples = reader.latency_ms.get(kind)
        return statistics.median(samples) if samples else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    events = result.events
    sims = [net.sim for net in rig.networks]
    agents = [a for d in rig.deployments for a in d.agents.values()]
    planes = [cp for d in rig.deployments
              for cp in d.control_planes.values()]
    fabric = _fabric_stats(rig)
    store = rig.store.stats()
    busy = rig.busy_seconds()
    raw_run_s = result.detail["raw_run_s"]
    decoded = sum(c for (p, n), (c, _t, _s) in recorder.edges.items()
                  if n == "service.store:apply_delta"
                  and p == "service.store:EpochStore.scan")
    return {
        # set-up (seconds per build, mean over the repeats)
        "topology.build_s": (per_setup("topology:fat_tree")
                             + per_setup("topology:leaf_spine")),
        "sim.network.build_s": per_setup("sim.network:Network"),
        "core.builder.deploy_s": per_setup("core.builder:deploy"),
        "workloads.start_s": (per_setup("workloads:Workload.start")
                              + span("workloads:Workload.start", "total_s")),
        # packet path
        "sim.engine.events": events,
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.engine.us_per_event": ratio(self_s("sim.engine") * 1e6, events),
        "sim.engine.compactions": sum(s.compactions for s in sims),
        "sim.switch.ingress_calls": span(
            "sim.switch:IngressUnit.handle_packet", "count"),
        "sim.switch.egress_calls": span(
            "sim.switch:EgressUnit.handle_packet", "count"),
        "sim.switch.self_s": self_s("sim.switch"),
        "sim.channel.transmits": span("sim.channel:Link.transmit", "count"),
        "sim.channel.drops": result.stats["link_drops"],
        "sim.channel.self_s": self_s("sim.channel"),
        "sim.host.delivered": result.stats["packets_delivered"],
        "sim.host.self_s": self_s("sim.host"),
        "workloads.emits": span("workloads:Workload.emit", "count"),
        "workloads.self_s": self_s("workloads"),
        "core.dataplane.process_calls": sum(a.packets_seen for a in agents),
        "core.dataplane.captures": sum(a.notifications_emitted
                                       for a in agents),
        "core.dataplane.self_s": self_s("core.dataplane"),
        # collection path
        "core.control_plane.received": sum(cp.channel.received
                                           for cp in planes),
        "core.control_plane.processed": result.stats[
            "notifications_processed"],
        "core.control_plane.dropped": result.stats["notifications_dropped"],
        "core.control_plane.initiations": sum(cp.initiations_sent
                                              for cp in planes),
        "core.control_plane.self_s": self_s("core.control_plane"),
        "core.aggregation.messages": fabric["messages"],
        "core.aggregation.records_forwarded": fabric["records_forwarded"],
        "core.aggregation.max_backlog": fabric["max_backlog"],
        "core.aggregation.partial_flushes": fabric["partial_flushes"],
        "core.aggregation.self_s": self_s("core.aggregation"),
        "core.observer.records_in": span(
            "core.observer:SnapshotObserver.on_unit_record", "count"),
        "core.observer.snapshots_complete": result.stats[
            "snapshots_complete"],
        "core.observer.retries": rig.observer.retry_rounds,
        "core.observer.self_s": self_s("core.observer"),
        # space-parallel rounds
        "sim.shard.rounds": result.stats["rounds"],
        "sim.shard.items_routed": recorder.items.get("sim.shard:_route", 0),
        "sim.shard.busy_max_s": max(busy, default=0.0),
        "sim.shard.busy_sum_s": sum(busy),
        "sim.shard.imbalance": ratio(max(busy, default=0.0) * len(busy),
                                     sum(busy)),
        "sim.shard.coordinator_s": result.detail["raw_coordinator_s"],
        "sim.shard.drain_s": span("sim.shard:ShardWorker.drain", "total_s"),
        "sim.shard.route_s": span("sim.shard:_route", "total_s"),
        "sim.shard.inject_s": span("sim.shard:ShardWorker.inject", "total_s"),
        "sim.shard.single_run_s": single_run_s,
        "sim.shard.work_inflation": ratio(raw_run_s, single_run_s),
        "sim.shard.self_s": self_s("sim.shard"),
        "core.sharded.ctrl_items": span(
            "core.sharded:ShardWorker.send_ctrl", "count"),
        "core.sharded.self_s": self_s("core.sharded"),
        # service path, writes
        "analysis.report.epoch_record_calls": span(
            "analysis.report:epoch_record", "count"),
        "analysis.report.self_s": self_s("analysis.report"),
        "service.pipeline.ingested": (rig.pipeline.ingested
                                      if rig.pipeline is not None else 0),
        "service.pipeline.coalesced_epochs": rig.coalesced,
        "service.pipeline.self_s": self_s("service.pipeline"),
        "service.store.appended": store["appended"],
        "service.store.evicted": store["evicted"],
        "service.store.promoted": store["promoted"],
        "service.store.promote_ratio": ratio(store["promoted"],
                                             store["evicted"]),
        "service.store.keyframes": store["keyframes"],
        "service.store.encoded_bytes": store["encoded_bytes"],
        "service.store.append_s": span("service.store:EpochStore.append",
                                       "total_s"),
        "service.store.self_s": self_s("service.store"),
        # service path, reads
        "service.store.scan_s": span("service.store:EpochStore.scan",
                                     "total_s"),
        "service.store.docs_decoded": decoded,
        "service.store.decode_per_hit": ratio(decoded,
                                              reader.docs_returned),
        "service.query.get_p50_ms": p50("get"),
        "service.query.range64_p50_ms": p50("range64"),
        "service.query.conservation32_p50_ms": p50("conservation32"),
        "service.query.heavy_p50_ms": p50("heavy"),
        "service.query.summary_p50_ms": p50("summary"),
        "service.query.self_s": self_s("service.query"),
        "analysis.invariants.audit_s": self_s("analysis.invariants"),
        # the tracer and the machine
        "bench.other_self_s": self_s("bench"),
        "bench.traced_window_s": span("bench:window", "total_s"),
        "bench.traced_run_s": result.metrics["run_s"],
        "bench.span_cost_us": recorder.span_cost_s() * 1e6,
        "bench.spans": recorder.closed,
        "bench.spans_missing": spans_missing,
        "bench.calibration_mops": result.detail["calibration_mops"],
    }
