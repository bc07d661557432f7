"""The five workloads, and every budget knob of the benchmark.

Each workload is built from a seed through the program's public API
only and is then advanced in fixed *slices* of simulated time, so the
harness can time every slice and report medians.  The input is fixed by
(workload, seed, ``--seconds``): the slice counts below are sized so
that the measured part of a run takes about ``NOMINAL_SECONDS`` on the
2-core reference box with CPython 3.11, and scale with ``--seconds``.

Why these five (one line each is repeated in ``BENCHMARK.json``):

* ``fabric_forward`` — smallest-packet bare forwarding; ``sim.engine``,
  ``sim.switch``, ``sim.channel``, ``sim.host`` and the ``core.dataplane``
  header check do nearly all the work, the collection path almost none.
* ``snapshot_storm`` — the same fabric with traffic cut 100x and a
  snapshot every 1.5 ms through a degree-4 aggregation tree (about half
  the tree's knee, so every epoch completes): ``core.control_plane``,
  ``core.aggregation`` and ``core.observer`` dominate — the Fig. 10 regime.
* ``service_ingest`` — the snapshot service writing only:
  ``analysis.report.epoch_record`` -> ``service.pipeline`` ->
  ``service.store`` append / evict / promote on a full 512-epoch ring.
* ``service_query`` — the same service with a closed-loop reader beside
  the writer: every query walks the store's delta chain.
* ``sharded_fabric`` — fat-tree k=8 on two in-process shards:
  ``sim.shard`` rounds (drain -> route -> inject) and ``core.sharded``
  record shipping.  In-process because the process runner on a 2-core
  box measures the scheduler, not the code.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import core, topology
from repro.analysis import report
from repro.analysis.invariants import LinkAudit
from repro.core.aggregation import AggregationConfig
from repro.core.snapshot import SnapshotStatus
from repro.runtime.streaming import ServiceRun, ServiceSpec
from repro.service.pipeline import (ContinuousCampaign, PipelineConfig,
                                    SnapshotPipeline)
from repro.service.query import QueryEngine
from repro.service.store import EpochStore, StoreConfig
from repro.service.stream import SnapshotStream
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.shard import InProcessShardRunner
from repro.workloads import PoissonWorkload
from repro.workloads.synthetic import PoissonConfig

def contract() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Budget: cut reps before slice counts, never below ~5 s per rep.
# ----------------------------------------------------------------------
#: ``--seconds`` the slice counts below are sized for.
NOMINAL_SECONDS = 10
#: Untraced reps per workload in a suite run (``--reps``).
DEFAULT_REPS = 3
#: The default seed, and the seed held out from every tuning decision.
DEFAULT_SEED = 11
HELD_OUT_SEED = 12
#: A run whose slices have used this many times ``--seconds`` of host
#: time stops early (and is then checked by invariants only).
GUARD_FACTOR = 6
#: Set-up is repeated until both hold (or the cap is hit); the median
#: is reported.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPEATS = 60

#: "Never": traffic is stopped by the harness, not by a horizon.
FOREVER = 2 ** 62
#: Simulated time the network gets to land in-flight packets and resolve
#: in-flight snapshots once traffic and the snapshot ticker have stopped.
DRAIN_STEP_NS = 5 * MS
DRAIN_MAX_STEPS = 80


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: Slices at ``NOMINAL_SECONDS``.
    slices: int
    build: Callable[[int], "Rig"]
    #: The closed-loop reader, which runs between slices (outside every
    #: slice's clock): checked single-epoch reads per slice, whether it
    #: also issues one of each scan-shaped query, and how many slices
    #: it waits before its first round (so the ring is full).
    point_reads: int
    scans: bool = False
    reader_after: int = 1
    #: The same input on one shard (sharded workloads only): the traced
    #: pass runs it once to size the work sharding adds.
    build_single_shard: Optional[Callable[[int], "Rig"]] = None


class Rig:
    """One built workload: what the harness drives, counts and checks."""

    #: Networks, traffic generators and deployments, one per shard.
    networks: list[Network]
    workloads: list[Any]
    deployments: list[Any]
    #: The snapshot ticker (``ticks`` = snapshots asked for).
    campaign: ContinuousCampaign
    #: Where the epoch documents end up, and what the reader queries.
    store: EpochStore
    #: The program's own intake, on the workloads that run one.
    pipeline: Optional[SnapshotPipeline] = None
    runner: Optional[InProcessShardRunner] = None

    @property
    def observer(self):
        return self.deployments[0].observer

    @property
    def sim(self):
        return self.networks[0].sim

    def drive(self, slices: int, on_slice: Callable[[], None],
              guard_s: float) -> None:
        """Advance ``slices`` slices, calling ``on_slice`` after each,
        then stop the traffic and the snapshot ticker and let the
        network drain.  Stops early once ``guard_s`` host seconds have
        gone by."""
        started = time.perf_counter()
        for k in range(slices):
            self.advance((k + 1) * self.slice_ns)
            on_slice()
            if time.perf_counter() - started > guard_s:
                break
        self.quiesce()

    def advance(self, until_ns: int) -> None:
        raise NotImplementedError

    def quiesce(self) -> None:
        self.campaign.stop()
        for workload in self.workloads:
            workload.config.stop_ns = self.sim.now
        for _ in range(DRAIN_MAX_STEPS):
            self.advance(self.sim.now + DRAIN_STEP_NS)
            if self.backlog == 0 and not any(
                    s.status is SnapshotStatus.PENDING
                    for s in self.observer.snapshots.values()):
                return

    def store_resolved(self) -> None:
        """Move the epochs resolved so far into the store.  The service
        rigs do it inside the simulation; the others have no service, so
        the harness stores for them, between slices."""

    @property
    def backlog(self) -> int:
        """Epochs resolved inside the simulation but not yet stored."""
        return 0

    @property
    def coalesced(self) -> int:
        return 0

    def query_engine(self) -> QueryEngine:
        return QueryEngine(self.store, link_audit=self.link_audit())

    def link_audit(self):
        return LinkAudit(self.networks[0])

    def busy_seconds(self) -> list[float]:
        """Per-shard host seconds spent computing, so far."""
        return []


class HarnessStored:
    """Mixin for rigs without a service: a ``SnapshotStream`` on the
    observer collects resolved epochs at no simulated cost, and
    :meth:`store_resolved` (called between slices, outside the slice
    clock) turns them into documents and appends them, exactly as
    ``SnapshotPipeline`` would."""

    def attach_store(self, observer, retention: int,
                     keyframe_interval: int) -> None:
        self.stream = SnapshotStream(observer)
        self.store = EpochStore(StoreConfig(
            retention=retention, keyframe_interval=keyframe_interval))

    def store_resolved(self) -> None:
        for snapshot in self.stream.drain():
            doc = report.epoch_record(snapshot)
            doc["merged_epochs"] = 0
            self.store.append(doc)


# ----------------------------------------------------------------------
# fabric_forward, snapshot_storm: one fat-tree k=4 network
# ----------------------------------------------------------------------

class FabricRig(HarnessStored, Rig):
    def __init__(self, seed: int, *, rate_pps: float, size_bytes: int,
                 interval_ns: int, slice_ns: int,
                 aggregation: Optional[AggregationConfig],
                 retention: int, keyframe_interval: int) -> None:
        self.slice_ns = slice_ns
        network = Network(topology.fat_tree(k=4), NetworkConfig(seed=seed))
        deployment = core.deploy(network, metric="packet_count",
                                 aggregation=aggregation)
        workload = PoissonWorkload(network, PoissonConfig(
            seed=seed, rate_pps=rate_pps, size_bytes=size_bytes,
            stop_ns=FOREVER, sport_churn=True))
        workload.start()
        self.networks = [network]
        self.workloads = [workload]
        self.deployments = [deployment]
        self.attach_store(deployment.observer, retention, keyframe_interval)
        self.campaign = ContinuousCampaign(network.sim, deployment.observer,
                                           interval_ns)
        self.campaign.start()

    def advance(self, until_ns: int) -> None:
        self.networks[0].run(until=until_ns)


def build_fabric_forward(seed: int) -> Rig:
    return FabricRig(seed, rate_pps=2_000.0, size_bytes=200,
                     interval_ns=10 * MS, slice_ns=10 * MS, aggregation=None,
                     retention=16, keyframe_interval=8)


def build_snapshot_storm(seed: int) -> Rig:
    return FabricRig(seed, rate_pps=20.0, size_bytes=200,
                     interval_ns=1_500_000, slice_ns=30 * MS,
                     aggregation=AggregationConfig(degree=4),
                     retention=32, keyframe_interval=8)


# ----------------------------------------------------------------------
# service_ingest, service_query: the snapshot service on a leaf-spine
# ----------------------------------------------------------------------

SERVICE_CHUNK_NS = 100 * MS
SERVICE_INTERVAL_NS = 1 * MS


class ServiceRig(Rig):
    def __init__(self, seed: int) -> None:
        self.service = ServiceRun(ServiceSpec(
            seed=seed, interval_ns=SERVICE_INTERVAL_NS,
            mean_request_gap_ns=2 * MS,
            pipeline=PipelineConfig(retention=512, keyframe_interval=32),
            chunk_ns=SERVICE_CHUNK_NS))
        self.networks = [self.service.network]
        self.workloads = [self.service.workload]
        self.deployments = [self.service.deployment]
        self.pipeline = self.service.pipeline
        self.store = self.pipeline.store
        self.campaign = self.service.campaign

    @property
    def backlog(self) -> int:
        return self.pipeline.backlog

    @property
    def coalesced(self) -> int:
        return self.pipeline.coalesced_epochs

    def advance(self, until_ns: int) -> None:
        self.service.sim.run(until=until_ns)

    def drive(self, slices: int, on_slice: Callable[[], None],
              guard_s: float) -> None:
        # ServiceRun.run steps one chunk per slice until the epochs are
        # stored, then stops the ticker and drains the ingest queue.
        epochs = slices * (SERVICE_CHUNK_NS // SERVICE_INTERVAL_NS)
        self.service.run(epochs=epochs, on_chunk=lambda _run: on_slice(),
                         max_wall_seconds=guard_s)
        self.quiesce()

    def query_engine(self) -> QueryEngine:
        return self.service.query_engine()


def build_service(seed: int) -> Rig:
    return ServiceRig(seed)


# ----------------------------------------------------------------------
# sharded_fabric: fat-tree k=8 on two in-process shards
# ----------------------------------------------------------------------

SHARDS = 2


class _AllShardsAudit:
    """``LinkAudit.violations`` over every shard's links (each shard's
    audit sees the links its own switches send on)."""

    def __init__(self, networks: list[Network]) -> None:
        self._audits = [LinkAudit(network) for network in networks]

    def violations(self, snapshot):
        return [report for audit in self._audits
                for report in audit.violations(snapshot)]


def _shard_setup(worker, seed: int, rate_pps: float, interval_ns: int,
                 built: dict) -> Callable[[], int]:
    """Per-shard set-up: this shard's hosts send Poisson traffic to *all*
    hosts (a constant share crosses the cut); the observer shard also
    hosts the snapshot ticker."""
    topo = worker.network.topology
    local = [h for h in topo.hosts
             if worker.plan.assignment[h] == worker.shard_id]
    pairs = [(src, dst) for src in local for dst in topo.hosts if dst != src]
    workload = PoissonWorkload(worker.network, PoissonConfig(
        seed=seed * SHARDS + worker.shard_id, rate_pps=rate_pps,
        stop_ns=FOREVER, pairs=pairs, sport_churn=True))
    workload.start()
    deployment = core.deploy(worker, metric="packet_count")
    built["workloads"].append(workload)
    built["deployments"].append(deployment)
    if deployment.is_observer_shard:
        built["campaign"] = ContinuousCampaign(worker.sim,
                                               deployment.observer,
                                               interval_ns)
        built["campaign"].start()
    return lambda: worker.sim.events_run


class ShardedRig(HarnessStored, Rig):
    def __init__(self, seed: int, shards: int = SHARDS) -> None:
        self.slice_ns = 5 * MS
        built: dict = {"workloads": [], "deployments": []}
        self.runner = InProcessShardRunner(
            topology.fat_tree(k=8, fabric_prop_ns=20_000),
            NetworkConfig(seed=seed), shards=shards, setup=_shard_setup,
            setup_args=(seed, 50.0, 5 * MS, built),
            busy_clock=time.perf_counter)
        self.networks = [w.network for w in self.runner.workers]
        self.workloads = built["workloads"]
        self.deployments = built["deployments"]
        self.campaign = built["campaign"]
        self.attach_store(self.observer, retention=8, keyframe_interval=4)

    def advance(self, until_ns: int) -> None:
        self.runner.run(until=until_ns)

    def link_audit(self):
        return _AllShardsAudit(self.networks)

    def busy_seconds(self) -> list[float]:
        return [w.busy_s for w in self.runner.workers]


def build_sharded_fabric(seed: int) -> Rig:
    return ShardedRig(seed)


WORKLOADS: dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec(
        "fabric_forward",
        "200 B all-to-all on fat-tree k=4, a snapshot per 10 ms: bare "
        "forwarding, where a packet-path rewrite must show",
        slices=36, build=build_fabric_forward, point_reads=6),
    WorkloadSpec(
        "snapshot_storm",
        "same fabric, traffic cut 100x, a snapshot per 1.5 ms through a "
        "degree-4 tree: the collection path dominates (Fig. 10 regime)",
        slices=80, build=build_snapshot_storm, point_reads=3),
    WorkloadSpec(
        "service_ingest",
        "snapshot service, writes only inside the timed slices: "
        "epoch_record -> pipeline -> store append/evict/promote on a "
        "full 512-epoch ring",
        slices=60, build=build_service, point_reads=4),
    WorkloadSpec(
        "service_query",
        "same service, reads beside writes: a closed-loop client issues "
        "the full query mix after every slice; each query walks the "
        "store's delta chain",
        slices=40, build=build_service, point_reads=4, scans=True,
        reader_after=7),
    WorkloadSpec(
        "sharded_fabric",
        "fat-tree k=8 on two in-process shards: drain/route/inject rounds "
        "and cross-shard record shipping",
        slices=20, build=build_sharded_fabric, point_reads=11,
        build_single_shard=lambda seed: ShardedRig(seed, shards=1)),
)}


def slices_for(spec: WorkloadSpec, seconds: float) -> int:
    """Slices of a run sized for ``seconds`` (never fewer than four
    rounds of the reader)."""
    scaled = round(spec.slices * seconds / NOMINAL_SECONDS)
    return max(spec.reader_after + 4, scaled)
