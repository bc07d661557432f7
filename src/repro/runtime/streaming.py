"""Long-running service driver: sustained workload, continuous epochs.

Batch trials run a fixed horizon and collect results at the end; the
snapshot service runs open-ended.  :class:`ServiceRun` wires a
testbed (leaf-spine + memcache incast by default), a Speedlight
deployment, and the :mod:`repro.service` pipeline, then steps the
simulation in bounded chunks until a target number of epochs has been
*stored* — measuring wall-clock epochs/s along the way, which is why
this driver lives in the runtime scope (the service modules themselves
never read a wall clock).

Not exported from ``repro.runtime``'s package root: importing it pulls
in the service and deployment layers, which the lightweight spec/runner
machinery must not depend on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.invariants import LinkAudit
from repro.core.aggregation import AggregationConfig
from repro.core.builder import deploy
from repro.service.pipeline import (ContinuousCampaign, PipelineConfig,
                                    SnapshotPipeline)
from repro.service.query import FlowResolver, QueryEngine
from repro.sim.engine import MS, US, check_minimums
from repro.sim.network import Network, NetworkConfig
from repro.topology.builders import leaf_spine
from repro.workloads.memcache import MemcacheConfig, MemcacheWorkload


@dataclass
class ServiceSpec:
    """Everything needed to stand up one service run."""

    seed: int = 42
    #: Testbed shape (leaf-spine).
    num_leaves: int = 2
    num_spines: int = 1
    hosts_per_leaf: int = 2
    #: Snapshot cadence.
    interval_ns: int = 2 * MS
    metric: str = "packet_count"
    agg_degree: Optional[int] = None
    #: Memcache incast request cadence (0 disables the workload).
    mean_request_gap_ns: int = 400 * US
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    #: Simulation-time chunk per stepping iteration.
    chunk_ns: int = 50 * MS

    def __post_init__(self) -> None:
        # A zero chunk would step the simulation to where it already is,
        # forever.  A switch has at most 256 ports (Tofino 2's lanes).
        check_minimums(self, {"num_leaves": (1, 256), "num_spines": (1, 256),
                              "hosts_per_leaf": (1, 256), "interval_ns": 1,
                              "agg_degree": 0, "mean_request_gap_ns": 0,
                              "chunk_ns": 1}, optional=("agg_degree",))


@dataclass
class ServiceReport:
    """Outcome of :meth:`ServiceRun.run`."""

    epochs_stored: int
    ticks: int
    sim_time_ns: int
    wall_seconds: float
    events: int
    stats: dict[str, int]

    @property
    def epochs_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.epochs_stored / self.wall_seconds

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds


class ServiceRun:
    """A wired, steppable snapshot service instance."""

    def __init__(self, spec: Optional[ServiceSpec] = None) -> None:
        self.spec = spec = spec or ServiceSpec()
        topo = leaf_spine(num_leaves=spec.num_leaves,
                          num_spines=spec.num_spines,
                          hosts_per_leaf=spec.hosts_per_leaf)
        self.network = Network(topo, NetworkConfig(seed=spec.seed))
        self.sim = self.network.sim
        aggregation = (None if spec.agg_degree is None
                       else AggregationConfig(degree=spec.agg_degree))
        self.deployment = deploy(self.network, metric=spec.metric,
                                 aggregation=aggregation)
        self.workload: Optional[MemcacheWorkload] = None
        if spec.mean_request_gap_ns > 0:
            self.workload = MemcacheWorkload(self.network, MemcacheConfig(
                seed=spec.seed, stop_ns=2**62,
                mean_request_gap_ns=spec.mean_request_gap_ns))
        self.pipeline = SnapshotPipeline(self.sim, self.deployment.observer,
                                         config=spec.pipeline)
        self.campaign = ContinuousCampaign(self.sim,
                                           self.deployment.observer,
                                           spec.interval_ns)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_engine(self) -> QueryEngine:
        resolver: Optional[FlowResolver] = None
        if self.spec.metric == "heavy_hitter":
            resolver = self._resolve_heavy_flows
        return QueryEngine(self.pipeline.store,
                           link_audit=LinkAudit(self.network),
                           flow_resolver=resolver)

    def _resolve_heavy_flows(self, device: str) -> list[tuple[str, str, int]]:
        switch = self.network.switches.get(device)
        if switch is None:
            return []
        out: list[tuple[str, str, int]] = []
        for unit in switch.snapshot_units():
            counter = unit.counters.get(self.spec.metric)
            flow, estimate = counter.top()
            if flow is not None and estimate > 0:
                out.append((str(unit.unit_id),
                            f"{flow.src}->{flow.dst}:{flow.dport}",
                            estimate))
        return out

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, epochs: int,
            on_chunk: Optional[Callable[["ServiceRun"], None]] = None,
            max_wall_seconds: Optional[float] = None) -> ServiceReport:
        """Step the simulation until ``epochs`` documents are stored —
        in total, so a later call with a higher target resumes the
        ticker and continues the same stream.

        ``on_chunk`` runs after every simulation chunk (progress
        reporting, mid-run sampling); ``max_wall_seconds`` is a safety
        valve for interactive use, not a soft target.
        """
        if epochs < 1:
            raise ValueError("epochs must be positive")
        if self.workload is not None:
            self.workload.start()
        self.campaign.start()
        started = time.perf_counter()
        start_events = self.sim.events_run
        while self.pipeline.ingested < epochs:
            self.sim.run(until=self.sim.now + self.spec.chunk_ns)
            if on_chunk is not None:
                on_chunk(self)
            if (max_wall_seconds is not None
                    and time.perf_counter() - started > max_wall_seconds):
                break
        self.campaign.stop()
        # Drain: let in-flight snapshots resolve and the ingest queue
        # empty so the report matches what queries will see.
        deadline = self.sim.now + 10 * self.spec.chunk_ns
        while self.pipeline.backlog and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + self.spec.chunk_ns)
        wall = time.perf_counter() - started
        return ServiceReport(
            epochs_stored=self.pipeline.ingested,
            ticks=self.campaign.ticks,
            sim_time_ns=self.sim.now,
            wall_seconds=wall,
            events=self.sim.events_run - start_events,
            stats=self.pipeline.stats())
