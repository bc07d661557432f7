"""Protocol-level scaling study: the Figure 11 companion.

Figure 11's methodology (ours and the paper's) is a Monte-Carlo over
jitter distributions.  This experiment runs the *actual protocol* —
observer registration, per-switch control planes, initiation sweeps,
notification processing, record shipping — on progressively larger
fat-tree networks, and reports:

* realized snapshot synchronization (same §8.1 definition),
* completion: do all units finalize every epoch,
* end-to-end completion latency at the observer,
* notification load per switch.

Because initiation needs no data traffic (every unit hears the control
plane directly), the study isolates protocol scaling from workload
scaling; Speedlight's per-switch control planes mean the only
size-coupled quantity is the synchronization tail, exactly as §8.2
claims ("control planes are responsible for their own switch").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Optional

from repro.analysis.stats import Cdf
from repro.core import (AggregationConfig, GlobalSnapshot, ObserverConfig,
                        SnapshotStatus, deploy)
from repro.core.deployment import merge_progress
from repro.core.sharded import OBSERVER_SHARD
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.campaigns import start_poisson
from repro.experiments.harness import TextTable, header
from repro.faults import FaultInjector, FaultProfile, ProfileContext
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.engine import MS
from repro.sim.network import NetworkConfig
from repro.sim.shard import ShardRunner, ShardWorker
from repro.topology import fat_tree

__all__ = [
    "EXPERIMENTS",
    "ScalingConfig",
    "ScalingPoint",
    "ScalingResult",
    "assemble",
    "run",
    "run_trial",
    "specs",
]


@dataclass
class ScalingConfig(ExperimentConfig):
    #: Fat-tree arities to instantiate (k=4 -> 20 switches, k=6 -> 45,
    #: k=8 -> 80).
    arities: list[int] = field(default_factory=lambda: [4, 6, 8])
    snapshots: int = 15
    interval_ns: int = 10 * MS
    #: Serialized :class:`~repro.faults.FaultProfile`.  When set, each
    #: arity compiles it against that fat-tree's own target inventory
    #: (fixed per-target intensity, growing target count), the
    #: deployment collects channel state over Poisson traffic, and the
    #: flagged-inconsistent fraction per arity becomes part of the
    #: reported curve.
    profile: Optional[dict] = None
    #: Aggregate Poisson traffic rate while a fault profile is active
    #: (channel state needs in-flight packets to be worth flagging).
    #: Divided evenly across all host pairs, so the *offered load* — and
    #: the simulation cost — stays constant as the fat-tree grows.
    rate_pps: float = 50_000.0
    #: Simulation shards (:mod:`repro.sim.shard`).  With ``shards > 1``
    #: the fat-tree is partitioned into shards stepped in conservative
    #: rounds in this process, with one Speedlight slice per shard; the
    #: clean protocol path only (fault profiles need channel state,
    #: which sharded deployments do not support).
    shards: int = 1
    #: Aggregation-tree fan-out (:mod:`repro.core.aggregation`).  None —
    #: the default — ships records over the flat unicast path; 0 models
    #: a flat observer intake; >= 1 routes records through a spanning
    #: relay tree of that degree (docs/AGGREGATION.md).
    agg_degree: Optional[int] = None

    @classmethod
    def quick(cls) -> "ScalingConfig":
        return cls(arities=[4, 6], snapshots=8)


@dataclass
class ScalingPoint:
    switches: int
    units: int
    sync: Cdf
    completion_latency_ns: float
    completed: int
    expected: int
    notifications_per_switch: float
    #: Fraction of completed epochs flagged inconsistent (fault-profile
    #: runs only; None for clean protocol-scaling runs).
    inconsistent_fraction: Optional[float] = None
    faults_applied: int = 0


@dataclass
class ScalingResult:
    config: ScalingConfig
    points: dict[int, ScalingPoint]  # arity -> measurements

    def report(self) -> str:
        faulted = any(p.inconsistent_fraction is not None
                      for p in self.points.values())
        columns = ["k", "Switches", "Units", "Sync p50 (us)",
                   "Sync max (us)", "Completion p50 (ms)",
                   "Complete", "Notifs/switch"]
        if faulted:
            columns += ["Inconsistent", "Faults"]
        table = TextTable(columns)
        for arity in sorted(self.points):
            p = self.points[arity]
            row = [arity, p.switches, p.units, p.sync.median / 1e3,
                   p.sync.max / 1e3, p.completion_latency_ns / 1e6,
                   f"{p.completed}/{p.expected}",
                   f"{p.notifications_per_switch:.0f}"]
            if faulted:
                row += ["-" if p.inconsistent_fraction is None
                        else f"{p.inconsistent_fraction:.2f}",
                        p.faults_applied]
            table.add(*row)
        closing = ("with a fault profile at fixed per-target intensity, "
                   "the flagged-inconsistent fraction per arity is the "
                   "curve of interest: honesty scales with the fabric."
                   if faulted else
                   "expected: completion stays total; sync grows only via "
                   "the max-over-more-samples tail; per-switch load tracks "
                   "that switch's port count (2 notifications/port/"
                   "snapshot), not the network size (§8.2: 'control planes "
                   "are responsible for their own switch').")
        return "\n".join([
            header("Scaling — the full protocol on growing fat-trees",
                   "end-to-end runs (not Monte-Carlo); every epoch must "
                   "complete on every unit"),
            table.render(),
            closing])


# ----------------------------------------------------------------------
# Trial decomposition
# ----------------------------------------------------------------------

def specs(config: ScalingConfig) -> list[TrialSpec]:
    """One spec per fat-tree arity.  The fault profile (if any) rides in
    the config, so it is part of the cache fingerprint; it is compiled
    per arity inside the trial, against that fat-tree's own targets."""
    return [TrialSpec.of("scaling", config, f"scaling/k{arity}",
                         arities=[arity])
            for arity in config.arities]


@trial("scaling")
def run_trial(spec: TrialSpec) -> TrialResult:
    return make_result(spec, _measure(spec.config(ScalingConfig)))


def assemble(config: ScalingConfig,
             results: Sequence[TrialResult]) -> ScalingResult:
    points = {}
    for arity, r in zip(config.arities, results):
        data = dict(r.data)
        points[arity] = ScalingPoint(sync=Cdf(data.pop("sync_samples")),
                                     **data)
    return ScalingResult(config=config, points=points)


EXPERIMENTS = (
    Experiment("scaling", "full protocol on growing fat-trees",
               ScalingConfig, specs, assemble),
)
run = EXPERIMENTS[0].run


def setup(worker: ShardWorker, config: ScalingConfig, duration: int):
    """Per-shard setup of one scaling measurement (``shards=1`` is the
    one shard that owns everything).

    The returned finish callable gives plain dicts: progress samples and
    notification stats from every shard, campaign bookkeeping from the
    observer shard only.
    """
    network = worker.network
    topo = network.topology
    faulted = config.profile is not None
    if faulted:
        # Same per-target profile, bigger fabric: the compiled schedule
        # grows with the arity while each target's exposure stays fixed.
        schedule = FaultProfile.from_jsonable(config.profile).compile(
            ProfileContext.for_topology(
                topo, horizon_ns=config.snapshots * config.interval_ns,
                start_ns=10 * MS, seed=config.seed))
        hosts = len(topo.hosts)
        pairs = max(1, hosts * (hosts - 1))
        start_poisson(network, seed=config.seed + 1,
                      rate_pps=config.rate_pps / pairs, stop_ns=duration)
    deployment = deploy(
        worker, metric="packet_count", channel_state=faulted,
        observer=ObserverConfig(lead_time_ns=10 * MS),
        aggregation=(None if config.agg_degree is None
                     else AggregationConfig(degree=config.agg_degree)))
    injector = None
    if faulted:
        injector = FaultInjector(network, schedule, deployment=deployment)
        injector.arm()
    finish_times: dict[int, int] = {}
    epochs: list[int] = []
    if deployment.is_observer_shard:
        def finished(snap: GlobalSnapshot) -> None:
            if snap.status is SnapshotStatus.COMPLETE:
                finish_times[snap.epoch] = worker.sim.now

        deployment.observer.on_resolved(finished)
        epochs.extend(deployment.schedule_campaign(config.snapshots,
                                                   config.interval_ns))

    def finish() -> dict:
        result: dict = {
            "progress": merge_progress(
                cp.progress for cp in deployment.control_planes.values()),
            "notifications": deployment.notification_stats(),
        }
        if deployment.is_observer_shard:
            snaps = [deployment.observer.snapshot(e) for e in epochs]
            result["epochs"] = list(epochs)
            result["finish"] = dict(finish_times)
            result["requested"] = {s.epoch: s.requested_wall_ns
                                   for s in snaps}
            if injector is not None:
                done = [s for s in snaps if s.complete]
                flagged = [s for s in done if not s.consistent]
                result["inconsistent_fraction"] = (len(flagged) / len(done)
                                                   if done else 0.0)
                result["faults_applied"] = injector.applied
        return result

    return finish


def _measure(config: ScalingConfig) -> dict:
    """One protocol-scaling measurement at the config's one arity, as
    trial data (a :class:`ScalingPoint`'s fields, the CDF as its
    samples): the fat-tree is partitioned across ``config.shards``
    shards, each runs its own Speedlight slice, and the observer (shard
    0) coordinates campaigns across the cut.  Per-shard results are
    merged here in shard order."""
    if config.profile is not None and config.shards > 1:
        raise ValueError(
            "fault profiles need channel state, which sharded "
            "deployments do not support; run scaling with shards=1")
    (arity,) = config.arities
    topo = fat_tree(k=arity)
    duration = 30 * MS + config.snapshots * config.interval_ns + 500 * MS
    results = ShardRunner(
        topo, NetworkConfig(seed=config.seed), shards=config.shards,
        setup=setup, setup_args=(config, duration)).run(duration)
    observer = results[OBSERVER_SHARD]
    epochs = observer["epochs"]
    finish = observer["finish"]
    # §8.1 synchronization, aggregated across shards: every shard
    # reports the earliest and latest data-plane timestamp and the
    # sample count of its units, per epoch.
    per_epoch = merge_progress(shard["progress"] for shard in results)
    spreads = []
    for epoch in epochs:
        earliest, latest, count = per_epoch.get(epoch, (0, 0, 0))
        if count >= 2:
            spreads.append(latest - earliest)
    latencies = sorted(finish[e] - observer["requested"][e]
                       for e in epochs if e in finish)
    processed = sum(shard["notifications"]["processed"]
                    for shard in results)
    num_switches = len(topo.switches)
    return {
        "switches": num_switches,
        # Builders connect every port, so a switch's unit count is twice
        # its topological degree.
        "units": sum(2 * topo.degree(s) for s in topo.switches),
        "sync_samples": [float(s) for s in Cdf(spreads).samples],
        "completion_latency_ns": (latencies[len(latencies) // 2]
                                  if latencies else float("nan")),
        "completed": len(finish), "expected": len(epochs),
        "notifications_per_switch": processed / num_switches,
        "inconsistent_fraction": observer.get("inconsistent_fraction"),
        "faults_applied": observer.get("faults_applied", 0),
    }
