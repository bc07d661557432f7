"""Coordinated updates verified by snapshots: strategy x clock error.

The paper motivates snapshots with "is my network update consistent?"
(§8) but never closes the loop.  This experiment does: each trial runs
a canonical rollout — rebalance, detour, revert, drain, restore — on a
4-leaf/2-spine fabric under one update *strategy* and one injected
clock-error level, then renders per-wave verdicts from synchronized
snapshots that straddle each wave's generation-bumping instant
(:mod:`repro.updates.verify`).

The expected ordering (the reproduction target):

* :class:`~repro.updates.TimedSwap` — every device swaps at the same
  instant *on its own clock*.  Atomicity degrades monotonically as the
  injected PTP error grows, transient loops appear (TTL-expiry drops in
  the detour wave's mixed window) and the drain wave's withdrawal races
  its redirects into attributed black holes.
* :class:`~repro.updates.PhasedUpdate` — safe orderings with
  inter-phase gaps stay loop-free while the gap exceeds the skew, at
  the cost of a long mixed window (partial atomicity by design).
* :class:`~repro.updates.TwoPhaseVersioned` — per-packet version tags
  keep **every** error level loop-free and black-hole-free; only the
  commit instant (still clock-timed) shows in the atomicity score.

Each verdict pass runs with ``metric="fib_version"`` (gauge snapshots
of the forwarding generation).  A second *audit* pass re-runs the same
cell with ``metric="packet_count"`` + channel state and checks the
straddling cuts against :class:`~repro.analysis.invariants.LinkAudit`
and the ground-truth conservation law — updates may drop packets in
mixed windows; they must never corrupt a snapshot.

Each TrialSpec carries the config with its strategy and clock-error
sweeps narrowed to the cell (a serialized plan or fault profile rides
in it as JSON, same contract as the fault experiments — docs/SPECS.md),
so scenarios participate in the cache fingerprint; the trial and each
shard compile them where they arm them.  ``--fault-profile``
composes chaos on top; ``--update-plan`` swaps in a serialized plan;
``--shards N`` space-partitions each cell (verdicts must not change).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from collections.abc import Sequence
from typing import Any, Optional

from repro.analysis.consistency import ConsistencyChecker
from repro.analysis.invariants import LinkAudit
from repro.core import deploy
from repro.core.sharded import OBSERVER_SHARD
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.harness import TextTable, header
from repro.faults import FaultInjector, FaultProfile, FaultSchedule, \
    ProfileContext
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.shard import ShardRunner, ShardWorker
from repro.topology import Topology, leaf_spine
from repro.updates import (DropRecord, PhasedUpdate, TimedSwap,
                           TwoPhaseVersioned, UpdateContext, UpdatePlan,
                           UpdateSchedule, UpdateVerifier,
                           inject_clock_error, noiseless_ptp)

__all__ = [
    "EXPERIMENTS",
    "STRATEGIES",
    "UpdatesConfig",
    "UpdatesResult",
    "assemble",
    "canonical_plan",
    "run",
    "run_updates_trial",
    "scenarios",
    "specs",
]

#: Simulated horizon of one cell; the last wave fires at 75 ms and the
#: tail covers two-phase cleanups plus snapshot assembly.
HORIZON_NS = 100 * MS
RUN_UNTIL_NS = HORIZON_NS + 20 * MS

#: The built-in strategies, in presentation order.
STRATEGIES = ["timed", "phased", "twophase"]

#: The canonical rollout's route intents, shared by every strategy:
#: (instant, label, safe phase order, route changes).  Intents assume
#: the 4-leaf/2-spine testbed; ``canonical_plan`` turns them into a
#: concrete composed plan.
_LEAVES = [f"leaf{i}" for i in range(4)]
_REMOTE = {leaf: tuple(f"server{j}" for j in range(4)
                       if f"leaf{j}" != leaf)
           for leaf in _LEAVES}
_INTENTS: list[tuple[int, str, tuple[str, ...], tuple]] = [
    # Pin every leaf's remote traffic onto spine0 (pure atomicity wave:
    # no loop or black-hole risk whichever order devices swap in).
    (15 * MS, "rebalance", (),
     tuple((leaf, dst, ("spine0",))
           for leaf in _LEAVES for dst in _REMOTE[leaf])),
    # Detour server1 via the spine1 valley.  Under skew the pair is a
    # textbook loop: spine0 (fast clock) starts valleying through leaf0
    # while leaf0 (slow clock) still points back at spine0.
    (30 * MS, "detour", ("leaf0", "spine0"),
     (("leaf0", "server1", ("spine1",)),
      ("spine0", "server1", ("leaf0",)))),
    # Revert the detour (the reverse ordering happens to be safe here:
    # the slow clock swaps last, which is the consistent order).
    (45 * MS, "revert", ("spine0", "leaf0"),
     (("leaf0", "server1", ("spine0",)),
      ("spine0", "server1", ("leaf1",)))),
    # Drain spine0 for server3: the withdrawal races the redirects —
    # a fast-clocked withdrawal black-holes traffic the slow leaves
    # still send its way (attributed, because the wave withdrew).
    (60 * MS, "drain", ("leaf0", "leaf1", "leaf2", "spine0"),
     (("leaf0", "server3", ("spine1",)),
      ("leaf1", "server3", ("spine1",)),
      ("leaf2", "server3", ("spine1",)),
      ("spine0", "server3", ()))),
    # Restore the initial ECMP everywhere.
    (75 * MS, "restore", (),
     tuple([(leaf, dst, ("spine0", "spine1"))
            for leaf in _LEAVES for dst in _REMOTE[leaf]]
           + [("spine0", "server3", ("leaf3",))])),
]


def canonical_plan(strategy: str) -> UpdatePlan:
    """The canonical five-wave rollout under one update strategy."""
    parts: list[UpdatePlan] = []
    for at_ns, label, order, routes in _INTENTS:
        if strategy == "timed":
            parts.append(TimedSwap(at_ns=at_ns, routes=routes, label=label))
        elif strategy == "phased":
            parts.append(PhasedUpdate(at_ns=at_ns, gap_ns=2 * MS,
                                      routes=routes, order=order,
                                      label=label))
        elif strategy == "twophase":
            parts.append(TwoPhaseVersioned(at_ns=at_ns, routes=routes,
                                           label=label))
        else:
            raise ValueError(f"unknown update strategy {strategy!r} "
                             f"(expected one of {STRATEGIES})")
    plan = parts[0]
    for part in parts[1:]:
        plan = plan | part
    return plan


@dataclass
class UpdatesConfig(ExperimentConfig):
    seed: int = 69
    #: Injected PTP error levels: per-switch clock offsets are drawn
    #: once per level from a content-keyed Gaussian with this sigma
    #: (``repro.updates.inject_clock_error``), so the realized skew
    #: pattern is fixed across shard counts and scales with the level.
    clock_error_ns: list[int] = field(
        default_factory=lambda: [0, 2_000, 5_000, 15_000, 40_000, 100_000])
    strategies: list[str] = field(default_factory=lambda: list(STRATEGIES))
    #: Inter-packet gap of each all-to-all background flow.
    gap_ns: int = 12 * US
    #: Sender TTL: low enough that a transient loop expires inside the
    #: mixed window, high enough for the longest legitimate path.
    ttl: int = 6
    #: Serialized :class:`~repro.updates.UpdatePlan`
    #: (``plan.to_jsonable()``).  When set, the experiment sweeps this
    #: single plan over the clock-error levels instead of the built-in
    #: strategy set (the ``--update-plan`` CLI path).
    plan: Optional[dict] = None
    #: Serialized :class:`~repro.faults.FaultProfile`; composes a chaos
    #: layer on top of every cell (the ``--fault-profile`` CLI path).
    profile: Optional[dict] = None
    #: Re-run each cell with ``metric="packet_count"`` + channel state
    #: and audit the straddling cuts (single-process cells only).
    audit: bool = True
    #: Space-parallel shards per trial (``--shards``); verdicts must
    #: not depend on the shard count.
    shards: int = 1

    @classmethod
    def quick(cls) -> "UpdatesConfig":
        return cls(clock_error_ns=[0, 15_000, 100_000],
                   strategies=["timed", "twophase"], audit=False)

    @classmethod
    def chaos(cls) -> "UpdatesConfig":
        """Updates under faults: the quick grid with a mild independent
        chaos layer on top (``make chaos-smoke``)."""
        from repro.faults import IndependentFaults
        profile = IndependentFaults(
            intensity=0.25, kinds=("link_delay", "cp_slow"))
        config = cls.quick()
        config.profile = profile.to_jsonable()
        return config


def scenarios(config: UpdatesConfig) -> list[tuple[str, UpdatePlan]]:
    """The (strategy label, plan) pairs this config sweeps."""
    if config.plan is not None:
        plan = UpdatePlan.from_jsonable(config.plan)
        return [(f"plan-{plan.spec_type}", plan)]
    return [(strategy, canonical_plan(strategy))
            for strategy in config.strategies]


def _topology():
    return leaf_spine(num_leaves=4, num_spines=2, hosts_per_leaf=1)


def _update_schedule(plan: UpdatePlan, topology: Topology,
                     seed: int) -> UpdateSchedule:
    """A cell's plan compiled against ``topology`` over the horizon."""
    return plan.compile(UpdateContext.for_topology(
        topology, horizon_ns=HORIZON_NS, seed=seed))


def _fault_schedule(config: UpdatesConfig,
                    topology: Topology) -> FaultSchedule:
    """A cell's fault profile compiled against ``topology`` (empty
    without one)."""
    if config.profile is None:
        return FaultSchedule()
    return FaultProfile.from_jsonable(config.profile).compile(
        ProfileContext.for_topology(topology, horizon_ns=HORIZON_NS,
                                    start_ns=10 * MS, seed=config.seed))


def specs(config: UpdatesConfig) -> list[TrialSpec]:
    """One spec per (scenario, clock-error) cell, the strategy and
    clock-error sweeps narrowed to the cell, so the scenario is part of
    the cache fingerprint.  The plan and the fault profile are compiled
    here once, so a bad device or target fails before any trial runs."""
    topology = _topology()
    _fault_schedule(config, topology)
    out = []
    for label, plan in scenarios(config):
        _update_schedule(plan, topology, config.seed)
        strategy = {} if config.plan is not None else {"strategies": [label]}
        out += [TrialSpec.of("updates_sweep", config,
                             f"updates/{label}@{sigma}",
                             clock_error_ns=[sigma], **strategy)
                for sigma in config.clock_error_ns]
    return out


def _start_traffic(network: Network, hosts: Sequence[str], gap_ns: int,
                   ttl: int) -> None:
    """Deterministic all-to-all background traffic.

    Flow definitions are derived from the *global* host list so a shard
    worker (which owns a subset of the hosts) emits exactly the packets
    the single-process run emits from those hosts.
    """
    num = int(HORIZON_NS // gap_ns)
    for i, src in enumerate(hosts):
        host = network.hosts.get(src)
        if host is None:
            continue
        host.default_ttl = ttl
        for j, dst in enumerate(hosts):
            if src == dst:
                continue
            host.send_flow(dst, num, sport=9000 + j, dport=7000,
                           gap_ns=gap_ns, start_delay_ns=17 * i)


def _wave_cuts(observer, wave_epochs: dict[int, int]) -> dict[int, dict]:
    """Per wave: the straddling cut reduced to plain data (epoch,
    usability, per-device minimum ingress generation)."""
    cuts = {}
    for wave_index, epoch in wave_epochs.items():
        snap = observer.snapshot(epoch)
        usable = snap is not None and snap.usable
        cuts[wave_index] = {
            "epoch": epoch,
            "usable": usable,
            "gens": (UpdateVerifier.device_generations(snap)
                     if usable else None),
        }
    return cuts


def _render(verifier: UpdateVerifier, cuts: dict[int, dict],
            drops: Sequence[DropRecord]) -> list:
    return [verifier.verdict_data(
                wave,
                cuts.get(wave.index, {}).get("gens"),
                cuts.get(wave.index, {}).get("epoch"),
                drops)
            for wave in verifier.schedule.waves]


def setup(worker: ShardWorker, config: UpdatesConfig, plan: UpdatePlan,
          audit: bool = False):
    """Per-shard setup of one cell (``shards=1`` is the one shard that
    owns everything).
    Each worker compiles the plan and the fault profile and arms the
    commands and events it owns; the observer shard pre-schedules the
    straddling snapshots; every shard ships its drop log home as plain
    tuples.

    ``audit`` selects the conservation pass instead of the verdict
    pass: same cell, ``packet_count`` + channel state (hence one shard
    only), straddling cuts audited against the link non-negativity
    invariant and the trace-replayed conservation law.
    """
    network = worker.network
    schedule = _update_schedule(plan, network.topology, config.seed)
    (sigma,) = config.clock_error_ns
    offsets = inject_clock_error(network, sigma, seed=config.seed)
    deployment = deploy(
        worker, updates=schedule,
        **(dict(metric="packet_count", channel_state=True) if audit
           else dict(metric="fib_version")))
    injector = FaultInjector(
        network, _fault_schedule(config, network.topology),
        deployment=deployment)
    injector.arm()
    wave_epochs: dict[int, int] = {}
    if deployment.is_observer_shard:
        instants = UpdateVerifier(schedule).snapshot_instants()
        for w, at in sorted(instants.items()):
            wave_epochs[w] = deployment.observer.take_snapshot(at_wall_ns=at)
    _start_traffic(network, sorted(network.topology.hosts),
                   config.gap_ns, config.ttl)

    def finish_audit() -> dict[str, Any]:
        snapshots = [deployment.observer.snapshot(e)
                     for e in wave_epochs.values()]
        link_audit = LinkAudit(network).audit_completed(snapshots)
        checker = ConsistencyChecker(deployment.ids, metric="packet_count")
        checker.ingest(network.trace_log)
        consistency = checker.audit(snapshots, channel_state=True)
        return {
            "audit_ok": link_audit.ok,
            "audit_summary": str(link_audit),
            "consistency_ok": consistency.ok,
            "consistency_summary": str(consistency),
            "consistency_violations": list(consistency.violations),
        }

    def finish() -> dict[str, Any]:
        result: dict[str, Any] = {
            "drops": [(d.time_ns, d.device, d.kind, d.dst)
                      for d in deployment.update_driver.drops],
            "applied": len(deployment.update_driver.applied),
            "faults_applied": injector.applied,
            "offsets": offsets,
        }
        if deployment.is_observer_shard:
            result["cuts"] = _wave_cuts(deployment.observer, wave_epochs)
        return result

    return finish_audit if audit else finish


def _run_pass(config: UpdatesConfig, plan: UpdatePlan, *,
              audit: bool) -> list[dict[str, Any]]:
    """One simulation of the cell; the per-shard finish results."""
    return ShardRunner(
        _topology(),
        NetworkConfig(seed=config.seed, ptp_config=noiseless_ptp(),
                      enable_tracing=audit),
        shards=config.shards, setup=setup,
        setup_args=(config, plan, audit)).run(RUN_UNTIL_NS)


def _fold(verifier: UpdateVerifier, cuts: dict[int, dict],
          drops: Sequence[DropRecord]) -> dict[str, Any]:
    verdicts = _render(verifier, cuts, drops)
    atoms = [v.atomicity for v in verdicts if v.atomicity is not None]
    return {
        "verdicts": [asdict(v) for v in verdicts],
        "mean_atomicity": (sum(atoms) / len(atoms)) if atoms else None,
        "conclusive_waves": sum(1 for v in verdicts if v.conclusive),
        "total_waves": len(verdicts),
        "loop_drops": sum(v.loop_drops for v in verdicts),
        "blackhole_drops": sum(v.blackhole_drops for v in verdicts),
        "attributed_blackholes": sum(v.attributed_blackholes
                                     for v in verdicts),
        "stale_devices": sorted({d for v in verdicts
                                 for d in v.stale_devices}),
    }


@trial("updates_sweep")
def run_updates_trial(spec: TrialSpec) -> TrialResult:
    config = spec.config(UpdatesConfig)
    ((_label, plan),) = scenarios(config)
    verifier = UpdateVerifier(_update_schedule(plan, _topology(),
                                               config.seed))
    results = _run_pass(config, plan, audit=False)
    drops = [DropRecord(*row) for shard in results
             for row in shard["drops"]]
    drops.sort(key=lambda d: (d.time_ns, d.device, d.kind, d.dst))
    data = _fold(verifier, results[OBSERVER_SHARD]["cuts"], drops)
    data["updates_applied"] = sum(shard["applied"] for shard in results)
    data["faults_applied"] = sum(shard["faults_applied"]
                                 for shard in results)
    if config.shards == 1:
        # Single-process cells also report the realized offsets and,
        # when asked, run the conservation pass (it needs channel state).
        data["offsets"] = results[0]["offsets"]
        if config.audit:
            data.update(_run_pass(config, plan, audit=True)[0])
    return make_result(spec, data)


@dataclass
class UpdatesResult:
    config: UpdatesConfig
    #: (scenario label, sigma_ns) -> trial data
    rows: dict[tuple[str, int], dict[str, Any]]

    def _series(self, label: str) -> list[tuple[int, dict[str, Any]]]:
        return sorted(((sigma, row) for (lab, sigma), row
                       in self.rows.items() if lab == label),
                      key=lambda item: item[0])

    @property
    def labels(self) -> list[str]:
        return sorted({label for label, _sigma in self.rows})

    @property
    def ordering_ok(self) -> bool:
        """The reproduction target: TimedSwap atomicity monotonically
        non-increasing in the injected clock error, TwoPhaseVersioned
        loop-free (and black-hole-free) at every level."""
        ok = True
        timed = [row["mean_atomicity"] for _s, row in self._series("timed")
                 if row["mean_atomicity"] is not None]
        ok &= all(a >= b - 1e-9 for a, b in zip(timed, timed[1:]))
        for _sigma, row in self._series("twophase"):
            ok &= row["loop_drops"] == 0 and row["blackhole_drops"] == 0
        return bool(ok)

    @property
    def all_audits_ok(self) -> bool:
        return all(row.get("audit_ok", True)
                   and row.get("consistency_ok", True)
                   for row in self.rows.values())

    def report(self) -> str:
        table = TextTable(["Strategy", "Clock err (us)", "Atomicity",
                           "Loops", "Black holes", "Attributed",
                           "Conclusive", "Audits"])
        for label in self.labels:
            for sigma, row in self._series(label):
                mean = row["mean_atomicity"]
                audit = "-"
                if "audit_ok" in row:
                    audit = ("OK" if row["audit_ok"]
                             and row["consistency_ok"] else "VIOLATED")
                table.add(label, f"{sigma / 1e3:g}",
                          f"{mean:.3f}" if mean is not None else "-",
                          row["loop_drops"], row["blackhole_drops"],
                          row["attributed_blackholes"],
                          f"{row['conclusive_waves']}/{row['total_waves']}",
                          audit)
        lines = [
            header("Coordinated updates, verified by snapshots",
                   "atomicity / loop / black-hole verdicts per strategy "
                   "and injected clock error (docs/UPDATES.md)"),
            table.render(),
            "atomicity = fraction of each wave's devices whose minimum "
            "captured ingress generation met the wave's expectation, "
            "averaged over conclusive waves.",
            f"expected ordering (timed degrades monotonically, twophase "
            f"loop-free at every level): "
            f"{'OK' if self.ordering_ok else 'VIOLATED'}",
        ]
        if not self.all_audits_ok:
            lines.append("*** AUDIT VIOLATIONS — snapshots corrupted by "
                         "an update; see per-row summaries ***")
        return "\n".join(lines)


def assemble(config: UpdatesConfig,
             results: Sequence[TrialResult]) -> UpdatesResult:
    cells = [(label, sigma) for label, _plan in scenarios(config)
             for sigma in config.clock_error_ns]
    return UpdatesResult(config=config,
                         rows={cell: dict(r.data)
                               for cell, r in zip(cells, results)})


EXPERIMENTS = (
    Experiment("updates",
               "coordinated-update verdicts vs. injected clock error",
               UpdatesConfig, specs, assemble),
)
run = EXPERIMENTS[0].run
