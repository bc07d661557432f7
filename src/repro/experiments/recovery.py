"""Recovery-policy sweep: the completion-vs-overhead frontier.

§6's recovery machinery has knobs on both sides of the management plane
— control-plane re-initiation timeouts, liveness-probe delay, periodic
register polls, observer retry/device timeouts — and the paper tunes
them once, for one deployment.  This experiment asks the operator's
question instead: across fault profiles of increasing nastiness, *what
does each extra recovery message buy?*

Each trial runs one (policy, profile) cell on the leaf-spine testbed:
a channel-state snapshot campaign over Poisson traffic, the profile's
compiled fault schedule armed, and the
:class:`~repro.core.recovery.RecoveryPolicy` threaded through the
deployment.  Reported per cell:

* **usable rate** — fraction of campaign epochs that completed *and*
  stayed consistent (what an operator can actually chart);
* **completion rate** — epochs fully assembled, consistent or not;
* **overhead/epoch** — recovery messages per epoch: re-initiations +
  liveness probes + proactive register polls + observer-driven retry
  re-registrations.  Plain initiations are excluded: every policy pays
  those.

The report marks, per profile, the policies on the Pareto frontier
(no other policy has both strictly better usable rate and lower
overhead) — the completion-vs-overhead frontier the ROADMAP asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

from repro.core import RecoveryPolicy, deploy
from repro.core.recovery import RECOVERY_PRESETS
from repro.core.sharded import OBSERVER_SHARD
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.campaigns import campaign_window, start_poisson
from repro.experiments.harness import TextTable, header
from repro.faults import (CorrelatedGroup, FaultInjector, FaultProfile,
                          IndependentFaults, ProfileContext)
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.engine import MS
from repro.sim.network import NetworkConfig
from repro.sim.shard import ShardRunner, ShardWorker
from repro.topology import leaf_spine

__all__ = [
    "EXPERIMENTS",
    "RecoveryConfig",
    "RecoveryResult",
    "assemble",
    "default_profiles",
    "run",
    "run_recovery_trial",
    "specs",
]


def default_profiles() -> dict[str, dict]:
    """The standard fault ladder: clean baseline, independent chaos,
    correlated rack loss (pinned mid-campaign so it hits live epochs)."""
    return {
        "clean": IndependentFaults(intensity=0.0).to_jsonable(),
        "iid-0.5": IndependentFaults(
            intensity=0.5,
            kinds=("link_down", "link_loss", "cp_crash", "cp_overflow",
                   "cp_slow")).to_jsonable(),
        "rack-loss": (CorrelatedGroup(at_ns=25 * MS)
                      | IndependentFaults(
                          intensity=0.25,
                          kinds=("link_delay", "cp_slow"))).to_jsonable(),
    }


@dataclass
class RecoveryConfig(ExperimentConfig):
    #: Serialized :class:`RecoveryPolicy` objects to sweep (named
    #: presets by default; any JSON policy works).
    policies: list[dict] = field(default_factory=lambda: [
        RECOVERY_PRESETS[name].to_jsonable()
        for name in ("paper-default", "eager", "patient", "polling")])
    #: Fault-profile label -> serialized :class:`FaultProfile`.
    profiles: dict[str, dict] = field(default_factory=default_profiles)
    rounds: int = 10
    interval_ns: int = 5 * MS
    rate_pps: float = 20_000.0
    hosts_per_leaf: int = 1
    #: Space-parallel simulation shards (:mod:`repro.sim.shard`).  With
    #: ``shards > 1`` each cell partitions the testbed across worker
    #: processes, every shard arms the fault events it owns, and
    #: the recovery machinery runs across the cut.  Sharded deployments
    #: cannot collect channel state, so the sharded sweep exercises the
    #: clean-protocol recovery path (no Poisson workload; per-unit
    #: consistency flags only) — overheads and completion remain
    #: directly comparable across policies.
    shards: int = 1

    @classmethod
    def quick(cls) -> "RecoveryConfig":
        return cls(policies=[RECOVERY_PRESETS[name].to_jsonable()
                             for name in ("paper-default", "eager",
                                          "patient")],
                   rounds=6)


@dataclass
class RecoveryResult:
    config: RecoveryConfig
    #: (policy name, profile label) -> trial data.
    rows: dict[tuple[str, str], dict[str, Any]]

    def frontier(self, profile: str) -> set[str]:
        """Policies on the usable-vs-overhead Pareto frontier for one
        profile: no other policy is strictly better on one axis and at
        least as good on the other."""
        cells = {policy: row for (policy, prof), row in self.rows.items()
                 if prof == profile}
        frontier = set()
        for name, row in cells.items():
            dominated = any(
                (other["usable_rate"] >= row["usable_rate"]
                 and other["overhead_per_epoch"] < row["overhead_per_epoch"])
                or (other["usable_rate"] > row["usable_rate"]
                    and other["overhead_per_epoch"]
                    <= row["overhead_per_epoch"])
                for other_name, other in cells.items() if other_name != name)
            if not dominated:
                frontier.add(name)
        return frontier

    def report(self) -> str:
        table = TextTable(["Profile", "Policy", "Usable", "Complete",
                           "Median TTC (ms)", "Overhead/epoch", "Frontier"])
        profiles = sorted({prof for (_p, prof) in self.rows})
        for profile in profiles:
            frontier = self.frontier(profile)
            for (policy, prof) in sorted(self.rows):
                if prof != profile:
                    continue
                row = self.rows[(policy, prof)]
                ttc = row["median_ttc_ns"]
                table.add(profile, policy,
                          f"{row['usable_rate']:.2f}",
                          f"{row['completion_rate']:.2f}",
                          f"{ttc / 1e6:.2f}" if ttc is not None else "-",
                          f"{row['overhead_per_epoch']:.1f}",
                          "*" if policy in frontier else "")
        return "\n".join([
            header("Recovery policies — completion vs. overhead frontier",
                   "what each extra §6 recovery message buys, per fault "
                   "profile (docs/FAULTS.md)"),
            table.render(),
            "overhead counts re-initiations + probes + register polls + "
            "observer retries per epoch; '*' marks the Pareto frontier "
            "(no policy with strictly better usable rate at no more "
            "overhead).",
        ])


def _context_for(config: RecoveryConfig) -> ProfileContext:
    """The compile context of a cell: the leaf-spine testbed over the
    campaign window, its lead-in left fault-free."""
    return ProfileContext.for_topology(
        leaf_spine(hosts_per_leaf=config.hosts_per_leaf),
        horizon_ns=config.rounds * config.interval_ns,
        start_ns=10 * MS, seed=config.seed)


def specs(config: RecoveryConfig) -> list[TrialSpec]:
    """One spec per (policy, profile) cell, the policy and profile
    sweeps narrowed to the cell, so both are part of the cache
    fingerprint.  Each profile is compiled here once, so a bad target
    fails before any trial runs."""
    context = _context_for(config)
    profiles = sorted(config.profiles.items())
    for _label, profile_json in profiles:
        FaultProfile.from_jsonable(profile_json).compile(context)
    out = []
    for policy in config.policies:
        name = RecoveryPolicy.from_jsonable(policy).name
        out += [TrialSpec.of("recovery_sweep", config,
                             f"recovery/{name}/{label}", policies=[policy],
                             profiles={label: profile})
                for label, profile in profiles]
    return out


def setup(worker: ShardWorker, config: RecoveryConfig, duration: int):
    """Per-shard setup of one (policy, profile) cell (``shards=1`` is
    the one shard that owns everything).  Every shard compiles the profile and arms its own
    events; recovery overhead comes back from every shard, completion
    from the observer shard."""
    single = worker.plan.num_shards == 1
    if single:
        # Sharded deployments cannot see cross-cut gating sets, so only
        # the one-shard sweep collects channel state — and only it needs
        # in-flight packets to collect.
        start_poisson(worker.network, seed=config.seed + 1,
                      rate_pps=config.rate_pps, stop_ns=duration)
    policy = RecoveryPolicy.from_jsonable(config.policies[0])
    deployment = deploy(worker, metric="packet_count", channel_state=single,
                        control_plane=policy.control_plane_config(),
                        observer=policy.observer_config())
    (profile,) = config.profiles.values()
    injector = FaultInjector(
        worker.network,
        FaultProfile.from_jsonable(profile).compile(_context_for(config)),
        deployment=deployment)
    injector.arm()
    epochs: list[int] = []
    if deployment.is_observer_shard:
        epochs.extend(deployment.schedule_campaign(config.rounds,
                                                   config.interval_ns))

    def finish() -> dict:
        cps = deployment.control_planes.values()
        result: dict = {
            "reinitiations": sum(cp.reinitiations_sent for cp in cps),
            "probes": sum(cp.probes_sent for cp in cps),
            "polls": sum(cp.polls_performed for cp in cps),
            "faults_applied": injector.applied,
        }
        if deployment.is_observer_shard:
            snapshots = [deployment.observer.snapshot(e) for e in epochs]
            completed = [s for s in snapshots if s.complete]
            usable = [s for s in completed if s.usable]
            spans = sorted(s.capture_to_read_ns for s in completed)
            result.update(
                total=len(snapshots), completed=len(completed),
                usable=len(usable),
                median_ttc_ns=spans[len(spans) // 2] if spans else None,
                retries=sum(s.retries for s in snapshots))
        return result

    return finish


@trial("recovery_sweep")
def run_recovery_trial(spec: TrialSpec) -> TrialResult:
    """One (policy, profile) cell: the observer shard assembles
    completion, and recovery overhead is summed across shards."""
    config = spec.config(RecoveryConfig)
    duration = campaign_window(config.rounds, config.interval_ns)
    results = ShardRunner(
        leaf_spine(hosts_per_leaf=config.hosts_per_leaf),
        NetworkConfig(seed=config.seed), shards=config.shards,
        setup=setup, setup_args=(config, duration)).run(duration)
    observer = results[OBSERVER_SHARD]
    total = observer["total"]
    reinitiations = sum(r["reinitiations"] for r in results)
    probes = sum(r["probes"] for r in results)
    polls = sum(r["polls"] for r in results)
    retries = observer["retries"]
    overhead = (reinitiations + probes + polls + retries) / total
    return make_result(spec, {
        "policy": RecoveryPolicy.from_jsonable(config.policies[0]).name,
        "profile": next(iter(config.profiles)),
        "total": total,
        "completed": observer["completed"],
        "completion_rate": observer["completed"] / total,
        "usable_rate": observer["usable"] / total,
        "median_ttc_ns": observer["median_ttc_ns"],
        "reinitiations": reinitiations,
        "probes": probes,
        "register_polls": polls,
        "observer_retries": retries,
        "overhead_per_epoch": overhead,
        "faults_applied": sum(r["faults_applied"] for r in results),
    })


def assemble(config: RecoveryConfig,
             results: Sequence[TrialResult]) -> RecoveryResult:
    return RecoveryResult(
        config=config,
        rows={(r.data["policy"], r.data["profile"]): dict(r.data)
              for r in results})


EXPERIMENTS = (
    Experiment("recovery",
               "completion-vs-overhead frontier of recovery policies",
               RecoveryConfig, specs, assemble),
)
run = EXPERIMENTS[0].run
