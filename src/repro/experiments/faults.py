"""Snapshots under failure: fault scenarios vs. snapshot health.

The paper's robustness story (§4.2, §6) is qualitative: dropped packets,
dropped notifications and slow control planes delay snapshots or mark
them inconsistent, but never corrupt them.  This experiment makes the
story quantitative.  Each trial runs a full snapshot campaign on the
leaf-spine testbed while a :class:`~repro.faults.FaultInjector` replays
a deterministic :class:`~repro.faults.FaultProfile` — by default the
classic :class:`~repro.faults.IndependentFaults` intensity sweep, or any
serialized profile (correlated rack loss, maintenance windows,
cascades, composites) via :attr:`FaultsConfig.profile` or the
``--fault-profile`` CLI flag.

Reported per scenario:

* **completion rate** — fraction of campaign epochs fully assembled;
* **time-to-complete** — median capture-to-read span of completed
  snapshots (faults stretch it via retries and recovery polls);
* **fraction marked inconsistent** — the protocol being *honest* about
  epochs whose channel state it could not guarantee;
* **per-epoch attribution** — which fault spans overlapped each
  degraded epoch's collection window
  (:mod:`repro.faults.attribution`), so a flagged epoch traces to the
  link flap or CP crash that caused it;
* **audit verdicts** — every completed-and-consistent snapshot must
  pass :class:`~repro.analysis.invariants.LinkAudit` (non-negative link
  discrepancies) and the ground-truth conservation law
  (:class:`~repro.analysis.consistency.ConsistencyChecker`).  Faults may
  stall or degrade snapshots; they must never make one silently wrong.

Each TrialSpec carries the config, its intensity sweep narrowed to the
trial's scenario, so the scenario participates in the cache
fingerprint: change the scenario, invalidate the cache.  The trial
compiles its profile against the same context :func:`specs` checked it
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any, Optional

from repro.analysis.consistency import ConsistencyChecker
from repro.analysis.invariants import LinkAudit
from repro.core import deploy
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.campaigns import campaign_window, start_poisson
from repro.experiments.harness import TextTable, header
from repro.faults import (CorrelatedGroup, FaultInjector, FaultProfile,
                          IndependentFaults, ProfileContext)
from repro.runtime import TrialResult, TrialRunner, TrialSpec, make_result, trial
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine

__all__ = [
    "DATAPLANE_KINDS",
    "DEFAULT_KINDS",
    "EXPERIMENTS",
    "FaultsConfig",
    "FaultsResult",
    "PartialInvariance",
    "assemble",
    "partial_invariance",
    "run",
    "run_faults_trial",
    "scenarios",
    "specs",
]

#: Default fault mix: every kind the injector supports.
DEFAULT_KINDS = ["link_down", "link_loss", "link_delay", "queue_squeeze",
                 "unit_stall", "cp_crash", "cp_overflow", "cp_slow",
                 "clock_holdover", "clock_step"]

#: Fault mix for devices with no control plane (non-deployed switches in
#: a partial deployment): everything except the ``cp_*`` kinds, whose
#: targets would be unresolvable at arm() time.
DATAPLANE_KINDS = ["link_down", "link_loss", "link_delay", "queue_squeeze",
                   "unit_stall", "clock_holdover", "clock_step"]


@dataclass
class FaultsConfig(ExperimentConfig):
    #: Expected fault events per (kind, target) over the campaign window
    #: (the default IndependentFaults sweep; ignored when ``profile`` is
    #: set).
    intensities: list[float] = field(
        default_factory=lambda: [0.0, 0.25, 0.5, 1.0])
    rounds: int = 12
    interval_ns: int = 5 * MS
    rate_pps: float = 20_000.0
    hosts_per_leaf: int = 1
    kinds: list[str] = field(default_factory=lambda: list(DEFAULT_KINDS))
    #: Serialized :class:`~repro.faults.FaultProfile`
    #: (``profile.to_jsonable()``).  When set, the experiment runs this
    #: single scenario instead of the intensity sweep.
    profile: Optional[dict] = None
    #: Participating switches (§10 partial deployment); None = all.
    deploy_switches: Optional[list[str]] = None
    #: Restrict fault targets to these switches: switch/clock faults on
    #: members only, link faults on fabric links with a member endpoint.
    #: None = the full inventory.
    fault_switches: Optional[list[str]] = None

    @classmethod
    def quick(cls) -> "FaultsConfig":
        return cls(intensities=[0.0, 0.5], rounds=6)

    @classmethod
    def partial_spine(cls, intensity: float = 1.0) -> "FaultsConfig":
        """The §10 partial-deployment scenario: Speedlight on the leaves
        only, chaos aimed at the spines (which carry no snapshot state).
        Channels toward non-participating neighbors are excluded from
        gating, so spine failures may drop or delay traffic but must
        never flag an epoch — :func:`partial_invariance` asserts it."""
        return cls(intensities=[0.0, intensity], rounds=6,
                   kinds=list(DATAPLANE_KINDS),
                   deploy_switches=["leaf0", "leaf1"],
                   fault_switches=["spine0", "spine1"])

    @classmethod
    def correlated(cls) -> "FaultsConfig":
        """A correlated scenario: rack power loss (all fabric links + CP
        of one switch) on top of a mild independent background.  The
        group is pinned mid-campaign so it demonstrably lands on live
        epochs instead of wherever the uniform draw happens to fall."""
        profile = (CorrelatedGroup(at_ns=25 * MS)
                   | IndependentFaults(intensity=0.25,
                                       kinds=("link_delay", "cp_slow")))
        return cls(rounds=8, profile=profile.to_jsonable())


def scenarios(config: FaultsConfig) -> list[tuple[str, FaultProfile]]:
    """The (label, profile) pairs this config sweeps."""
    if config.profile is not None:
        profile = FaultProfile.from_jsonable(config.profile)
        return [(f"profile-{profile.spec_type}", profile)]
    return [(f"iid-{intensity:g}",
             IndependentFaults(intensity=intensity, kinds=tuple(config.kinds)))
            for intensity in config.intensities]


def _context_for(config: FaultsConfig) -> ProfileContext:
    """The compile context for the leaf-spine testbed: fabric links,
    switches, clocks; the campaign lead-in is left fault-free so epoch 1
    always has a clean initiation to recover from.  With
    ``fault_switches`` set, the inventory is narrowed to those devices
    (and the fabric links touching them)."""
    topo = leaf_spine(hosts_per_leaf=config.hosts_per_leaf)
    context = ProfileContext.for_topology(
        topo, horizon_ns=config.rounds * config.interval_ns,
        start_ns=10 * MS, seed=config.seed)
    if config.fault_switches is None:
        return context
    members = set(config.fault_switches)
    unknown = sorted(members - set(context.switches))
    if unknown:
        raise ValueError(
            f"fault_switches names unknown switch(es): {', '.join(unknown)}")
    return ProfileContext(
        horizon_ns=context.horizon_ns,
        links=tuple(link for link in context.links
                    if set(link.split("-")) & members),
        switches=tuple(s for s in context.switches if s in members),
        clocks=tuple(c for c in context.clocks if c in members),
        start_ns=context.start_ns, seed=context.seed)


@dataclass
class FaultsResult:
    config: FaultsConfig
    rows: dict[str, dict[str, Any]]  # scenario label -> trial data

    @property
    def all_audits_ok(self) -> bool:
        return all(row["audit_ok"] and row["consistency_ok"]
                   for row in self.rows.values())

    def report(self) -> str:
        table = TextTable(["Scenario", "Faults", "Completion",
                           "Median TTC (ms)", "Inconsistent", "Audits"])
        for label in sorted(self.rows):
            row = self.rows[label]
            ttc = row["median_ttc_ns"]
            table.add(label, row["faults_applied"],
                      f"{row['completion_rate']:.2f}",
                      f"{ttc / 1e6:.2f}" if ttc is not None else "-",
                      f"{row['inconsistent_fraction']:.2f}",
                      "OK" if row["audit_ok"] and row["consistency_ok"]
                      else "VIOLATED")
        lines = [
            header("Snapshots under failure — fault scenario sweep",
                   "completion / latency / honesty of snapshots as the "
                   "chaos layer turns up (docs/FAULTS.md)"),
            table.render(),
            "completed+consistent snapshots are audited against the "
            "link non-negativity invariant and the ground-truth "
            "conservation law; inconsistent epochs are *flagged*, "
            "never silently wrong.",
        ]
        attribution = self._attribution_lines()
        if attribution:
            lines.append("per-epoch attribution (degraded epochs and the "
                         "fault spans overlapping their windows):")
            lines.extend(attribution)
        if not self.all_audits_ok:
            lines.append("*** AUDIT VIOLATIONS — see per-row details ***")
        return "\n".join(lines)

    def _attribution_lines(self) -> list[str]:
        lines = []
        for label in sorted(self.rows):
            for att in self.rows[label].get("attribution", []):
                if att["complete"] and att["consistent"] \
                        and not att["excluded_devices"]:
                    continue
                state = []
                if not att["complete"]:
                    state.append("incomplete")
                if not att["consistent"]:
                    state.append("flagged inconsistent")
                if att["excluded_devices"]:
                    state.append(
                        "excluded " + ",".join(att["excluded_devices"]))
                culprits = ", ".join(
                    f"{s['kind']}({s['target']})"
                    for s in att["overlapping"]) or "no overlapping fault"
                lines.append(f"  {label}: epoch {att['epoch']} "
                             f"{' + '.join(state)} <- {culprits}")
        return lines


def specs(config: FaultsConfig) -> list[TrialSpec]:
    """One spec per fault scenario; the profile rides in the config (or
    the scenario's intensity in its narrowed sweep), so the scenario is
    part of the cache fingerprint.  Each profile is compiled here once,
    so a bad target fails before any trial runs."""
    context = _context_for(config)
    out = []
    for label, profile in scenarios(config):
        profile.compile(context)
        sweep = ({} if config.profile is not None
                 else {"intensities": [profile.intensity]})
        out.append(TrialSpec.of("faults_sweep", config, f"faults/{label}",
                                **sweep))
    return out


@trial("faults_sweep")
def run_faults_trial(spec: TrialSpec) -> TrialResult:
    config = spec.config(FaultsConfig)
    ((_label, profile),) = scenarios(config)
    schedule = profile.compile(_context_for(config))
    # Tracing on: the consistency audit replays ground truth from the
    # trace (campaigns.poisson_network has no tracing knob, so build
    # the leaf-spine network directly).
    network = Network(leaf_spine(hosts_per_leaf=config.hosts_per_leaf),
                      NetworkConfig(seed=config.seed, enable_tracing=True))
    duration = campaign_window(config.rounds, config.interval_ns)
    start_poisson(network, seed=config.seed + 1, rate_pps=config.rate_pps,
                  stop_ns=duration)
    deployment = deploy(network, metric="packet_count", channel_state=True,
                        switches=(None if config.deploy_switches is None
                                  else sorted(config.deploy_switches)))
    injector = FaultInjector(network, schedule, deployment=deployment)
    injector.arm()
    epochs = deployment.schedule_campaign(config.rounds, config.interval_ns)
    network.run(until=duration)

    observer = deployment.observer
    snapshots = [observer.snapshot(epoch) for epoch in epochs]
    completed = [s for s in snapshots if s.complete]
    inconsistent = [s for s in completed if not s.consistent]
    spans = sorted(s.capture_to_read_ns for s in completed)
    median_ttc = spans[len(spans) // 2] if spans else None

    # Per-epoch attribution: which fault spans overlapped which epoch.
    attribution = injector.attribution(snapshots, horizon_ns=duration)

    # Verification: completed+consistent snapshots must pass both audits.
    link_audit = LinkAudit(network).audit_completed(snapshots)
    checker = ConsistencyChecker(deployment.ids, metric="packet_count")
    checker.ingest(network.trace_log)
    consistency = checker.audit(snapshots, channel_state=True)

    crashes = sum(cp.crashes for cp in deployment.control_planes.values())
    return make_result(spec, {
        "completed": len(completed),
        "total": len(snapshots),
        # Epochs the protocol had to flag: never assembled, or assembled
        # but honest about unguaranteed channel state.
        "flagged": (len(snapshots) - len(completed)) + len(inconsistent),
        "completion_rate": len(completed) / len(snapshots),
        "inconsistent_fraction": (len(inconsistent) / len(completed)
                                  if completed else 0.0),
        "median_ttc_ns": median_ttc,
        "faults_applied": injector.applied,
        "faults_reverted": injector.reverted,
        "cp_crashes": crashes,
        "attribution": [a.to_jsonable() for a in attribution],
        "epochs_faulted": sum(1 for a in attribution if a.faulted),
        "epochs_degraded": sum(1 for a in attribution if not a.clean),
        "audit_ok": link_audit.ok,
        "audit_summary": str(link_audit),
        "negative_discrepancies": len(link_audit.negative_discrepancies),
        "consistency_ok": consistency.ok,
        "consistency_summary": str(consistency),
        "consistency_violations": list(consistency.violations),
    })


def assemble(config: FaultsConfig,
             results: Sequence[TrialResult]) -> FaultsResult:
    return FaultsResult(config=config,
                        rows={label: dict(r.data) for (label, _profile), r
                              in zip(scenarios(config), results)})


EXPERIMENTS = (
    Experiment("faults", "snapshot health vs. fault intensity (chaos)",
               FaultsConfig, specs, assemble),
)
run = EXPERIMENTS[0].run


@dataclass
class PartialInvariance:
    """Outcome of the §10 partial-deployment invariance check."""

    result: FaultsResult
    baseline_flagged: int
    flagged_by_scenario: dict[str, int]

    @property
    def ok(self) -> bool:
        return (self.result.all_audits_ok
                and all(flagged == self.baseline_flagged
                        for flagged in self.flagged_by_scenario.values()))

    def report(self) -> str:
        lines = [self.result.report(), "",
                 "partial-deployment invariance (faults at non-deployed "
                 "spines vs. fault-free):"]
        for label in sorted(self.flagged_by_scenario):
            flagged = self.flagged_by_scenario[label]
            verdict = ("unchanged" if flagged == self.baseline_flagged
                       else f"CHANGED (baseline {self.baseline_flagged})")
            lines.append(f"  {label}: {flagged} flagged epoch(s) — "
                         f"{verdict}")
        if not self.ok:
            lines.append("*** PARTIAL-DEPLOYMENT INVARIANCE VIOLATED ***")
        return "\n".join(lines)


def partial_invariance(
        config: Optional[FaultsConfig] = None,
        runner: Optional[TrialRunner] = None) -> PartialInvariance:
    """Check that chaos at non-snapshot-boundary devices is invisible
    to snapshot health.

    Runs the partial-deployment sweep (leaves-only Speedlight, faults
    aimed at the spines) and compares each faulted scenario's
    flagged-epoch count — epochs incomplete or marked inconsistent —
    against the fault-free baseline in the same sweep.  Spine failures
    may drop or delay traffic, but the §10 neighbor-exclusion rule keeps
    non-participating devices out of every channel's gating set, so the
    counts must match exactly.
    """
    config = config or FaultsConfig.partial_spine()
    if 0.0 not in config.intensities:
        raise ValueError("partial_invariance needs the fault-free "
                         "baseline: include intensity 0.0")
    result = run(config, runner)
    baseline = result.rows["iid-0"]["flagged"]
    faulted = {label: row["flagged"]
               for label, row in result.rows.items() if label != "iid-0"}
    return PartialInvariance(result=result, baseline_flagged=baseline,
                             flagged_by_scenario=faulted)
