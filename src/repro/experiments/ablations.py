"""Ablations of Speedlight's two key design choices.

1. **Hardware-constrained vs. idealised data plane**
   (:func:`run_ideal_vs_speedlight`).  Speedlight's data plane cannot
   loop over skipped snapshot IDs, so a unit that learns about several
   epochs at once forces the control plane to mark the intermediate ones
   inconsistent (§5.3/§6); the idealised Figure 3 protocol absorbs skips
   losslessly.  The ablation starves one switch of initiations (it
   learns epochs only from tagged traffic, arriving in jumps under
   sparse load) and compares how many snapshots survive consistent.

2. **Multi-initiator vs. single-initiator initiation**
   (:func:`run_initiation_strategies`).  Classic Chandy-Lamport starts
   at one node and floods outward with traffic; Speedlight initiates at
   *every* control plane simultaneously ("snapshots in our system are
   initiated at all nodes simultaneously", §3) precisely to bound
   synchronization by clock error instead of by traffic propagation
   time.  The ablation measures the sync spread CDF under both
   strategies on the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Optional

from repro.analysis.stats import Cdf
from repro.core import ControlPlaneConfig, ObserverConfig, SnapshotStatus, deploy
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.campaigns import start_poisson
from repro.experiments.harness import TextTable, header
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine, single_switch


# ----------------------------------------------------------------------
# Ablation 1: ideal vs Speedlight under initiation starvation
# ----------------------------------------------------------------------

@dataclass
class IdealVsSpeedlightConfig(ExperimentConfig):
    snapshots: int = 30
    interval_ns: int = 4 * MS
    rate_pps: float = 20_000.0
    #: This switch's management link drops most initiations: it hears
    #: only every ``starvation_period``-th epoch, so its host-facing
    #: units jump several IDs at once when one finally arrives (a total
    #: blackout would stall those units forever — the §6 dropped-
    #: initiation case that re-initiation exists to fix).
    starved_switch: str = "leaf1"
    starvation_period: int = 3

    @classmethod
    def quick(cls) -> "IdealVsSpeedlightConfig":
        return cls(snapshots=15)


@dataclass
class IdealVsSpeedlightResult:
    config: IdealVsSpeedlightConfig
    #: data-plane kind -> (complete, consistent) snapshot counts.
    outcomes: dict[str, dict[str, int]]

    def report(self) -> str:
        table = TextTable(["Data plane", "Complete", "Consistent",
                           "Consistent fraction"])
        for kind in ("speedlight", "ideal"):
            o = self.outcomes[kind]
            frac = o["consistent"] / o["complete"] if o["complete"] else 0.0
            table.add(kind, o["complete"], o["consistent"], f"{frac:.2f}")
        return "\n".join([
            header("Ablation — hardware-constrained vs. idealised data plane",
                   f"{self.config.starved_switch} hears only every "
                   f"{self.config.starvation_period}rd initiation; its units "
                   "jump several epochs at once"),
            table.render(),
            "expected: the ideal (Figure 3) protocol absorbs every jump; "
            "Speedlight must discard intermediate epochs as inconsistent."])


def _run_starved(config: IdealVsSpeedlightConfig, ideal: bool) -> dict[str, int]:
    network = Network(leaf_spine(hosts_per_leaf=1),
                      NetworkConfig(seed=config.seed))
    duration = 30 * MS + config.snapshots * config.interval_ns + 300 * MS
    start_poisson(network, seed=config.seed + 1, rate_pps=config.rate_pps,
                  stop_ns=duration)
    deployment = deploy(
        network, metric="packet_count", channel_state=True,
        ideal_units=ideal, max_sid=None if ideal else 4095,
        control_plane=ControlPlaneConfig(probe_delay_ns=0,
                                         reinitiation_timeout_ns=0),
        observer=ObserverConfig(retry_timeout_ns=200 * MS, max_retries=0))
    all_devices = sorted(deployment.control_planes)
    degraded = [n for n in all_devices if n != config.starved_switch]
    epochs = []
    for i in range(config.snapshots):
        initiators = (all_devices if i % config.starvation_period == 0
                      else degraded)
        epochs.append(deployment.observer.take_snapshot(
            at_wall_ns=network.sim.now + 10 * MS + i * config.interval_ns,
            initiators=initiators))
    network.run(until=duration)
    complete = consistent = 0
    for epoch in epochs:
        snap = deployment.observer.snapshot(epoch)
        if snap.complete:
            complete += 1
            if snap.consistent:
                consistent += 1
    return {"complete": complete, "consistent": consistent}


def ideal_specs(config: IdealVsSpeedlightConfig) -> list[TrialSpec]:
    """One spec per data-plane kind (speedlight, ideal)."""
    return [TrialSpec.of("ablation_ideal", config, f"ablation-ideal/{kind}",
                         point={"kind": kind})
            for kind in ("speedlight", "ideal")]


@trial("ablation_ideal")
def run_ideal_trial(spec: TrialSpec) -> TrialResult:
    return make_result(spec, _run_starved(
        spec.config(IdealVsSpeedlightConfig),
        ideal=spec.point["kind"] == "ideal"))


def ideal_assemble(config: IdealVsSpeedlightConfig,
                   results: Sequence[TrialResult]) -> IdealVsSpeedlightResult:
    return IdealVsSpeedlightResult(
        config=config,
        outcomes={r.point["kind"]: dict(r.data) for r in results})


_IDEAL = Experiment("ablation-ideal",
                    "idealised vs. hardware-constrained data plane",
                    IdealVsSpeedlightConfig, ideal_specs, ideal_assemble)
run_ideal_vs_speedlight = _IDEAL.run


# ----------------------------------------------------------------------
# Ablation 2: multi-initiator vs single-initiator
# ----------------------------------------------------------------------

@dataclass
class InitiationConfig(ExperimentConfig):
    snapshots: int = 30
    interval_ns: int = 8 * MS
    rate_pps: float = 20_000.0

    @classmethod
    def quick(cls) -> "InitiationConfig":
        return cls(snapshots=15)


@dataclass
class InitiationResult:
    config: InitiationConfig
    sync_multi: Cdf
    sync_single: Cdf

    def report(self) -> str:
        table = TextTable(["Strategy", "median (us)", "p90 (us)", "max (us)"])
        for label, cdf in (("multi-initiator (Speedlight)", self.sync_multi),
                           ("single-initiator (classic)", self.sync_single)):
            table.add(label, cdf.median / 1e3, cdf.percentile(90) / 1e3,
                      cdf.max / 1e3)
        return "\n".join([
            header("Ablation — initiation strategy",
                   "synchronization spread of snapshots (no channel state)"),
            table.render(),
            "expected: single-initiator sync is bounded by traffic "
            "propagation, orders of magnitude above the clock-bounded "
            "multi-initiator design."])


def _sync_samples(config: InitiationConfig,
                  initiators: Optional[list[str]]) -> list[float]:
    network = Network(leaf_spine(hosts_per_leaf=1),
                      NetworkConfig(seed=config.seed))
    duration = 30 * MS + config.snapshots * config.interval_ns + 200 * MS
    start_poisson(network, seed=config.seed + 1, rate_pps=config.rate_pps,
                  stop_ns=duration)
    deployment = deploy(network, metric="packet_count",
                        channel_state=False, max_sid=4095)
    epochs = [deployment.observer.take_snapshot(
        at_wall_ns=network.sim.now + 10 * MS + i * config.interval_ns,
        initiators=initiators) for i in range(config.snapshots)]
    network.run(until=duration)
    spreads = [deployment.sync_spread_ns(e) for e in epochs]
    return [float(s) for s in spreads if s is not None]


def initiation_specs(config: InitiationConfig) -> list[TrialSpec]:
    """One spec per initiation strategy."""
    return [TrialSpec.of("ablation_initiation", config,
                         f"ablation-initiation/{strategy}",
                         point={"strategy": strategy})
            for strategy in ("multi", "single")]


@trial("ablation_initiation")
def run_initiation_trial(spec: TrialSpec) -> TrialResult:
    initiators = None if spec.point["strategy"] == "multi" else ["spine0"]
    return make_result(spec, {"samples": _sync_samples(
        spec.config(InitiationConfig), initiators)})


def initiation_assemble(config: InitiationConfig,
                        results: Sequence[TrialResult]) -> InitiationResult:
    samples = {r.point["strategy"]: r.data["samples"] for r in results}
    return InitiationResult(config=config,
                            sync_multi=Cdf(samples["multi"]),
                            sync_single=Cdf(samples["single"]))


_INITIATION = Experiment("ablation-initiation", "multi- vs. single-initiator",
                         InitiationConfig, initiation_specs,
                         initiation_assemble)
run_initiation_strategies = _INITIATION.run


# ----------------------------------------------------------------------
# Ablation 3: notification transport (raw socket vs P4 digest stream)
# ----------------------------------------------------------------------

@dataclass
class TransportConfig(ExperimentConfig):
    ports: int = 32
    #: Snapshots for the completion-latency measurement.
    snapshots: int = 20
    interval_ns: int = 25 * MS

    @classmethod
    def quick(cls) -> "TransportConfig":
        return cls(snapshots=10)


@dataclass
class TransportResult:
    config: TransportConfig
    #: transport -> max sustained snapshot rate (Hz), bulk regime.
    max_rate_hz: dict[str, float]
    #: transport -> median snapshot completion latency on a small
    #: (sparse-notification) switch — the latency-sensitive regime
    #: snapshot progress tracking lives in.
    completion_ns: dict[str, float]

    def report(self) -> str:
        table = TextTable(["Transport", "Max rate (Hz, 32 ports)",
                           "Sparse completion p50 (us, 4 ports)"])
        for transport in ("socket", "digest"):
            table.add(transport, f"{self.max_rate_hz[transport]:.0f}",
                      self.completion_ns[transport] / 1e3)
        return "\n".join([
            header("Ablation — notification transport",
                   "raw socket (paper's choice, §7.2) vs. P4 digest batching"),
            table.render(),
            "digests amortise CPU wakeups (higher bulk rate) but every "
            "sparse notification waits out the flush window — snapshot "
            "progress tracking is sparse and latency-sensitive, which is "
            "why the paper found raw sockets 'significantly better'."])


def _transport_cp_config(transport: str) -> ControlPlaneConfig:
    return ControlPlaneConfig(notification_transport=transport,
                              reinitiation_timeout_ns=0, probe_delay_ns=0)


def _transport_max_rate(config: TransportConfig, transport: str) -> float:
    # Reuse Fig 10's knee search with the transport's control-plane
    # configuration swapped in (no monkeypatching: _sustained takes it).
    from repro.experiments.fig10 import Fig10Config, _knee, _sustained

    fig10 = Fig10Config(seed=config.seed, burst=25, search_iterations=7)
    control_plane = _transport_cp_config(transport)
    return _knee(lambda rate: _sustained(config.ports, rate, fig10,
                                         control_plane), fig10)


def _transport_completion(config: TransportConfig, transport: str) -> float:
    # Sparse regime: a small switch emits a handful of notifications per
    # snapshot, so batching transports sit on the flush timer.
    network = Network(single_switch(num_hosts=4),
                      NetworkConfig(seed=config.seed))
    deployment = deploy(network, metric="packet_count", channel_state=False,
                        control_plane=_transport_cp_config(transport))
    resolved_at: dict[int, int] = {}
    deployment.observer.on_resolved(
        lambda snap: resolved_at.setdefault(snap.epoch, network.sim.now))
    epochs = deployment.schedule_campaign(config.snapshots,
                                          config.interval_ns)
    network.run(until=20 * MS + config.snapshots * config.interval_ns
                + 300 * MS)
    latencies = []
    for epoch in epochs:
        snap = deployment.observer.snapshot(epoch)
        if snap.status is SnapshotStatus.COMPLETE:
            latencies.append(resolved_at[epoch] - snap.requested_wall_ns)
    if not latencies:
        raise RuntimeError(f"no snapshot completed under {transport}")
    latencies.sort()
    return float(latencies[len(latencies) // 2])


def transport_specs(config: TransportConfig) -> list[TrialSpec]:
    """One spec per (transport, measurement) — four-way parallel."""
    return [TrialSpec.of("ablation_transport", config,
                         f"ablation-transport/{transport}/{measure}",
                         point={"transport": transport, "measure": measure})
            for transport in ("socket", "digest")
            for measure in ("rate", "completion")]


@trial("ablation_transport")
def run_transport_trial(spec: TrialSpec) -> TrialResult:
    measure = (_transport_max_rate if spec.point["measure"] == "rate"
               else _transport_completion)
    return make_result(spec, {"value": measure(
        spec.config(TransportConfig), spec.point["transport"])})


def transport_assemble(config: TransportConfig,
                       results: Sequence[TrialResult]) -> TransportResult:
    def measured(measure: str) -> dict[str, float]:
        return {r.point["transport"]: r.data["value"] for r in results
                if r.point["measure"] == measure}

    return TransportResult(config=config, max_rate_hz=measured("rate"),
                           completion_ns=measured("completion"))


_TRANSPORT = Experiment("ablation-transport",
                        "raw-socket vs. digest notifications",
                        TransportConfig, transport_specs, transport_assemble)
run_notification_transports = _TRANSPORT.run


EXPERIMENTS = (_IDEAL, _INITIATION, _TRANSPORT)
