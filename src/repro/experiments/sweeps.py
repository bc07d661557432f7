"""Sensitivity sweeps over the model's calibrated constants.

EXPERIMENTS.md documents which constants each reproduced figure leans
on; these sweeps make the dependence executable, so a user recalibrating
for different hardware can see exactly how the headline results move:

* :func:`run_service_cost_sweep` — Figure 10's knee vs. the per-
  notification CPU cost.  The analytical model says
  ``max_rate ≈ 1 / (2 * ports * service_cost)``; the sweep checks the
  measured knee tracks it.
* :func:`run_ptp_sweep` — Figure 9's no-channel-state synchronization
  vs. the PTP residual sigma: snapshot sync degrades gracefully from
  PTP-class (µs) toward NTP-class (ms) clock quality, which is §2.1's
  motivation for tight clock sync.
* :func:`run_rate_sweep` — channel-state synchronization vs. traffic
  rate: the CS tail tracks per-channel packet interarrival (the
  documented deviation of our Figure 9 CS series from the paper's
  line-rate testbed).

Each sweep point is an independent trial spec, so the sweeps batch and
cache like every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core import ControlPlaneConfig, deploy
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.campaigns import poisson_network, start_poisson
from repro.experiments.harness import TextTable, header
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.clock import PTPConfig
from repro.sim.engine import MS, US


# ----------------------------------------------------------------------
# Sweep 1: Figure 10 knee vs. notification service cost
# ----------------------------------------------------------------------

@dataclass
class ServiceCostSweepConfig(ExperimentConfig):
    ports: int = 16
    service_costs_ns: list[int] = field(
        default_factory=lambda: [55 * US, 110 * US, 220 * US, 440 * US])
    burst: int = 25
    search_iterations: int = 7

    @classmethod
    def quick(cls) -> "ServiceCostSweepConfig":
        return cls(service_costs_ns=[55 * US, 220 * US])


@dataclass
class ServiceCostSweepResult:
    config: ServiceCostSweepConfig
    max_rate_hz: dict[int, float]

    def model_rate_hz(self, service_ns: int) -> float:
        """The analytical knee: one CPU, two notifications per port."""
        return 1e9 / (2 * self.config.ports * service_ns)

    def report(self) -> str:
        table = TextTable(["Service cost (us)", "Measured knee (Hz)",
                           "Model 1/(2*P*c) (Hz)"])
        for cost in sorted(self.max_rate_hz):
            table.add(cost / 1e3, f"{self.max_rate_hz[cost]:.0f}",
                      f"{self.model_rate_hz(cost):.0f}")
        return "\n".join([
            header("Sweep — snapshot-rate knee vs. notification CPU cost",
                   f"{self.config.ports}-port switch (Figure 10's bottleneck"
                   " model, made executable)"),
            table.render()])


def service_cost_specs(config: ServiceCostSweepConfig) -> list[TrialSpec]:
    """One spec per service cost (one full knee search each)."""
    return [TrialSpec.of("sweep_service_cost", config,
                         f"sweep-service-cost/{cost // 1000}us",
                         service_costs_ns=[cost])
            for cost in config.service_costs_ns]


@trial("sweep_service_cost")
def run_service_cost_trial(spec: TrialSpec) -> TrialResult:
    from repro.experiments.fig10 import Fig10Config, _knee, _sustained

    config = spec.config(ServiceCostSweepConfig)
    (cost,) = config.service_costs_ns
    fig10 = Fig10Config(seed=config.seed, burst=config.burst,
                        search_iterations=config.search_iterations)
    control_plane = ControlPlaneConfig(
        notification_service_ns=cost,
        reinitiation_timeout_ns=0,  # retries would double the load
        probe_delay_ns=0)
    rate = _knee(lambda rate_hz: _sustained(config.ports, rate_hz, fig10,
                                            control_plane), fig10)
    return make_result(spec, {"max_rate_hz": rate})


def service_cost_assemble(
        config: ServiceCostSweepConfig,
        results: Sequence[TrialResult]) -> ServiceCostSweepResult:
    return ServiceCostSweepResult(
        config=config,
        max_rate_hz={cost: r.data["max_rate_hz"] for cost, r
                     in zip(config.service_costs_ns, results)})


_SERVICE_COST = Experiment("sweep-service-cost",
                           "Fig 10 knee vs. per-notification CPU cost",
                           ServiceCostSweepConfig, service_cost_specs,
                           service_cost_assemble)
run_service_cost_sweep = _SERVICE_COST.run


# ----------------------------------------------------------------------
# Sweep 2: Figure 9 sync vs. PTP quality
# ----------------------------------------------------------------------

@dataclass
class PtpSweepConfig(ExperimentConfig):
    rounds: int = 30
    interval_ns: int = 2 * MS
    #: From datacenter PTP (1.5 us) up to LAN NTP (1 ms), §2.1's range.
    residual_sigmas_ns: list[int] = field(
        default_factory=lambda: [1_500, 15_000, 150_000, 1_000_000])

    @classmethod
    def quick(cls) -> "PtpSweepConfig":
        return cls(rounds=15, residual_sigmas_ns=[1_500, 150_000])


@dataclass
class PtpSweepResult:
    config: PtpSweepConfig
    sync_median_ns: dict[int, float]

    def report(self) -> str:
        table = TextTable(["Clock residual sigma (us)",
                           "Snapshot sync median (us)"])
        for sigma in sorted(self.sync_median_ns):
            table.add(sigma / 1e3, self.sync_median_ns[sigma] / 1e3)
        return "\n".join([
            header("Sweep — snapshot synchronization vs. clock quality",
                   "PTP-class to NTP-class residuals (§2.1's contrast)"),
            table.render(),
            "snapshot sync is clock-bounded: NTP-class residuals forfeit "
            "the microsecond guarantee, as the paper argues."])


def ptp_specs(config: PtpSweepConfig) -> list[TrialSpec]:
    """One spec per clock-residual sigma."""
    return [TrialSpec.of("sweep_ptp", config, f"sweep-ptp/{sigma}ns",
                         residual_sigmas_ns=[sigma])
            for sigma in config.residual_sigmas_ns]


@trial("sweep_ptp")
def run_ptp_trial(spec: TrialSpec) -> TrialResult:
    config = spec.config(PtpSweepConfig)
    (sigma,) = config.residual_sigmas_ns
    ptp = PTPConfig(residual_sigma_ns=sigma, residual_max_ns=6 * sigma)
    network = poisson_network(seed=config.seed, ptp=ptp)
    deployment = deploy(network, metric="packet_count")
    epochs = deployment.schedule_campaign(config.rounds, config.interval_ns)
    network.run(until=20 * MS + config.rounds * config.interval_ns
                + 200 * MS)
    spreads = sorted(s for s in (deployment.sync_spread_ns(e)
                                 for e in epochs) if s is not None)
    return make_result(
        spec, {"sync_median_ns": float(spreads[len(spreads) // 2])})


def ptp_assemble(config: PtpSweepConfig,
                 results: Sequence[TrialResult]) -> PtpSweepResult:
    return PtpSweepResult(
        config=config,
        sync_median_ns={sigma: r.data["sync_median_ns"] for sigma, r
                        in zip(config.residual_sigmas_ns, results)})


_PTP = Experiment("sweep-ptp", "snapshot sync vs. clock quality (PTP->NTP)",
                  PtpSweepConfig, ptp_specs, ptp_assemble)
run_ptp_sweep = _PTP.run


# ----------------------------------------------------------------------
# Sweep 3: channel-state sync vs. traffic rate
# ----------------------------------------------------------------------

@dataclass
class RateSweepConfig(ExperimentConfig):
    rounds: int = 25
    interval_ns: int = 2 * MS
    rates_pps: list[float] = field(
        default_factory=lambda: [30_000.0, 100_000.0, 300_000.0])

    @classmethod
    def quick(cls) -> "RateSweepConfig":
        return cls(rounds=15, rates_pps=[30_000.0, 300_000.0])


@dataclass
class RateSweepResult:
    config: RateSweepConfig
    sync_median_ns: dict[float, float]

    def report(self) -> str:
        table = TextTable(["Per-pair rate (kpps)",
                           "CS sync median (us)"])
        for rate in sorted(self.sync_median_ns):
            table.add(rate / 1e3, self.sync_median_ns[rate] / 1e3)
        return "\n".join([
            header("Sweep — channel-state sync vs. traffic rate",
                   "the CS tail tracks per-channel interarrival "
                   "(EXPERIMENTS.md's documented deviation)"),
            table.render()])


def rate_specs(config: RateSweepConfig) -> list[TrialSpec]:
    """One spec per traffic rate."""
    return [TrialSpec.of("sweep_rate", config,
                         f"sweep-rate/{rate / 1e3:.0f}kpps", rates_pps=[rate])
            for rate in config.rates_pps]


@trial("sweep_rate")
def run_rate_trial(spec: TrialSpec) -> TrialResult:
    config = spec.config(RateSweepConfig)
    (rate,) = config.rates_pps
    network = poisson_network(seed=config.seed)
    duration = 20 * MS + config.rounds * config.interval_ns + 200 * MS
    start_poisson(network, seed=config.seed + 1, rate_pps=rate,
                  stop_ns=duration)
    deployment = deploy(
        network, metric="packet_count", channel_state=True, max_sid=4095,
        control_plane=ControlPlaneConfig(probe_delay_ns=0))
    epochs = deployment.schedule_campaign(config.rounds, config.interval_ns)
    network.run(until=duration)
    spreads = sorted(s for s in (deployment.sync_spread_ns(e)
                                 for e in epochs) if s is not None)
    return make_result(
        spec, {"sync_median_ns": float(spreads[len(spreads) // 2])})


def rate_assemble(config: RateSweepConfig,
                  results: Sequence[TrialResult]) -> RateSweepResult:
    return RateSweepResult(
        config=config,
        sync_median_ns={rate: r.data["sync_median_ns"]
                        for rate, r in zip(config.rates_pps, results)})


_RATE = Experiment("sweep-rate", "channel-state sync vs. traffic rate",
                   RateSweepConfig, rate_specs, rate_assemble)
run_rate_sweep = _RATE.run


EXPERIMENTS = (_SERVICE_COST, _PTP, _RATE)
