"""Figure 9: synchronization of network-wide measurements.

The paper's experiment (§8.1): on the 4-switch leaf-spine testbed, take
repeated snapshots and measure, per snapshot ID, the difference between
the earliest and latest data-plane timestamps on any notification with
that ID.  Compare three approaches:

1. Speedlight without channel state   (paper: median ≈6.4 µs, max 22 µs)
2. Speedlight with channel state      (paper: median ≈6.4 µs, max 27 µs,
   longer tail — completion waits for upstream neighbors to advance)
3. traditional counter polling        (paper: median ≈2.6 ms first-to-
   last read in a round)

Simulation notes: the channel-state tail is governed by per-channel
packet interarrival (the Last Seen entry of a channel advances when the
first new-epoch packet crosses it), so the default configuration uses a
compact leaf-spine (one host per leaf) with dense, connection-churned
Poisson traffic to keep every gating channel hot — the shape (CS tail >
no-CS tail ≪ polling) is the reproduction target; see EXPERIMENTS.md.

Each series is one :class:`~repro.runtime.TrialSpec`; the three run
independently (and in parallel under ``--jobs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.analysis.stats import Cdf
from repro.core import ControlPlaneConfig, deploy
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.campaigns import (campaign_window, poisson_network,
                                         start_poisson)
from repro.experiments.harness import TextTable, ascii_cdf, header
from repro.polling import PollTarget, PollingConfig, PollingObserver
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.engine import MS, US
from repro.sim.network import Network
from repro.sim.switch import Direction

#: Spec series names, with the seed offsets the original serial
#: implementation used (kept so results stay comparable across PRs).
SERIES = (("switch_state", 0), ("channel_state", 10), ("polling", 20))


@dataclass
class Fig9Config(ExperimentConfig):
    #: Snapshots (and polling rounds) per series.
    rounds: int = 100
    #: Cadence of the measurement campaign.
    interval_ns: int = 2 * MS
    #: Per-pair Poisson rate; high so every gating channel sees new-epoch
    #: traffic within microseconds (the testbed ran at application line
    #: rates).
    rate_pps: float = 300_000.0
    hosts_per_leaf: int = 1
    #: Per-register read cost of the polling agent, calibrated so a full
    #: round spreads ~2.6 ms as on the testbed.
    poll_read_ns: int = 510 * US

    @classmethod
    def quick(cls) -> "Fig9Config":
        return cls(rounds=30, rate_pps=80_000.0)


@dataclass
class Fig9Result:
    config: Fig9Config
    sync_no_cs: Cdf
    sync_cs: Cdf
    polling: Cdf

    def report(self) -> str:
        table = TextTable(["Series", "median (us)", "p90 (us)", "p99 (us)",
                           "max (us)", "paper"])
        rows = [
            ("Switch State", self.sync_no_cs, "median ~6.4us, max 22us"),
            ("Switch + Channel State", self.sync_cs, "median ~6.4us, max 27us"),
            ("Polling", self.polling, "median ~2.6ms"),
        ]
        for label, cdf, paper in rows:
            table.add(label, cdf.median / 1e3, cdf.percentile(90) / 1e3,
                      cdf.percentile(99) / 1e3, cdf.max / 1e3, paper)
        plot = ascii_cdf({"switch state": self.sync_no_cs,
                          "+channel state": self.sync_cs,
                          "polling": self.polling},
                         x_label="us (log)", x_scale=1e3)
        return "\n".join([
            header("Figure 9 — synchronization of network-wide measurements",
                   f"{self.config.rounds} rounds on the leaf-spine testbed"),
            table.render(), "", plot])


# ----------------------------------------------------------------------
# Trial decomposition
# ----------------------------------------------------------------------

def specs(config: Fig9Config) -> list[TrialSpec]:
    """One spec per series (the three CDFs are independent trials)."""
    return [TrialSpec.of("fig9", config, f"fig9/{series}",
                         point={"series": series})
            for series, _offset in SERIES]


@trial("fig9")
def run_trial(spec: TrialSpec) -> TrialResult:
    config = spec.config(Fig9Config)
    series = spec.point["series"]
    network = poisson_network(config.seed + dict(SERIES)[series],
                              hosts_per_leaf=config.hosts_per_leaf)
    duration = campaign_window(config.rounds, config.interval_ns)
    start_poisson(network, seed=config.seed + 1, rate_pps=config.rate_pps,
                  stop_ns=duration)
    if series == "polling":
        samples = _polling_series(network, config, duration)
    else:
        samples = _snapshot_series(
            network, config, channel_state=(series == "channel_state"))
    return make_result(spec, {"samples": samples})


def assemble(config: Fig9Config,
             results: Sequence[TrialResult]) -> Fig9Result:
    cdfs = {r.point["series"]: Cdf(r.data["samples"]) for r in results}
    return Fig9Result(config=config, sync_no_cs=cdfs["switch_state"],
                      sync_cs=cdfs["channel_state"], polling=cdfs["polling"])


EXPERIMENTS = (
    Experiment("fig9", "synchronization CDFs: snapshots vs. polling",
               Fig9Config, specs, assemble),
)
run = EXPERIMENTS[0].run


# ----------------------------------------------------------------------
# Series execution (on the trial's network, its traffic started)
# ----------------------------------------------------------------------

def _snapshot_series(network: Network, config: Fig9Config,
                     channel_state: bool) -> list[int]:
    deployment = deploy(
        network, metric="packet_count", channel_state=channel_state,
        max_sid=4095, control_plane=ControlPlaneConfig(probe_delay_ns=0))
    epochs = deployment.schedule_campaign(config.rounds, config.interval_ns)
    # Run to the last snapshot plus a settling period (retries,
    # shipping, observer assembly).
    network.run(until=100 * MS + max(
        deployment.observer.snapshot(e).requested_wall_ns for e in epochs))
    spreads = [deployment.sync_spread_ns(e) for e in epochs]
    samples = [s for s in spreads if s is not None]
    if not samples:
        raise RuntimeError("no snapshot produced notifications")
    return samples


def _polling_series(network: Network, config: Fig9Config,
                    duration: int) -> list[int]:
    # Polling needs the counters in place; deploy Speedlight's counters
    # but take no snapshots (the polling framework reads the same
    # registers a snapshot would).
    deploy(network, metric="packet_count", channel_state=False)
    targets = [PollTarget(sw, port, direction, "packet_count")
               for sw in sorted(network.switches)
               for port in network.switch(sw).connected_ports()
               for direction in (Direction.INGRESS, Direction.EGRESS)]
    poller = PollingObserver(network, targets, PollingConfig(
        per_read_ns=config.poll_read_ns, seed=config.seed + 3))
    poller.run_campaign(config.rounds, config.interval_ns + 4 * MS)
    network.run(until=duration)
    rounds = poller.complete_rounds
    if not rounds:
        raise RuntimeError("no polling round completed")
    return [r.spread_ns for r in rounds]
