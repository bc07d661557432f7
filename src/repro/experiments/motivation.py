"""The Figure 1 motivation, made quantitative.

§2.2 of the paper argues with a thought experiment: looking at two
egress queues ``x`` and ``y``, *asynchronous* measurements cannot
distinguish a network whose load is genuinely balanced from one whose
load ping-pongs between the queues — "the network could be perfectly
balanced or arbitrarily unbalanced — the measurements fail to
distinguish between the two cases."

This experiment constructs both regimes with **identical marginal
behaviour per queue** (each queue is deep half the time, empty half the
time, same average load):

* **synchronized** — both queues burst in the same phases (the balanced
  network: at any instant, load is even);
* **alternating** — exactly one queue bursts per phase (maximally
  unbalanced at every instant).

It then measures instantaneous queue depth with synchronized snapshots
and with the polling baseline (two reads ~1 ms apart, §2.1's quoted
per-counter cost) and reports the statistic that separates the regimes:
the mean simultaneous gap ``|depth_x - depth_y|``.  Snapshots separate
the regimes by an order of magnitude; polling reports nearly the same
gap for both — the motivating failure, quantified.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core import ObserverConfig, deploy
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.harness import TextTable, header
from repro.polling import PollTarget, PollingConfig, PollingObserver
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction
from repro.topology import single_switch

REGIMES = ("synchronized", "alternating")
METHODS = ("snapshots", "polling")


@dataclass
class MotivationConfig(ExperimentConfig):
    rounds: int = 120
    #: Measurement cadence; deliberately co-prime-ish with the burst
    #: period so rounds rotate through phases.
    interval_ns: int = 1_300_000
    #: Length of one phase (bursts occupy the first half of a phase).
    phase_ns: int = 700 * US
    #: Access-link speed: slow enough that a two-sender burst
    #: oversubscribes it and a standing queue forms.
    host_bw_bps: int = 1_000_000_000
    #: Per-sender packet gap during a burst (two senders at 12 us each
    #: arrive every 6 us vs. a 12 us drain: queue grows ~1 pkt / 12 us).
    burst_gap_ns: int = 12 * US
    #: The §2.1 per-counter polling cost (~1 ms), which also sets the
    #: offset between the two queue reads in one polling round.
    poll_read_ns: int = 1 * MS

    @classmethod
    def quick(cls) -> "MotivationConfig":
        return cls(rounds=60)


@dataclass
class MotivationResult:
    config: MotivationConfig
    #: (regime, method) -> mean |depth_x - depth_y| (packets).
    mean_gap: dict[tuple[str, str], float]
    #: (regime, method) -> mean depth_x + depth_y (load sanity check).
    mean_total: dict[tuple[str, str], float]

    def separation(self, method: str) -> float:
        """Measured unbalanced-to-balanced gap ratio: ~1 means the
        method cannot tell the regimes apart."""
        balanced = self.mean_gap[("synchronized", method)]
        alternating = self.mean_gap[("alternating", method)]
        return alternating / max(balanced, 1e-9)

    def report(self) -> str:
        table = TextTable(["Regime", "Method", "mean |x - y| (pkts)",
                           "mean x + y (pkts)"])
        for regime in REGIMES:
            for method in METHODS:
                table.add(regime, method,
                          self.mean_gap[(regime, method)],
                          self.mean_total[(regime, method)])
        return "\n".join([
            header("Figure 1 motivation — balanced vs. alternating queues",
                   "identical per-queue average load in both regimes"),
            table.render(),
            f"regime separation (gap ratio): snapshots "
            f"{self.separation('snapshots'):.1f}x, polling "
            f"{self.separation('polling'):.1f}x — a method reporting ~1x "
            "cannot answer Figure 1's question."])


def _drive_traffic(network: Network, config: MotivationConfig,
                   alternating: bool, duration_ns: int) -> None:
    """Phase-structured bursts toward two victim queues.

    Each *active* destination receives a half-phase burst from two
    senders that jointly oversubscribe its access link 2:1.  In the
    synchronized regime both destinations are active on even phases; in
    the alternating regime they take turns — per-queue marginals match,
    instants differ.
    """
    sim = network.sim
    # Each victim queue has its own dedicated sender pair, so a burst
    # always oversubscribes the victim 2:1 while no sender NIC ever
    # carries more than one flow (keeping the bottleneck at the victim).
    pairs = {"server2": ("server0", "server1"),
             "server3": ("server4", "server5")}
    burst_packets = (config.phase_ns // 2) // config.burst_gap_ns
    state = {"phase": 0}

    def run_phase() -> None:
        if sim.now >= duration_ns:
            return
        phase = state["phase"]
        if alternating:
            # Queues take turns: x bursts on even phases, y on odd.
            active = ["server2"] if phase % 2 == 0 else ["server3"]
        else:
            # Both burst together on even phases, both idle on odd —
            # per-queue marginals identical to the alternating regime.
            active = ["server2", "server3"] if phase % 2 == 0 else []
        for dst in active:
            for sender in pairs[dst]:
                network.host(sender).send_flow(
                    dst, burst_packets, sport=20_000 + phase, dport=5001,
                    size_bytes=1500, gap_ns=config.burst_gap_ns)
        state["phase"] += 1
        sim.schedule(config.phase_ns, run_phase)

    sim.schedule(0, run_phase)


def _measure(config: MotivationConfig, alternating: bool,
             method: str) -> tuple[float, float]:
    network = Network(single_switch(num_hosts=6,
                                    host_bw_bps=config.host_bw_bps),
                      NetworkConfig(seed=config.seed))
    duration = 20 * MS + config.rounds * config.interval_ns + 100 * MS
    _drive_traffic(network, config, alternating, duration)
    x_port = network.port_toward("sw0", "server2")
    y_port = network.port_toward("sw0", "server3")

    pairs: list[tuple[float, float]] = []
    if method == "snapshots":
        deployment = deploy(network, metric="queue_depth",
                            observer=ObserverConfig(lead_time_ns=5 * MS))
        epochs = deployment.schedule_campaign(config.rounds,
                                              config.interval_ns)
        network.run(until=duration)
        for epoch in epochs:
            snap = deployment.observer.snapshot(epoch)
            if not snap.complete:
                continue
            pairs.append((snap.value_of("sw0", x_port, Direction.EGRESS),
                          snap.value_of("sw0", y_port, Direction.EGRESS)))
    else:
        deploy(network, metric="queue_depth")
        poller = PollingObserver(
            network,
            [PollTarget("sw0", x_port, Direction.EGRESS, "queue_depth"),
             PollTarget("sw0", y_port, Direction.EGRESS, "queue_depth")],
            PollingConfig(per_read_ns=config.poll_read_ns, seed=config.seed + 1))
        poller.run_campaign(config.rounds, config.interval_ns + 1 * MS)
        network.run(until=duration)
        for round_ in poller.complete_rounds:
            values = {s.target.port: s.value for s in round_.samples}
            pairs.append((values[x_port], values[y_port]))

    if not pairs:
        raise RuntimeError(f"no rounds for {method}")
    gaps = [abs(x - y) for x, y in pairs]
    totals = [x + y for x, y in pairs]
    return float(np.mean(gaps)), float(np.mean(totals))


# ----------------------------------------------------------------------
# Trial decomposition
# ----------------------------------------------------------------------

def specs(config: MotivationConfig) -> list[TrialSpec]:
    """One spec per (regime, method) measurement."""
    return [TrialSpec.of("motivation", config,
                         f"motivation/{regime}/{method}",
                         point={"regime": regime, "method": method})
            for regime in REGIMES for method in METHODS]


@trial("motivation")
def run_trial(spec: TrialSpec) -> TrialResult:
    gap, total = _measure(spec.config(MotivationConfig),
                          spec.point["regime"] == "alternating",
                          spec.point["method"])
    return make_result(spec, {"mean_gap": gap, "mean_total": total})


def assemble(config: MotivationConfig,
             results: Sequence[TrialResult]) -> MotivationResult:
    rows = {(r.point["regime"], r.point["method"]): r.data for r in results}
    return MotivationResult(
        config=config,
        mean_gap={key: row["mean_gap"] for key, row in rows.items()},
        mean_total={key: row["mean_total"] for key, row in rows.items()})


EXPERIMENTS = (
    Experiment("motivation", "Figure 1: balanced vs. alternating queues",
               MotivationConfig, specs, assemble),
)
run = EXPERIMENTS[0].run
