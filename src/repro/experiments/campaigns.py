"""Shared measurement-campaign machinery for the use-case experiments.

Figures 12 and 13 both need the same thing: a workload running on the
testbed topology, and a time series of per-port metric values collected
either by synchronized snapshots or by the polling baseline.  This
module provides that, with matched parameters so the two collection
methods are compared apples-to-apples (same topology seed, same workload
seed, same cadence — only the measurement mechanism differs, exactly as
in §8.3/§8.4).

It also hosts the spec-construction helpers shared by every trial
function that runs a Poisson-driven snapshot campaign on the testbed
(Figure 9, the ablations, the sensitivity sweeps): network construction,
traffic start, and the campaign time window.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Optional

from repro.core import ObserverConfig, deploy
from repro.experiments import MAX_ROUNDS
from repro.lb import EcmpBalancer, FlowletBalancer
from repro.polling import PollTarget, PollingConfig, PollingObserver
from repro.sim.clock import PTPConfig
from repro.sim.engine import MS, US, check_minimums
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction
from repro.topology import leaf_spine
from repro.workloads import (GraphXPageRankWorkload, HadoopTerasortWorkload,
                             MemcacheWorkload, Workload)
from repro.workloads.graphx import GraphXConfig
from repro.workloads.hadoop import HadoopConfig
from repro.workloads.memcache import MemcacheConfig
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

#: Target = (switch, port, direction); a measurement round maps each
#: target to the metric value observed for it.
Target = tuple[str, int, str]
Round = dict[Target, int]


# ----------------------------------------------------------------------
# Spec-construction helpers shared across the trial functions
# ----------------------------------------------------------------------

def poisson_network(seed: int, hosts_per_leaf: int = 1,
                    ptp: Optional[PTPConfig] = None) -> Network:
    """The leaf-spine testbed used by the synchronization experiments."""
    config = (NetworkConfig(seed=seed) if ptp is None
              else NetworkConfig(seed=seed, ptp_config=ptp))
    return Network(leaf_spine(hosts_per_leaf=hosts_per_leaf), config)


def start_poisson(network: Network, *, seed: int, rate_pps: float,
                  stop_ns: int, sport_churn: bool = True) -> PoissonWorkload:
    """Dense all-pairs Poisson traffic (connection-churned so every
    gating channel stays hot — see fig9's module docstring)."""
    workload = PoissonWorkload(network, PoissonConfig(
        seed=seed, rate_pps=rate_pps, stop_ns=stop_ns,
        sport_churn=sport_churn))
    workload.start()
    return workload


def campaign_window(rounds: int, interval_ns: int, *,
                    lead_ns: int = 10 * MS,
                    settle_ns: int = 100 * MS) -> int:
    """Simulation duration covering a measurement campaign: lead-in,
    the campaign itself, and a drain/settle window for retries,
    shipping, and observer assembly."""
    return lead_ns + rounds * interval_ns + settle_ns


def make_balancer_factory(kind: str,
                          flowlet_timeout_ns: int = 20 * US) -> Callable[[int], object]:
    """LB factory for :class:`NetworkConfig` ("ecmp" or "flowlet").

    The flowlet timeout is an operator knob: it must exceed the
    equal-cost path-delay skew (sub-µs on the testbed topology) and sit
    below typical intra-burst gaps so that application bursts actually
    split across members; 20 µs does both for the §8 workloads.
    """
    if kind == "ecmp":
        return lambda salt: EcmpBalancer(salt)
    if kind == "flowlet":
        from repro.lb.flowlet import FlowletConfig
        return lambda salt: FlowletBalancer(FlowletConfig(
            salt=salt, timeout_ns=flowlet_timeout_ns))
    raise ValueError(f"unknown balancer {kind!r} (use 'ecmp' or 'flowlet')")


def make_workload(name: str, network: Network, *, seed: int,
                  stop_ns: int) -> Workload:
    """Instantiate one of the paper's three workloads by name.

    Rates are scaled down from application line rate so a measurement
    campaign simulates in seconds of wall time while preserving each
    workload's temporal texture (bursty shuffle waves / synchronized
    supersteps / smooth request streams) — the property the measurement
    comparison depends on.
    """
    if name == "hadoop":
        return HadoopTerasortWorkload(network, HadoopConfig(
            seed=seed, stop_ns=stop_ns, burst_gap_ns=30 * US,
            mean_burst_ns=2 * MS, mean_pause_ns=10 * MS))
    if name == "graphx":
        return GraphXPageRankWorkload(network, GraphXConfig(
            seed=seed, stop_ns=stop_ns))
    if name == "memcache":
        return MemcacheWorkload(network, MemcacheConfig(
            seed=seed, stop_ns=stop_ns, mean_request_gap_ns=100 * US))
    raise ValueError(f"unknown workload {name!r}")


#: Warmup before the first measurement (EWMA registers need traffic).
WARMUP_NS = 20 * MS
#: Per-register read cost of the campaigns' polling baseline.
POLL_READ_NS = 425 * US
#: Extra time after the last round for snapshot completion.
SETTLE_NS = 60 * MS


@dataclass
class CampaignSpec:
    """Everything needed to run one measurement campaign."""

    workload: str
    balancer: str = "ecmp"
    metric: str = "ewma_interarrival"
    rounds: int = 60
    interval_ns: int = 5 * MS
    seed: int = 42
    hosts_per_leaf: int = 3
    #: Whether each switch's control-plane agent polls its ports
    #: concurrently with the others (Figure 9's round-spread calibration)
    #: or one observer sweeps every port in sequence (Figure 13's
    #: correlation study — concurrent chains would read the same-index
    #: ports of different switches at the same instant, which is not how
    #: a single polling observer behaves).
    poll_parallel_switches: bool = True

    def __post_init__(self) -> None:
        check_minimums(self, {"rounds": (1, MAX_ROUNDS), "interval_ns": 1,
                              "hosts_per_leaf": (1, 256)})

    @property
    def duration_ns(self) -> int:
        return (WARMUP_NS + self.rounds * self.interval_ns +
                SETTLE_NS + 20 * MS)


def build_network(spec: CampaignSpec) -> Network:
    return Network(
        leaf_spine(hosts_per_leaf=spec.hosts_per_leaf),
        NetworkConfig(seed=spec.seed,
                      lb_factory=make_balancer_factory(spec.balancer)))


def uplink_egress_targets(network: Network) -> list[Target]:
    """The leaf uplink egress units — Figure 12's measurement points."""
    targets: list[Target] = []
    for leaf in sorted(network.switches):
        if not leaf.startswith("leaf"):
            continue
        for port in network.uplink_ports(leaf):
            targets.append((leaf, port, Direction.EGRESS))
    return targets


def all_egress_targets(network: Network) -> list[Target]:
    """Egress units of every connected leaf port — Figure 13's points."""
    targets: list[Target] = []
    for name in sorted(network.switches):
        if not name.startswith("leaf"):
            continue
        for port in network.switch(name).connected_ports():
            targets.append((name, port, Direction.EGRESS))
    return targets


def snapshot_campaign(spec: CampaignSpec,
                      target_fn: Callable[[Network], list[Target]]) -> list[Round]:
    """Collect rounds via synchronized snapshots (no channel state —
    both EWMA metrics are gauges)."""
    network = build_network(spec)
    workload = make_workload(spec.workload, network, seed=spec.seed + 1,
                             stop_ns=spec.duration_ns)
    workload.start()
    deployment = deploy(
        network, metric=spec.metric, channel_state=False, max_sid=4095,
        observer=ObserverConfig(lead_time_ns=WARMUP_NS))
    targets = target_fn(network)
    epochs = deployment.schedule_campaign(spec.rounds, spec.interval_ns)
    last_wall = deployment.observer.snapshot(epochs[-1]).requested_wall_ns
    network.run(until=last_wall + SETTLE_NS)
    rounds: list[Round] = []
    for epoch in epochs:
        snap = deployment.observer.snapshot(epoch)
        if not snap.complete:
            continue
        rounds.append({(sw, port, d): snap.value_of(sw, port, d)
                       for (sw, port, d) in targets})
    return rounds


def polling_campaign(spec: CampaignSpec,
                     target_fn: Callable[[Network], list[Target]]) -> list[Round]:
    """Collect the same rounds via the sequential polling baseline."""
    network = build_network(spec)
    workload = make_workload(spec.workload, network, seed=spec.seed + 1,
                             stop_ns=spec.duration_ns)
    workload.start()
    # Counters must exist on the units; the Speedlight deployment
    # installs them but no snapshots are taken in this run.
    deploy(network, metric=spec.metric, channel_state=False, max_sid=4095)
    targets = target_fn(network)
    poller = PollingObserver(
        network,
        [PollTarget(sw, port, d, spec.metric) for (sw, port, d) in targets],
        PollingConfig(per_read_ns=POLL_READ_NS, seed=spec.seed + 2,
                      parallel_across_switches=spec.poll_parallel_switches))
    network.sim.schedule(WARMUP_NS, poller.run_campaign,
                         spec.rounds, spec.interval_ns)
    network.run(until=spec.duration_ns)
    rounds: list[Round] = []
    for round_ in poller.complete_rounds:
        rounds.append({(s.target.switch, s.target.port, s.target.direction):
                       s.value for s in round_.samples})
    return rounds


def rounds_to_balance_input(rounds: list[Round]) -> list[dict[str, dict[int, float]]]:
    """Regroup rounds for :func:`repro.analysis.stats.balance_stddevs`:
    per round, per switch, per port → value."""
    out = []
    for round_ in rounds:
        by_switch: dict[str, dict[int, float]] = {}
        for (sw, port, _d), value in round_.items():
            by_switch.setdefault(sw, {})[port] = float(value)
        out.append(by_switch)
    return out
