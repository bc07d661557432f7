"""Figure 10: maximum sustained snapshot rate vs. ports per router.

The paper's experiment (§8.2): "we initiated a series of snapshots on a
single switch with fixed interval.  Snapshot frequencies that were too
high eventually resulted in notification drops.  The graphs plot the
highest frequency without drops."  The bottleneck is the unoptimized
control plane's serial notification processing (~110 µs per
notification in our model); each snapshot generates two notifications
per port (ingress + egress advance), so the sustainable rate falls
inversely with port count — >70 Hz at 64 ports, >1 kHz at 4.

The search runs a fixed-length snapshot burst at a candidate rate and
declares it *sustained* when the notification channel neither dropped
anything nor accumulated a growing backlog; a binary search then finds
the knee.  Each port count's full knee search is one trial spec (the
search is adaptive, so it cannot split further without changing the
result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from itertools import product
from typing import Optional, Union

from repro.core import (AggregationConfig, ControlPlaneConfig,
                        ObserverConfig, deploy)
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.harness import TextTable, header
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.topology import fat_tree, single_switch


@dataclass
class Fig10Config(ExperimentConfig):
    port_counts: list[int] = field(default_factory=lambda: [4, 8, 16, 32, 64])
    #: Snapshots per probe burst (long enough for backlog growth to show).
    burst: int = 40
    #: Binary-search iterations (resolution ~ range / 2^iters).
    search_iterations: int = 9
    rate_floor_hz: float = 10.0
    rate_ceiling_hz: float = 20_000.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_rate_range(self)

    @classmethod
    def quick(cls) -> "Fig10Config":
        return cls(port_counts=[4, 16, 64], burst=25, search_iterations=7)


@dataclass
class Fig10Result:
    config: Fig10Config
    max_rate_hz: dict[int, float]

    def report(self) -> str:
        table = TextTable(["Ports/Router", "Max sustained rate (Hz)",
                           "paper (approx.)"])
        paper = {4: "~1100", 8: "~560", 16: "~280", 32: "~140", 64: ">70"}
        for ports in sorted(self.max_rate_hz):
            table.add(ports, f"{self.max_rate_hz[ports]:.0f}",
                      paper.get(ports, "-"))
        return "\n".join([
            header("Figure 10 — max sustained snapshot rate vs. port count",
                   "single switch, no channel state, notification-drop knee"),
            table.render()])


# ----------------------------------------------------------------------
# Trial decomposition
# ----------------------------------------------------------------------

def specs(config: Fig10Config) -> list[TrialSpec]:
    """One spec per port count (one full knee search each)."""
    return [TrialSpec.of("fig10", config, f"fig10/{ports}p",
                         port_counts=[ports])
            for ports in config.port_counts]


@trial("fig10")
def run_trial(spec: TrialSpec) -> TrialResult:
    config = spec.config(Fig10Config)
    (ports,) = config.port_counts
    return make_result(spec, {"max_rate_hz": _knee(
        lambda rate: _sustained(ports, rate, config), config)})


def assemble(config: Fig10Config,
             results: Sequence[TrialResult]) -> Fig10Result:
    return Fig10Result(config=config,
                       max_rate_hz={ports: r.data["max_rate_hz"]
                                    for ports, r in zip(config.port_counts,
                                                        results)})


_FIG10 = Experiment("fig10", "max sustained snapshot rate vs. ports/router",
                    Fig10Config, specs, assemble)
run = _FIG10.run


# ----------------------------------------------------------------------
# Knee search (also reused by the service-cost and transport sweeps,
# which substitute their own control-plane configuration)
# ----------------------------------------------------------------------

def _sustained(ports: int, rate_hz: float, config: Fig10Config,
               control_plane: Optional[ControlPlaneConfig] = None) -> bool:
    """Run one burst at ``rate_hz``; True if the notification channel
    kept up (no drops, backlog drained)."""
    network = Network(single_switch(num_hosts=ports),
                      NetworkConfig(seed=config.seed))
    if control_plane is None:
        control_plane = ControlPlaneConfig(
            reinitiation_timeout_ns=0,  # retries would double the load
            probe_delay_ns=0)
    deployment = deploy(
        network, metric="packet_count", channel_state=False, max_sid=None,
        control_plane=control_plane,
        observer=ObserverConfig(retry_timeout_ns=10 * S))
    interval_ns = int(1e9 / rate_hz)
    deployment.schedule_campaign(config.burst, interval_ns)
    # Run to the end of the burst plus a generous drain window.
    network.run(until=10 * MS + config.burst * interval_ns + 200 * MS)
    stats = deployment.notification_stats()
    if stats["dropped"] > 0:
        return False
    if stats["backlog"] > 0:
        return False  # still digesting long after the burst: not sustained
    # A sustained rate keeps the backlog bounded by roughly one
    # snapshot's worth of notifications (2 per port) plus slack for the
    # next burst arriving while the previous one drains.
    per_snapshot = 2 * ports
    cp = next(iter(deployment.control_planes.values()))
    return cp.channel.max_backlog <= 2.5 * per_snapshot


def _check_rate_range(config: Union[Fig10Config, AggKneeConfig]) -> None:
    """A knee search runs from its floor up to its ceiling: refuse a
    floor above the ceiling, which :func:`_knee` would answer with the
    ceiling, a rate below the floor or a search of an inverted interval."""
    if config.rate_floor_hz > config.rate_ceiling_hz:
        name = type(config).__name__
        raise ValueError(
            f"{name}.rate_floor_hz must be <= {name}.rate_ceiling_hz "
            f"({config.rate_ceiling_hz!r}), got {config.rate_floor_hz!r}")


def _knee(sustained: Callable[[float], bool],
          config: Union[Fig10Config, AggKneeConfig]) -> float:
    """The highest rate ``sustained`` holds at, by geometric search
    between the config's floor and ceiling (0.0 if even the floor
    fails)."""
    lo, hi = config.rate_floor_hz, config.rate_ceiling_hz
    if not sustained(lo):
        return 0.0
    if sustained(hi):
        return hi
    for _ in range(config.search_iterations):
        mid = (lo * hi) ** 0.5  # geometric: the plot is log-log
        if sustained(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ----------------------------------------------------------------------
# Aggregation knee: the Fig. 10 bottleneck, network-wide, vs. fan-out
# ----------------------------------------------------------------------
#
# Figure 10 measures one switch; the real cliff is the *observer*: a
# whole-fabric snapshot lands O(units) records on a single host.  The
# hierarchical aggregation fabric (repro.core.aggregation) replaces that
# with a relay tree, so this companion experiment sweeps the same knee
# search over (fat-tree arity x tree degree).  Degree 0 is the honest
# flat baseline — every record is one message through a modeled observer
# intake — so the degree sweep isolates exactly what the tree buys.

@dataclass
class AggKneeConfig(ExperimentConfig):
    #: Fat-tree arities to sweep (k=4 -> 20 switches, k=8 -> 80).
    arities: list[int] = field(default_factory=lambda: [4, 8])
    #: Tree fan-outs to sweep; 0 is the flat-modeled observer intake.
    degrees: list[int] = field(default_factory=lambda: [0, 2, 4, 8])
    #: Snapshots per probe burst (long enough for backlog growth to show).
    burst: int = 10
    #: Geometric-search iterations (resolution ~ range^(1/2^iters)).
    search_iterations: int = 7
    rate_floor_hz: float = 0.5
    rate_ceiling_hz: float = 5_000.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_rate_range(self)

    @classmethod
    def quick(cls) -> "AggKneeConfig":
        return cls(arities=[4], degrees=[0, 4], burst=6,
                   search_iterations=6)


@dataclass
class AggKneeResult:
    config: AggKneeConfig
    #: (arity, degree) -> max sustained whole-fabric snapshot rate.
    max_rate_hz: dict[tuple[int, int], float]

    def speedup(self, arity: int, degree: int) -> Optional[float]:
        flat = self.max_rate_hz.get((arity, 0))
        rate = self.max_rate_hz.get((arity, degree))
        if not flat or rate is None:
            return None
        return rate / flat

    def report(self) -> str:
        table = TextTable(["k", "Switches", "Units", "Degree",
                           "Max rate (Hz)", "vs. flat"])
        for (arity, degree) in sorted(self.max_rate_hz):
            switches = 5 * arity ** 2 // 4
            units = 2 * arity * switches
            speedup = self.speedup(arity, degree)
            table.add(arity, switches, units,
                      "flat" if degree == 0 else degree,
                      f"{self.max_rate_hz[(arity, degree)]:.1f}",
                      "-" if speedup is None or degree == 0
                      else f"{speedup:.1f}x")
        return "\n".join([
            header("Aggregation knee — whole-fabric snapshot rate vs. "
                   "tree degree",
                   "the Fig. 10 bottleneck at the observer; degree 0 is "
                   "the flat per-record intake (docs/AGGREGATION.md)"),
            table.render(),
            "the flat intake collapses as O(units) records serialize at "
            "the observer; the tree turns that into O(fan-out) messages "
            "per epoch, so the knee moves up by roughly units/fan-in and "
            "degrades only gently with fabric size."])


def agg_specs(config: AggKneeConfig) -> list[TrialSpec]:
    """One spec per (arity, degree) cell (one full knee search each)."""
    return [TrialSpec.of("fig10_agg", config, f"fig10-agg/k{arity}/d{degree}",
                         arities=[arity], degrees=[degree])
            for arity, degree in product(config.arities, config.degrees)]


@trial("fig10_agg")
def run_agg_trial(spec: TrialSpec) -> TrialResult:
    config = spec.config(AggKneeConfig)
    return make_result(spec, {"max_rate_hz": _knee(
        lambda rate: _agg_sustained(rate, config), config)})


def agg_assemble(config: AggKneeConfig,
                 results: Sequence[TrialResult]) -> AggKneeResult:
    return AggKneeResult(
        config=config,
        max_rate_hz={cell: r.data["max_rate_hz"] for cell, r in zip(
            product(config.arities, config.degrees), results)})


_AGG = Experiment("fig10-agg",
                  "whole-fabric snapshot rate vs. aggregation degree",
                  AggKneeConfig, agg_specs, agg_assemble)
run_agg = _AGG.run


def _agg_sustained(rate_hz: float, config: AggKneeConfig) -> bool:
    """Run one whole-fabric burst of the config's one cell at
    ``rate_hz``; True when every hop of the record path kept up:
    per-switch notification channels, relay agents, and the observer
    intake all drained without drops and without unbounded backlog."""
    (arity,), (degree,) = config.arities, config.degrees
    network = Network(fat_tree(k=arity), NetworkConfig(seed=config.seed))
    deployment = deploy(
        network, metric="packet_count", channel_state=False, max_sid=None,
        control_plane=ControlPlaneConfig(
            reinitiation_timeout_ns=0,  # retries would double the load
            probe_delay_ns=0),
        observer=ObserverConfig(retry_timeout_ns=10 * S),
        aggregation=AggregationConfig(degree=degree))
    interval_ns = int(1e9 / rate_hz)
    deployment.schedule_campaign(config.burst, interval_ns)
    network.run(until=10 * MS + config.burst * interval_ns + 500 * MS)
    stats = deployment.notification_stats()
    if stats["dropped"] > 0 or stats["backlog"] > 0:
        return False
    for cp in deployment.control_planes.values():
        if cp.channel.max_backlog > 2.5 * 2 * len(cp.switch.connected_ports()):
            return False
    agg = deployment.aggregation.stats()
    if agg["dropped"] > 0 or agg["backlog"] > 0 or agg["records_lost"] > 0:
        return False
    if agg["intake_dropped"] > 0 or agg["intake_backlog"] > 0:
        return False
    # Bounded steady-state intake: the flat baseline lands one message
    # per unit per epoch, the tree a handful of aggregates (the root's
    # completes plus any partial flushes).
    units = sum(2 * len(deployment.network.switch(s).connected_ports())
                for s in deployment.switch_names)
    per_epoch = units if degree == 0 else 2 + degree
    return agg["intake_max_backlog"] <= 2.5 * per_epoch


EXPERIMENTS = (_FIG10, _AGG)
