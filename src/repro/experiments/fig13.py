"""Figure 13: detecting synchronized application traffic.

The paper's §8.4 experiment: run GraphX (PageRank), measure the EWMA of
packet rate at the egress of every port across 100 snapshots, and
compute pairwise Spearman correlations between ports, keeping the
statistically significant ones (p < 0.1).  Ground truths to recover:

1. the master server moves no bulk data, so its access port must show
   **no** significant correlation with any other port;
2. the two uplinks of each leaf are ECMP next-hops of the same traffic,
   so they must be **positively** correlated;
3. snapshots find substantially more significant pairs than polling
   (the paper: 43% more), and polling misses or even inverts the ECMP
   next-hop correlations.

The two collection campaigns (snapshots, polling) are independent trial
specs; each returns its per-port time series, and the correlation
matrices are computed at assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.analysis.stats import (ALPHA, CorrelationResult,
                                  significant_fraction, spearman_matrix)
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.campaigns import (CampaignSpec, Round,
                                         all_egress_targets, build_network,
                                         make_workload, polling_campaign,
                                         snapshot_campaign)
from repro.experiments.harness import TextTable, header
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.workloads.graphx import GraphXPageRankWorkload


@dataclass
class Fig13Config(ExperimentConfig):
    rounds: int = 100
    #: Cadence deliberately co-prime with the 10 ms GraphX iteration so
    #: successive rounds sample rotating superstep phases (the paper's
    #: 1 s interval achieves the same de-aliasing at testbed scale).
    interval_ns: int = 9_700_000

    @classmethod
    def quick(cls) -> "Fig13Config":
        return cls(rounds=50)


@dataclass
class Fig13Result:
    config: Fig13Config
    snapshots: CorrelationResult
    polling: CorrelationResult
    master_port: str
    uplink_pairs: list[tuple[str, str]]

    # ------------------------------------------------------------------
    # Derived metrics (the quantities §8.4 reports)
    # ------------------------------------------------------------------
    def significant_fraction(self, method: str) -> float:
        result = self.snapshots if method == "snapshots" else self.polling
        return significant_fraction(result)

    def extra_pairs_found(self) -> float:
        """How many more significant pairs snapshots find vs polling,
        as a ratio - 1 (the paper's "43% more")."""
        poll = len(self.polling.significant())
        snap = len(self.snapshots.significant())
        if poll == 0:
            return float("inf") if snap else 0.0
        return snap / poll - 1.0

    def master_significant(self, method: str) -> int:
        """Significant correlations involving the master's port (ground
        truth: zero)."""
        result = self.snapshots if method == "snapshots" else self.polling
        return sum(1 for (a, b) in result.significant()
                   if self.master_port in (a, b))

    def ecmp_pair_status(self, method: str) -> list[str]:
        """Per uplink pair: 'positive', 'negative', or 'insignificant'."""
        result = self.snapshots if method == "snapshots" else self.polling
        out = []
        for a, b in self.uplink_pairs:
            if result.p_of(a, b) >= ALPHA:
                out.append("insignificant")
            else:
                out.append("positive" if result.coefficient(a, b) > 0
                           else "negative")
        return out

    def report(self) -> str:
        table = TextTable(["Metric", "Snapshots", "Polling", "ground truth"])
        table.add("significant pair fraction",
                  f"{self.significant_fraction('snapshots'):.2f}",
                  f"{self.significant_fraction('polling'):.2f}",
                  "snapshots find more (+43% in paper)")
        table.add("master-port significant pairs",
                  self.master_significant("snapshots"),
                  self.master_significant("polling"),
                  "0 (master moves no bulk data)")
        table.add("ECMP uplink pairs",
                  ",".join(self.ecmp_pair_status("snapshots")),
                  ",".join(self.ecmp_pair_status("polling")),
                  "positive under snapshots")
        extra = self.extra_pairs_found()
        extra_str = "inf" if extra == float("inf") else f"{extra:+.0%}"
        return "\n".join([
            header("Figure 13 — pairwise port correlations under GraphX",
                   f"{self.config.rounds} rounds, Spearman, "
                   f"p < {ALPHA}"),
            table.render(),
            f"snapshots find {extra_str} significant pairs vs polling "
            "(paper: +43%)"])


# ----------------------------------------------------------------------
# Trial decomposition
# ----------------------------------------------------------------------

def _campaign_spec(config: Fig13Config) -> CampaignSpec:
    return CampaignSpec(workload="graphx", balancer="ecmp",
                        metric="ewma_packet_rate", rounds=config.rounds,
                        interval_ns=config.interval_ns, seed=config.seed,
                        poll_parallel_switches=False)


def specs(config: Fig13Config) -> list[TrialSpec]:
    """One spec per collection method."""
    return [TrialSpec.of("fig13", config, f"fig13/{method}",
                         point={"method": method})
            for method in ("snapshots", "polling")]


@trial("fig13")
def run_trial(spec: TrialSpec) -> TrialResult:
    campaign = (snapshot_campaign if spec.point["method"] == "snapshots"
                else polling_campaign)
    rounds = campaign(_campaign_spec(spec.config(Fig13Config)),
                      all_egress_targets)
    return make_result(spec, {"series": _series_from_rounds(rounds)})


def assemble(config: Fig13Config,
             results: Sequence[TrialResult]) -> Fig13Result:
    series = {r.point["method"]: r.data["series"] for r in results}
    master_port, uplink_pairs = _context(config)
    return Fig13Result(
        config=config,
        snapshots=spearman_matrix(series["snapshots"]),
        polling=spearman_matrix(series["polling"]),
        master_port=master_port,
        uplink_pairs=uplink_pairs)


EXPERIMENTS = (
    Experiment("fig13", "port correlations under GraphX",
               Fig13Config, specs, assemble),
)
run = EXPERIMENTS[0].run


def _series_from_rounds(rounds: list[Round]) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {}
    for round_ in rounds:
        for (sw, port, _d), value in round_.items():
            series.setdefault(f"{sw}:{port}", []).append(float(value))
    lengths = {len(v) for v in series.values()}
    if len(lengths) > 1:
        raise RuntimeError(f"ragged series: {lengths}")
    return series


def _context(config: Fig13Config) -> tuple[str, list[tuple[str, str]]]:
    """Master port name and uplink pair names, from the campaign's
    topology and the master its workload leaves out of the exchanges."""
    spec = _campaign_spec(config)
    network = build_network(spec)
    workload = make_workload(spec.workload, network, seed=spec.seed + 1,
                             stop_ns=spec.duration_ns)
    assert isinstance(workload, GraphXPageRankWorkload)
    master = workload.config.master
    master_leaf = None
    master_port = None
    for leaf in network.switches:
        port = network.port_map[leaf].get(master)
        if port is not None:
            master_leaf, master_port = leaf, port
            break
    assert master_leaf is not None
    pairs = []
    for leaf in sorted(network.switches):
        if not leaf.startswith("leaf"):
            continue
        uplinks = network.uplink_ports(leaf)
        for i in range(len(uplinks)):
            for j in range(i + 1, len(uplinks)):
                pairs.append((f"{leaf}:{uplinks[i]}", f"{leaf}:{uplinks[j]}"))
    return f"{master_leaf}:{master_port}", pairs
