"""Figure 12: evaluating load balancing with snapshots vs. polling.

The paper's §8.3 experiment: under each of the three workloads, measure
the EWMA of packet interarrival time on every leaf uplink port, compute
the standard deviation across uplinks of the same switch per measurement
round, and plot the CDF of those standard deviations for the four
combinations {ECMP, flowlet} × {snapshots, polling}.

Reproduction targets (shapes, not absolute values — see EXPERIMENTS.md):

* flowlet switching balances better than ECMP when measured with
  snapshots (lower stddev CDF);
* **Hadoop** — polling shows "little-to-no gain for flowlets, when in
  reality flowlets improve balance significantly";
* **GraphX** — "polling consistently underestimates the imbalance";
* **memcache** — very evenly distributed, "polling consistently
  overestimates the imbalance"; stddevs are µs-scale vs. Hadoop/GraphX's
  ms-scale.

Every (workload, balancer, method) combination is an independent
campaign, hence an independent trial spec — up to twelve-way parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from itertools import product

from repro.analysis.stats import Cdf, balance_stddevs
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.campaigns import (CampaignSpec, polling_campaign,
                                         rounds_to_balance_input,
                                         snapshot_campaign,
                                         uplink_egress_targets)
from repro.experiments.harness import TextTable, ascii_cdf, header
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.engine import MS

WORKLOADS = ("hadoop", "graphx", "memcache")
BALANCERS = ("ecmp", "flowlet")
METHODS = ("snapshots", "polling")


@dataclass
class Fig12Config(ExperimentConfig):
    rounds: int = 60
    interval_ns: int = 5 * MS
    workloads: tuple[str, ...] = WORKLOADS

    @classmethod
    def quick(cls) -> "Fig12Config":
        return cls(rounds=25)


@dataclass
class Fig12Result:
    config: Fig12Config
    #: (workload, balancer, method) -> CDF of balance stddevs (ns).
    cdfs: dict[tuple[str, str, str], Cdf]

    def report(self) -> str:
        lines = [header("Figure 12 — stddev of uplink load balance",
                        "EWMA of packet interarrival across same-switch "
                        "uplinks; lower = better balanced")]
        for workload in self.config.workloads:
            table = TextTable(["Series", "p50 (us)", "p90 (us)", "max (us)"])
            curves = {}
            for balancer in BALANCERS:
                for method in METHODS:
                    cdf = self.cdfs[(workload, balancer, method)]
                    table.add(f"{balancer} {method}", cdf.median / 1e3,
                              cdf.percentile(90) / 1e3, cdf.max / 1e3)
                    curves[f"{balancer}/{method}"] = cdf
            lines += [f"\n[{workload}]", table.render(), "",
                      ascii_cdf(curves, x_label="us (log)", x_scale=1e3)]
        lines.append(
            "\npaper shapes: flowlet < ECMP under snapshots; polling hides "
            "the flowlet gain (Hadoop), underestimates imbalance (GraphX), "
            "overestimates it (memcache, us-scale).")
        return "\n".join(lines)

    def median(self, workload: str, balancer: str, method: str) -> float:
        return self.cdfs[(workload, balancer, method)].median


# ----------------------------------------------------------------------
# Trial decomposition
# ----------------------------------------------------------------------

def specs(config: Fig12Config) -> list[TrialSpec]:
    """One spec per (workload, balancer, method) campaign."""
    return [TrialSpec.of("fig12", config,
                         f"fig12/{workload}/{balancer}/{method}",
                         point={"balancer": balancer, "method": method},
                         workloads=[workload])
            for workload, balancer, method
            in product(config.workloads, BALANCERS, METHODS)]


@trial("fig12")
def run_trial(spec: TrialSpec) -> TrialResult:
    config = spec.config(Fig12Config)
    (workload,) = config.workloads
    campaign_spec = CampaignSpec(workload=workload,
                                 balancer=spec.point["balancer"],
                                 metric="ewma_interarrival",
                                 rounds=config.rounds,
                                 interval_ns=config.interval_ns,
                                 seed=config.seed)
    campaign = (snapshot_campaign if spec.point["method"] == "snapshots"
                else polling_campaign)
    rounds = campaign(campaign_spec, uplink_egress_targets)
    stddevs = balance_stddevs(rounds_to_balance_input(rounds))
    if not stddevs:
        raise RuntimeError(f"no complete rounds for {spec.describe()}")
    return make_result(spec, {"stddevs": stddevs})


def assemble(config: Fig12Config,
             results: Sequence[TrialResult]) -> Fig12Result:
    cells = product(config.workloads, BALANCERS, METHODS)
    cdfs = {cell: Cdf(r.data["stddevs"]) for cell, r in zip(cells, results)}
    return Fig12Result(config=config, cdfs=cdfs)


EXPERIMENTS = (
    Experiment("fig12", "load-balance stddev: ECMP/flowlet x snapshot/poll",
               Fig12Config, specs, assemble),
)
run = EXPERIMENTS[0].run
