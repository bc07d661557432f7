"""Figure 11: average synchronization vs. number of routers.

The paper's own methodology is a simulation: "Our simulation included
PTP time drift, OpenNetworkLinux scheduling effects, and the latency
between initiation and data plane snapshot execution.  Distributions for
all of these values were collected from our hardware testbed." (§8.2)

We do the same Monte-Carlo with the distributions our simulated testbed
uses (so Figure 9 and Figure 11 are controlled by one set of constants):

* PTP residual clock offset — :class:`repro.sim.clock.PTPConfig`;
* OS scheduler wake-up latency — the control plane's lognormal+tail
  model (:func:`repro.core.control_plane.sample_wakeup_ns`);
* initiation→execution latency — per-port serial injection cost plus
  the constant ASIC crossing (constants cancel in a max-min spread, but
  the per-port sweep does not).

Per trial, each of N routers draws one clock error and one wake-up
latency; its 64 ports' ingress units execute the snapshot at
``clock + wakeup + k * per_port + jitter``.  Whole-network
synchronization is the spread between the earliest and latest unit
execution; the figure reports the average over trials.  The curve grows
with N (extreme-value effect over bounded distributions) and saturates
under 100 µs — "this effect is asymptotic and still stays under typical
RTTs".

Each network size is an independent trial spec with a seed derived
deterministically from ``(seed, N)``, so the Monte-Carlo parallelises
without reordering any random stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core import control_plane
from repro.experiments import Experiment, ExperimentConfig
from repro.experiments.harness import TextTable, header
from repro.runtime import (TrialResult, TrialSpec, derive_seed, make_result,
                           trial)
from repro.sim.clock import PTPConfig


@dataclass
class Fig11Config(ExperimentConfig):
    router_counts: list[int] = field(
        default_factory=lambda: [10, 30, 100, 300, 1000, 3000, 10000])
    ports_per_router: int = 64
    trials: int = 40
    ptp: PTPConfig = field(default_factory=PTPConfig)

    @classmethod
    def quick(cls) -> "Fig11Config":
        return cls(router_counts=[10, 100, 1000, 10000], trials=12)


@dataclass
class Fig11Result:
    config: Fig11Config
    avg_sync_ns: dict[int, float]

    def report(self) -> str:
        table = TextTable(["Routers", "Avg synchronization (us)"])
        for n in sorted(self.avg_sync_ns):
            table.add(n, self.avg_sync_ns[n] / 1e3)
        lines = [
            header("Figure 11 — average synchronization vs. network size",
                   f"{self.config.ports_per_router}-port routers, "
                   "no channel state, Monte-Carlo over testbed distributions"),
            table.render(),
            "paper: grows slowly with network size, stays < 100 us "
            "even at 10,000 routers"]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trial decomposition
# ----------------------------------------------------------------------

def specs(config: Fig11Config) -> list[TrialSpec]:
    """One spec per network size."""
    return [TrialSpec.of("fig11", config, f"fig11/{n}r", router_counts=[n])
            for n in config.router_counts]


@trial("fig11")
def run_trial(spec: TrialSpec) -> TrialResult:
    config = spec.config(Fig11Config)
    (routers,) = config.router_counts
    rng = random.Random(derive_seed(config.seed, "fig11", routers))
    total = sum(_trial_sync_ns(rng, config, routers)
                for _ in range(config.trials))
    return make_result(spec, {"avg_sync_ns": total / config.trials})


def assemble(config: Fig11Config,
             results: Sequence[TrialResult]) -> Fig11Result:
    return Fig11Result(config=config,
                       avg_sync_ns={n: r.data["avg_sync_ns"] for n, r
                                    in zip(config.router_counts, results)})


EXPERIMENTS = (
    Experiment("fig11", "average synchronization vs. network size",
               Fig11Config, specs, assemble),
)
run = EXPERIMENTS[0].run


# ----------------------------------------------------------------------
# Monte-Carlo sampling
# ----------------------------------------------------------------------

def _sample_clock_error(rng: random.Random, ptp: PTPConfig) -> int:
    """One signed PTP residual (same model as PTPService.sample_residual)."""
    if rng.random() < ptp.tail_probability:
        magnitude = rng.uniform(ptp.residual_sigma_ns, ptp.residual_max_ns)
    else:
        magnitude = min(abs(rng.gauss(0.0, ptp.residual_sigma_ns)),
                        ptp.residual_max_ns)
    return int(magnitude) if rng.random() < 0.5 else -int(magnitude)


def _trial_sync_ns(rng: random.Random, config: Fig11Config,
                   num_routers: int) -> int:
    earliest = None
    latest = None
    per_port = control_plane.INITIATION_CPU_NS
    sweep = config.ports_per_router * per_port
    jitter = control_plane.uniform_jitter(rng,
                                          control_plane.INITIATION_JITTER_NS)
    for _ in range(num_routers):
        base = (_sample_clock_error(rng, config.ptp)
                + control_plane.sample_wakeup_ns(rng))
        first = base + per_port + jitter()
        last = base + sweep + jitter()
        lo, hi = min(first, last), max(first, last)
        earliest = lo if earliest is None else min(earliest, lo)
        latest = hi if latest is None else max(latest, hi)
    return latest - earliest
