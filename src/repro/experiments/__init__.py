"""Experiment harness: one module per table/figure of the paper.

Every module exposes the same shape:

* a ``Config`` dataclass with a ``quick()`` classmethod (reduced sizes
  for CI/benchmarks) — the default constructor matches the paper's
  parameters as closely as simulation cost allows;
* ``specs(config) -> List[TrialSpec]`` — the experiment as a batch of
  independent, picklable trial specs (see :mod:`repro.runtime`), each
  carrying the config (``TrialSpec.of``, ``spec.config(Config)``);
* ``assemble(config, results) -> Result`` — folds the per-trial rows
  back into a structured result;
* ``EXPERIMENTS`` — a tuple of :class:`Experiment` values, one per
  registered name, declared next to the ``specs``/``assemble`` they
  bind; ``run = EXPERIMENTS[0].run`` is the module's convenience entry
  (:meth:`Experiment.run`, the one ``specs -> run_batch -> assemble``);
* ``Result.report() -> str`` — the rows/series the paper reports,
  formatted for the terminal.

Run one experiment, or the whole suite as one batch through the shared
trial runner (parallel, cached)::

    python -m repro run fig9
    python -m repro experiments --jobs 4

``python -m repro experiments --list`` is the index of registered names
(DESIGN.md maps them to the paper's table and figures).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any, Optional

from repro.runtime import TrialResult, TrialRunner, TrialSpec
from repro.sim.engine import check_minimums


#: Most rounds one campaign may take (:class:`CampaignSpec` and the
#: experiment configs whose rounds become one).  The observer schedules
#: every round up front, 1.8–2.6 kB each on a two- to four-leaf fabric,
#: so 400 000 rounds hold ~1 GB before the first one runs.
MAX_ROUNDS = 400_000

#: The bound of each numeric field an experiment config hands to its
#: trials, by name; where a runtime config takes the field, that
#: config's own bound.  Any experiment config's field of one of these
#: names is held to it at construction, not first inside a worker's
#: trial; a list field's entries each are.
FIELD_BOUNDS: dict[str, Any] = {
    "seed": 0, "agg_degree": 0,                  # AggregationConfig.degree
    # ShardRunner; the partition also refuses more shards than switches.
    "shards": (1, 1024),
    "rounds": (1, MAX_ROUNDS),                   # CampaignSpec.rounds
    "snapshots": (1, MAX_ROUNDS),                # a campaign's count
    "burst": (1, MAX_ROUNDS),                    # a campaign's count
    "interval_ns": 1,                            # CampaignSpec.interval_ns
    "rate_pps": 1e-9,                            # PoissonConfig.rate_pps
    "hosts_per_leaf": (1, 256),                  # CampaignSpec
    "poll_read_ns": 0,                           # PollingConfig.per_read_ns
    "host_bw_bps": 1,                            # LinkSpec.bandwidth_bps
    # Rates whose period 1e9 / rate is a campaign interval.
    "rate_floor_hz": (1e-9, 1e9), "rate_ceiling_hz": (1e-9, 1e9),
    "burst_gap_ns": 1, "gap_ns": 1, "phase_ns": 1,  # schedule periods
    "ports": (1, 64), "port_counts": (1, 64),    # ports of one Tofino pipe
    "ports_per_router": 1, "ttl": 1, "starvation_period": 1,
    "search_iterations": 0,
    "trials": (1, 10_000),                       # 250x fig11's 40
    # Sweeps (a list field holds each entry to its bound).
    "router_counts": (1, 100_000),               # 10x the paper's largest
    "arities": (2, 32),                          # k=32: 1 280 switches
    "degrees": 0,                                # AggregationConfig.degree
    "service_costs_ns": 0,          # ControlPlaneConfig.notification_service_ns
    "residual_sigmas_ns": 0,                     # PTPConfig.residual_sigma_ns
    "rates_pps": 1e-9,                           # PoissonConfig.rate_pps
    "intensities": (0.0, 700.0),                 # IndependentFaults.intensity
    "clock_error_ns": 0,                         # inject_clock_error's sigma
}


@dataclass
class ExperimentConfig:
    """Base of an experiment's config: each field named in
    :data:`FIELD_BOUNDS` is held to its bound (the seed seeds every
    trial, so it is an integer >= 0), and a fat-tree sweep
    (``arities``) holds even entries only."""

    seed: int = 42

    def __post_init__(self) -> None:
        check_minimums(self, {name: bound
                              for name, bound in FIELD_BOUNDS.items()
                              if hasattr(self, name)},
                       optional=("agg_degree",))
        odd = [k for k in getattr(self, "arities", ()) if k % 2]
        if odd:
            raise ValueError(f"{type(self).__name__}.arities must be even "
                             f"fat-tree arities, got {odd[0]!r}")


@dataclass(frozen=True)
class Experiment:
    """A uniform handle on one paper experiment for the CLI/tools.

    ``specs``/``assemble`` expose the trial decomposition so callers can
    batch *several* experiments through one :class:`TrialRunner` (the
    CLI submits the whole suite as a single batch for maximum
    parallelism); ``run`` is the one-experiment convenience path.
    """

    name: str
    description: str
    config_cls: type
    specs: Callable[[Any], list[TrialSpec]]
    assemble: Callable[[Any, Sequence[TrialResult]], Any]

    def config(self, quick: bool = False) -> Any:
        return self.config_cls.quick() if quick else self.config_cls()

    def run(self, config: Optional[Any] = None,
            runner: Optional[TrialRunner] = None) -> Any:
        """``assemble(config, runner.run_batch(specs(config)))`` with the
        full-size config and a serial, uncached runner as defaults."""
        config = config or self.config_cls()
        runner = runner or TrialRunner()
        return self.assemble(config, runner.run_batch(self.specs(config)))


#: The experiment modules in presentation order — the one list of them.
#: Each declares its ``EXPERIMENTS`` and registers its trial kinds as an
#: import side effect.  Names, not imports, so ``import
#: repro.experiments`` (and light CLI commands like ``metrics``) stay
#: cheap.
_MODULES = ("motivation", "table1", "fig9", "fig10", "fig11", "fig12",
            "fig13", "ablations", "sweeps", "scaling", "faults", "recovery",
            "updates")

#: ``(name, description)`` of every registered experiment, in
#: :func:`registry` order: what ``repro experiments --list`` prints
#: without importing a module (and, through them, numpy).
#: tests/test_cli.py pins it to the registry.
LISTING = (
    ("motivation", "Figure 1: balanced vs. alternating queues"),
    ("table1", "data-plane resource usage on the Tofino"),
    ("fig9", "synchronization CDFs: snapshots vs. polling"),
    ("fig10", "max sustained snapshot rate vs. ports/router"),
    ("fig10-agg", "whole-fabric snapshot rate vs. aggregation degree"),
    ("fig11", "average synchronization vs. network size"),
    ("fig12", "load-balance stddev: ECMP/flowlet x snapshot/poll"),
    ("fig13", "port correlations under GraphX"),
    ("ablation-ideal", "idealised vs. hardware-constrained data plane"),
    ("ablation-initiation", "multi- vs. single-initiator"),
    ("ablation-transport", "raw-socket vs. digest notifications"),
    ("sweep-service-cost", "Fig 10 knee vs. per-notification CPU cost"),
    ("sweep-ptp", "snapshot sync vs. clock quality (PTP->NTP)"),
    ("sweep-rate", "channel-state sync vs. traffic rate"),
    ("scaling", "full protocol on growing fat-trees"),
    ("faults", "snapshot health vs. fault intensity (chaos)"),
    ("recovery", "completion-vs-overhead frontier of recovery policies"),
    ("updates", "coordinated-update verdicts vs. injected clock error"),
)


def registry() -> dict[str, Experiment]:
    """All paper experiments, in presentation order.  Importing them is
    also what registers every trial kind, so
    :func:`repro.runtime.resolve` calls this on a miss."""
    modules = (importlib.import_module(f"{__name__}.{name}")
               for name in _MODULES)
    return {exp.name: exp for module in modules for exp in module.EXPERIMENTS}


__all__ = ["Experiment", "LISTING", "registry"]
