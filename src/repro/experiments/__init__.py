"""Experiment harness: one module per table/figure of the paper.

Every module exposes the same shape:

* a ``Config`` dataclass with a ``quick()`` classmethod (reduced sizes
  for CI/benchmarks) — the default constructor matches the paper's
  parameters as closely as simulation cost allows;
* ``specs(config) -> List[TrialSpec]`` — the experiment as a batch of
  independent, picklable trial specs (see :mod:`repro.runtime`);
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


@dataclass
class ExperimentConfig:
    """Base of an experiment's config: its seed seeds every trial, so it
    is an integer >= 0 (:class:`~repro.runtime.TrialSpec`)."""

    seed: int = 42

    def __post_init__(self) -> None:
        check_minimums(self, {"seed": 0})


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
