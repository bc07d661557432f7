"""Recovery policies — the §6 liveness machinery as a first-class spec.

The paper's recovery knobs (control-plane re-initiation timeouts,
liveness-probe delay, register polls, observer retry/device timeouts)
used to be hard-coded fields scattered across
:class:`~repro.core.control_plane.ControlPlaneConfig` and
:class:`~repro.core.observer.ObserverConfig`.  A :class:`RecoveryPolicy`
gathers exactly those knobs into one frozen, JSON-round-trippable spec
that can be

* applied by passing the two configs it builds to
  :func:`repro.core.deploy`: ``control_plane=policy.control_plane_config()``
  and ``observer=policy.observer_config()``,
* swept by :mod:`repro.experiments.recovery` against
  :class:`~repro.faults.FaultProfile`\\ s to map the
  completion-vs-overhead frontier, and
* embedded in trial params (so the policy is part of the trial cache
  fingerprint).

``register_poll_interval_ns`` adds the one §6 mechanism that previously
existed only as a manual call: periodic proactive register polls that
recover from dropped notifications without waiting for re-initiation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from collections.abc import Mapping
from typing import Any, Optional

from repro.core.control_plane import ControlPlaneConfig
from repro.core.observer import ObserverConfig
from repro.sim.engine import MS

__all__ = ["RECOVERY_PRESETS", "RecoveryPolicy"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Every §6 recovery/liveness tunable, in one declarative object.

    Each default is read from the config the field overlays, so
    ``RecoveryPolicy()`` is behaviourally neutral and the paper's values
    live in one place; each value is checked by building both configs.
    """

    name: str = "paper-default"
    #: Control plane: re-send initiations for locally incomplete epochs.
    reinitiation_timeout_ns: int = ControlPlaneConfig.reinitiation_timeout_ns
    max_reinitiations: int = ControlPlaneConfig.max_reinitiations
    #: Control plane: idle-channel probe injection after each initiation
    #: (0 disables; liveness then rides on re-initiation alone).
    probe_delay_ns: int = ControlPlaneConfig.probe_delay_ns
    #: Control plane: periodic proactive register polls (0 disables) —
    #: recovers from dropped notifications without waiting for timeouts.
    register_poll_interval_ns: int = ControlPlaneConfig.register_poll_interval_ns
    #: Observer: re-register initiations for incomplete snapshots.
    retry_timeout_ns: int = ObserverConfig.retry_timeout_ns
    max_retries: int = ObserverConfig.max_retries
    #: Observer: exclude silent devices only after this grace period.
    device_timeout_ns: int = ObserverConfig.device_timeout_ns

    def __post_init__(self) -> None:
        self.control_plane_config()
        self.observer_config()

    # ------------------------------------------------------------------
    # Threading into the core configs
    # ------------------------------------------------------------------
    def control_plane_config(
            self, base: Optional[ControlPlaneConfig] = None,
    ) -> ControlPlaneConfig:
        """The control-plane config with this policy's recovery fields
        applied over ``base`` (every non-recovery field is preserved)."""
        return replace(
            base if base is not None else ControlPlaneConfig(),
            reinitiation_timeout_ns=self.reinitiation_timeout_ns,
            max_reinitiations=self.max_reinitiations,
            probe_delay_ns=self.probe_delay_ns,
            register_poll_interval_ns=self.register_poll_interval_ns)

    def observer_config(
            self, base: Optional[ObserverConfig] = None) -> ObserverConfig:
        """The observer config with this policy's retry/exclusion fields
        applied over ``base``."""
        return replace(
            base if base is not None else ObserverConfig(),
            retry_timeout_ns=self.retry_timeout_ns,
            max_retries=self.max_retries,
            device_timeout_ns=self.device_timeout_ns)

    # ------------------------------------------------------------------
    # Serialization (trial params / CLI)
    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "RecoveryPolicy":
        return cls(**dict(data))


def _presets() -> dict[str, RecoveryPolicy]:
    return {
        # The hard-coded values of PRs past, now merely a default.
        "paper-default": RecoveryPolicy(),
        # Spend control messages freely for fast, robust completion.
        "eager": RecoveryPolicy(
            name="eager",
            reinitiation_timeout_ns=5 * MS, max_reinitiations=5,
            probe_delay_ns=1 * MS, register_poll_interval_ns=5 * MS,
            retry_timeout_ns=20 * MS, max_retries=4,
            device_timeout_ns=120 * MS),
        # Minimal overhead: one late re-initiation, slow probes, no
        # polls, a single observer retry.
        "patient": RecoveryPolicy(
            name="patient",
            reinitiation_timeout_ns=60 * MS, max_reinitiations=1,
            probe_delay_ns=10 * MS, register_poll_interval_ns=0,
            retry_timeout_ns=100 * MS, max_retries=1,
            device_timeout_ns=400 * MS),
        # Paper defaults plus periodic register polls — isolates what
        # proactive polling buys on top of the timeout machinery.
        "polling": RecoveryPolicy(
            name="polling", register_poll_interval_ns=10 * MS),
    }


#: Named policies for sweeps and the CLI.
RECOVERY_PRESETS: dict[str, RecoveryPolicy] = _presets()
