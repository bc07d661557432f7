"""repro.faults — deterministic fault injection for the snapshot testbed.

The paper's claim is not that snapshots work on a healthy network; it is
that they stay *causally consistent* when the network misbehaves (§4.2,
§6).  This package turns that claim into something the repo can sweep,
through a spec → compile → inject pipeline:

* :mod:`~repro.faults.profile` — the **FaultProfile algebra**: JSON-able
  spec dataclasses (:class:`IndependentFaults`,
  :class:`CorrelatedGroup` for rack-power-loss modes,
  :class:`MaintenanceWindow`, :class:`Cascade`, and :class:`Compose`)
  that compile deterministically against a :class:`ProfileContext` into
  a concrete schedule.  Parts draw from content-keyed seeded streams, so
  composing or reordering profiles never reshuffles another part's
  events.
* :class:`~repro.faults.schedule.FaultSchedule` — a declarative list
  of timed :class:`~repro.faults.schedule.FaultEvent`\\ s
  (link flaps, bursty loss, latency spikes, buffer squeezes, unit
  stalls, control-plane crashes/overflows/slowdowns, clock holdover and
  steps).
* :class:`~repro.faults.injector.FaultInjector` — binds a schedule to a
  live :class:`~repro.sim.network.Network` (and optionally a
  :class:`~repro.core.deployment.SpeedlightDeployment`), scheduling the
  apply/revert callbacks on the event engine (on a shard, for the
  events whose targets live there).
* :mod:`~repro.faults.attribution` — maps the injector's log back onto
  snapshot epochs: which fault overlapped which epoch, and how the epoch
  fared.
* :class:`~repro.core.recovery.RecoveryPolicy` (re-exported here) — the
  §6 recovery knobs as one spec, swept against profiles by
  ``repro experiments recovery``.

``from repro.faults import FaultProfile, CorrelatedGroup, RecoveryPolicy``
is the supported entry point; everything in ``__all__`` is public API.

Determinism contract: an empty schedule arms zero events and draws zero
randomness — runs with ``FaultSchedule()`` are byte-identical to runs
with no schedule at all.  See ``docs/FAULTS.md``.
"""

from repro.core.recovery import RECOVERY_PRESETS, RecoveryPolicy
from repro.faults.attribution import (EpochAttribution, FaultSpan,
                                      attribute_epochs, spans_from_log)
from repro.faults.injector import FaultInjector, InjectionRecord
from repro.faults.profile import (Cascade, Compose, CorrelatedGroup,
                                  FaultProfile, IndependentFaults,
                                  MaintenanceWindow, ProfileContext)
from repro.faults.schedule import (FAULT_KINDS, INSTANT_KINDS, FaultEvent,
                                   FaultSchedule)

__all__ = [
    "FAULT_KINDS",
    "INSTANT_KINDS",
    "Cascade",
    "Compose",
    "CorrelatedGroup",
    "EpochAttribution",
    "FaultEvent",
    "FaultInjector",
    "FaultProfile",
    "FaultSchedule",
    "FaultSpan",
    "IndependentFaults",
    "InjectionRecord",
    "MaintenanceWindow",
    "ProfileContext",
    "RECOVERY_PRESETS",
    "RecoveryPolicy",
    "attribute_epochs",
    "spans_from_log",
]
