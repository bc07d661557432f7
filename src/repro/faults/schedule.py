"""Declarative fault schedules.

A :class:`FaultSchedule` is a validated list of :class:`FaultEvent`\\ s —
*what* goes wrong, *where*, *when*, and for *how long*.  A schedule is
compiled from a :class:`~repro.faults.profile.FaultProfile` where it is
armed and is never serialised: the profile's JSON is what rides in a
TrialSpec and its cache fingerprint.  Schedules are entirely decoupled
from the simulation objects they will act on (the
:class:`~repro.faults.injector.FaultInjector` binds them to a live
network at arm time, and on a shard arms only that shard's events).

Determinism contract
--------------------
* An **empty schedule arms nothing**: zero events are scheduled and zero
  random numbers are drawn, so a run with ``FaultSchedule()`` is
  byte-identical to a run with no schedule at all (the golden-trace
  guard pins this).
* Stochastic fault *behaviour* (e.g. Gilbert–Elliott loss draws) comes
  from the network's dedicated ``_child_rng("faults")`` stream, never
  from the streams driving workloads, PTP, or control planes — injecting
  faults perturbs the simulation through the faults themselves, not
  through RNG stream pollution.
* Stochastic fault *placement* is done ahead of time by the
  :mod:`repro.faults.profile` spec layer, which maps ``(profile, seed)``
  to a concrete schedule through derived per-stream RNGs — same spec,
  same context, same schedule, on every machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.sim.engine import check_minimums

#: Every fault kind the injector understands, with the layer it hooks.
FAULT_KINDS = {
    # sim.channel
    "link_down": "link",        # administrative down; revert flaps it back up
    "link_loss": "link",        # swap in a loss model (bernoulli | gilbert_elliott)
    "link_delay": "link",       # latency spike: extra one-way delay, FIFO-safe
    # sim.switch
    "queue_squeeze": "switch",  # shrink every egress buffer (tail drops)
    "unit_stall": "switch",     # pause egress dequeuing (slow/stuck unit)
    # core.control_plane
    "cp_crash": "switch",       # kill the CP process; revert = restart + recovery
    "cp_overflow": "switch",    # shrink the notification buffer
    "cp_slow": "switch",        # inflate notification service latency
    # sim.clock
    "clock_holdover": "clock",  # stop PTP disciplining (drift accumulates)
    "clock_step": "clock",      # instantaneous offset step (no revert)
}

#: Kinds whose effect is instantaneous — ``duration_ns`` is meaningless
#: and must be 0.
INSTANT_KINDS = frozenset({"clock_step"})


@dataclass
class FaultEvent:
    """One scheduled fault.

    ``target`` names the object the fault applies to: a link (either
    endpoint order, e.g. ``"s0-s1"``), a switch, or a clock owner —
    or ``"*"`` for every eligible object of the kind's layer.
    ``duration_ns == 0`` means the fault is permanent (never reverted);
    for :data:`INSTANT_KINDS` it is the only legal value.
    """

    at_ns: int
    kind: str
    target: str = "*"
    duration_ns: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {', '.join(sorted(FAULT_KINDS))})")
        check_minimums(self, {"at_ns": 0, "duration_ns": 0})
        if self.kind in INSTANT_KINDS and self.duration_ns:
            raise ValueError(
                f"{self.kind} is instantaneous; duration_ns must be 0")
        if not self.target:
            raise ValueError("target cannot be empty")

    @property
    def layer(self) -> str:
        return FAULT_KINDS[self.kind]


@dataclass
class FaultSchedule:
    """An ordered collection of fault events.

    Events are kept sorted by ``(at_ns, insertion order)`` so arming the
    injector is deterministic regardless of construction order.
    """

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"expected FaultEvent, got {event!r}")
        self._sort()

    def _sort(self) -> None:
        self.events.sort(key=lambda e: e.at_ns)

    def add(self, kind: str, at_ns: int, *, target: str = "*",
            duration_ns: int = 0, **params: Any) -> FaultEvent:
        """Append one event (convenience builder)."""
        event = FaultEvent(at_ns=at_ns, kind=kind, target=target,
                           duration_ns=duration_ns, params=dict(params))
        self.events.append(event)
        self._sort()
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self):
        return iter(self.events)


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's product method — fine for the small means profiles use."""
    import math
    threshold = math.exp(-mean)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _default_params(kind: str, rng: random.Random) -> dict[str, Any]:
    """Reasonable stochastic parameters for profile-compiled events."""
    if kind == "link_loss":
        return {"model": "gilbert_elliott",
                "p_good_to_bad": 0.01,
                "p_bad_to_good": 0.1,
                "p_loss_bad": round(0.3 + 0.6 * rng.random(), 3)}
    if kind == "link_delay":
        return {"extra_ns": int(50_000 + rng.random() * 450_000)}
    if kind == "queue_squeeze":
        return {"capacity": rng.randint(4, 16)}
    if kind == "cp_overflow":
        return {"capacity": rng.randint(4, 32)}
    if kind == "cp_slow":
        return {"scale": round(2.0 + 8.0 * rng.random(), 2)}
    if kind == "clock_step":
        sign = 1 if rng.random() < 0.5 else -1
        return {"delta_ns": sign * int(10_000 + rng.random() * 190_000)}
    return {}
