"""Composable fault profiles — the spec algebra above :class:`FaultSchedule`.

A :class:`FaultProfile` describes *what kind of chaos* to inject without
naming concrete targets or times; compiling it against a
:class:`ProfileContext` (the target inventory plus the time window and
seed) deterministically yields a concrete
:class:`~repro.faults.schedule.FaultSchedule`.  Profiles are plain,
frozen, JSON-round-trippable dataclasses, so a profile (not the
schedule it compiles to) rides inside trial params and therefore cache
fingerprints; the trial recompiles it against the same context where
it arms the schedule.  Profiles compose::

    profile = (IndependentFaults(intensity=0.5)
               | CorrelatedGroup(switch="leaf0")          # rack power loss
               | MaintenanceWindow(targets=("spine1-leaf0",),
                                   offset_ns=20 * MS, duration_ns=5 * MS)
               | Cascade(origin="spine0", probability=0.6))
    schedule = profile.compile(ProfileContext.for_topology(
        topo, horizon_ns=60 * MS, seed=42))

Determinism contract
--------------------
* Every profile part draws from RNG streams derived from
  ``(seed, part.stream, …)`` — never from a shared cursor — so composing
  parts, reordering them inside a :class:`Compose`, or adding a new part
  **never reshuffles another part's events**.
* All event placement funnels through one clamp point
  (:meth:`ProfileContext.emit`), which guarantees every compiled event —
  including correlated-group jitter offsets and cascade propagation
  delays that would otherwise escape — lands inside
  ``[start_ns, start_ns + horizon_ns)`` with its duration clamped to the
  window.
* A profile whose every stochastic part has zero intensity compiles to
  an **empty schedule**: arming it is byte-identical to no injector at
  all (pinned by the golden-trace guard).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from typing import Any, ClassVar, Optional

from repro.faults.schedule import (FAULT_KINDS, INSTANT_KINDS, FaultSchedule,
                                   _default_params, _poisson)
from repro.sim.engine import MS, check_minimums
from repro.specs import Composite, Spec, Window

__all__ = [
    "Cascade",
    "Compose",
    "CorrelatedGroup",
    "FaultProfile",
    "IndependentFaults",
    "MaintenanceWindow",
    "ProfileContext",
]


@dataclass(frozen=True)
class ProfileContext(Window):
    """Where and when a profile compiles: targets, window, seed.

    ``links``/``switches``/``clocks`` are the eligible targets of each
    fault layer (see :data:`~repro.faults.schedule.FAULT_KINDS`).  The
    context is profile-independent, so the *same* context compiles every
    part of a composite — that is what makes the parts' schedules merge
    coherently.
    """

    links: tuple[str, ...] = ()
    switches: tuple[str, ...] = ()
    clocks: tuple[str, ...] = ()

    @classmethod
    def for_topology(cls, topo: Any, *, horizon_ns: int, start_ns: int = 0,
                     seed: int = 0) -> "ProfileContext":
        """Derive the target inventory from a
        :class:`~repro.topology.graph.Topology`: fabric (switch-to-switch)
        links, every switch, and one clock per switch.  Host-facing links
        are excluded — downing them only throttles the workload."""
        from repro.topology.graph import NodeKind

        switches = tuple(topo.switches)
        fabric = tuple(sorted(
            f"{spec.a}-{spec.b}" for spec in topo.links
            if topo.kind(spec.a) is NodeKind.SWITCH
            and topo.kind(spec.b) is NodeKind.SWITCH))
        return cls(horizon_ns=horizon_ns, links=fabric, switches=switches,
                   clocks=switches, start_ns=start_ns, seed=seed)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def targets_for(self, kind: str) -> tuple[str, ...]:
        layer = FAULT_KINDS[kind]
        return {"link": self.links, "switch": self.switches,
                "clock": self.clocks}[layer]

    def incident_links(self, switch: str) -> tuple[str, ...]:
        """Links with ``switch`` as an endpoint (name-prefix/suffix
        match; link names are ``"a-b"``)."""
        return tuple(link for link in self.links
                     if link.startswith(f"{switch}-")
                     or link.endswith(f"-{switch}"))

    def switch_adjacency(self) -> dict[str, tuple[str, ...]]:
        """Switch-to-switch neighbor map recovered from the link names
        (sorted neighbors, for deterministic iteration)."""
        known = set(self.switches)
        adjacency: dict[str, set[str]] = {s: set() for s in self.switches}
        for link in self.links:
            for a in self.switches:
                if not link.startswith(f"{a}-"):
                    continue
                b = link[len(a) + 1:]
                if b in known:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
                    break
        return {s: tuple(sorted(peers)) for s, peers in adjacency.items()}

    def rng(self, *parts: Any) -> random.Random:
        """One derived RNG stream per ``(seed, *parts)`` key.  Streams
        are independent: no profile part can disturb another's draws."""
        return random.Random("/".join(str(p) for p in (self.seed, *parts)))

    # ------------------------------------------------------------------
    # The single clamp/validate point (every compiled event goes here)
    # ------------------------------------------------------------------
    def emit(self, schedule: FaultSchedule, kind: str, at_ns: int, *,
             target: str, duration_ns: int = 0,
             params: Optional[Mapping[str, Any]] = None) -> None:
        """Append one event, validated and clamped into the window.

        ``target`` must be in the inventory of the kind's layer (or
        ``"*"``; a link may name its endpoints in either order — exactly
        what the injector accepts).  ``at_ns`` is clamped into
        ``[start_ns, end_ns)`` — uniform draws can round onto the
        horizon edge and correlated/cascade offsets can overshoot it —
        and ``duration_ns`` is clamped so the revert also lands inside
        the window (instant kinds are forced to 0).
        """
        known = self.targets_for(kind)
        a, _, b = target.partition("-")
        if target != "*" and target not in known and f"{b}-{a}" not in known:
            raise ValueError(
                f"{kind}: no {FAULT_KINDS[kind]} named {target!r} in the "
                f"profile context (known: {', '.join(sorted(known))})")
        at = self.clamp(at_ns)
        if kind in INSTANT_KINDS:
            duration = 0
        else:
            duration = max(0, min(int(duration_ns), self.end_ns - at))
        schedule.add(kind, at, target=target, duration_ns=duration,
                     **dict(params or {}))


# ----------------------------------------------------------------------
# The profile algebra
# ----------------------------------------------------------------------


class FaultProfile(Spec):
    """Base of every profile spec (the ``"fault profile"`` family of
    :mod:`repro.specs`, which supplies JSON round-tripping and the ``|``
    composition operator); subclasses implement :meth:`compile`."""

    family: ClassVar[str] = "fault profile"

    def compile(self, ctx: ProfileContext) -> FaultSchedule:
        raise NotImplementedError


def _check_kinds(kinds: Iterable[str]) -> None:
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} "
                f"(known: {', '.join(sorted(FAULT_KINDS))})")


@dataclass(frozen=True)
class IndependentFaults(FaultProfile):
    """Faults drawn independently per (kind, target) — the classic
    intensity profile.

    ``intensity`` is the expected number of events per (kind, target)
    over the window; times are uniform, durations exponential with mean
    ``mean_duration_ns``.  Each (kind, target) pair draws from its own
    ``(seed, stream, kind, target)`` RNG stream, so adding a target or a
    kind never reshuffles the events of the others.
    """

    spec_type: ClassVar[str] = "independent"

    intensity: float = 0.0
    kinds: Optional[tuple[str, ...]] = None
    mean_duration_ns: int = 5 * MS
    stream: str = "faults"

    def __post_init__(self) -> None:
        if self.kinds is not None and not isinstance(self.kinds, tuple):
            object.__setattr__(self, "kinds", tuple(self.kinds))
        # Knuth's Poisson sampler (``_poisson``) compares against
        # exp(-intensity), a normal float only below 708.
        check_minimums(self, {"intensity": (0.0, 700.0),
                              "mean_duration_ns": 1})
        if self.kinds is not None:
            _check_kinds(self.kinds)

    def compile(self, ctx: ProfileContext) -> FaultSchedule:
        schedule = FaultSchedule()
        if self.intensity == 0:
            return schedule
        chosen = (sorted(FAULT_KINDS) if self.kinds is None
                  else list(self.kinds))
        for kind in chosen:
            for target in ctx.targets_for(kind):
                rng = ctx.rng(self.stream, kind, target)
                count = _poisson(rng, self.intensity)
                for _ in range(count):
                    at = ctx.start_ns + int(rng.random() * ctx.horizon_ns)
                    if kind in INSTANT_KINDS:
                        duration = 0
                    else:
                        duration = 1 + int(
                            rng.expovariate(1.0 / self.mean_duration_ns))
                    ctx.emit(schedule, kind, at, target=target,
                             duration_ns=duration,
                             params=_default_params(kind, rng))
        return schedule


@dataclass(frozen=True)
class CorrelatedGroup(FaultProfile):
    """One correlated failure group — e.g. rack power loss.

    With the defaults, compiling downs **every fabric link of one
    switch and that switch's control plane at the same instant** (the
    ROADMAP's "rack power loss = all links + CP of one switch").
    ``switch=None`` picks the victim deterministically from the
    context's seed; ``at_ns=None`` draws the group's start uniformly in
    the window.  ``jitter_ns`` staggers the members by independent
    uniform offsets (0 keeps the group simultaneous).
    """

    spec_type: ClassVar[str] = "correlated"

    switch: Optional[str] = None
    at_ns: Optional[int] = None
    duration_ns: int = 10 * MS
    jitter_ns: int = 0
    link_kind: str = "link_down"
    switch_kind: str = "cp_crash"
    stream: str = "rack"

    def __post_init__(self) -> None:
        check_minimums(self, {"at_ns": 0, "duration_ns": 0, "jitter_ns": 0},
                       optional=("at_ns",))
        _check_kinds((self.link_kind, self.switch_kind))
        if FAULT_KINDS[self.link_kind] != "link":
            raise ValueError(f"link_kind must be a link fault, "
                             f"got {self.link_kind!r}")
        if FAULT_KINDS[self.switch_kind] != "switch":
            raise ValueError(f"switch_kind must be a switch fault, "
                             f"got {self.switch_kind!r}")

    def compile(self, ctx: ProfileContext) -> FaultSchedule:
        schedule = FaultSchedule()
        if not ctx.switches:
            return schedule
        rng = ctx.rng(self.stream, "group")
        switch = self.switch if self.switch is not None else (
            sorted(ctx.switches)[int(rng.random() * len(ctx.switches))])
        if switch not in ctx.switches:
            raise ValueError(
                f"correlated group names unknown switch {switch!r}")
        at = self.at_ns if self.at_ns is not None else (
            ctx.start_ns + int(rng.random() * ctx.horizon_ns))

        def offset() -> int:
            return rng.randint(0, self.jitter_ns) if self.jitter_ns else 0

        for link in sorted(ctx.incident_links(switch)):
            ctx.emit(schedule, self.link_kind, at + offset(), target=link,
                     duration_ns=self.duration_ns)
        ctx.emit(schedule, self.switch_kind, at + offset(), target=switch,
                 duration_ns=self.duration_ns)
        return schedule


@dataclass(frozen=True)
class MaintenanceWindow(FaultProfile):
    """A fully deterministic scheduled outage — planned maintenance.

    No randomness at all: each named target goes down ``offset_ns``
    after the window start (staggered by ``stagger_ns`` per target for
    rolling maintenance), for ``duration_ns``.
    """

    spec_type: ClassVar[str] = "maintenance"

    targets: tuple[str, ...] = ()
    kind: str = "link_down"
    offset_ns: int = 0
    duration_ns: int = 10 * MS
    stagger_ns: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.targets, tuple):
            object.__setattr__(self, "targets", tuple(self.targets))
        _check_kinds((self.kind,))
        check_minimums(self, {"offset_ns": 0, "duration_ns": 0,
                              "stagger_ns": 0})

    def compile(self, ctx: ProfileContext) -> FaultSchedule:
        schedule = FaultSchedule()
        for index, target in enumerate(self.targets):
            at = ctx.start_ns + self.offset_ns + index * self.stagger_ns
            ctx.emit(schedule, self.kind, at, target=target,
                     duration_ns=self.duration_ns)
        return schedule


@dataclass(frozen=True)
class Cascade(FaultProfile):
    """A seeded failure cascade through the fabric.

    The ``origin`` switch fails (all its fabric links go down; with
    ``include_cp`` its control plane crashes too).  Each failure then
    propagates to every not-yet-failed neighbor independently with
    ``probability``, after an exponential delay with mean
    ``spread_delay_ns``, up to ``max_depth`` hops from the origin.  All
    draws come from the cascade's own RNG stream, in sorted-neighbor
    order, so the realized cascade is a pure function of (profile,
    context).
    """

    spec_type: ClassVar[str] = "cascade"

    origin: Optional[str] = None
    probability: float = 0.5
    spread_delay_ns: int = 1 * MS
    duration_ns: int = 5 * MS
    max_depth: int = 3
    at_ns: Optional[int] = None
    include_cp: bool = False
    stream: str = "cascade"

    def __post_init__(self) -> None:
        check_minimums(self, {
            "probability": (0.0, 1.0), "spread_delay_ns": 1, "duration_ns": 0,
            "max_depth": 0, "at_ns": 0}, optional=("at_ns",))

    def compile(self, ctx: ProfileContext) -> FaultSchedule:
        schedule = FaultSchedule()
        if not ctx.switches:
            return schedule
        rng = ctx.rng(self.stream, "spread")
        origin = self.origin if self.origin is not None else (
            sorted(ctx.switches)[int(rng.random() * len(ctx.switches))])
        if origin not in ctx.switches:
            raise ValueError(f"cascade names unknown switch {origin!r}")
        at = self.at_ns if self.at_ns is not None else (
            ctx.start_ns + int(rng.random() * ctx.horizon_ns))
        adjacency = ctx.switch_adjacency()

        failed: dict[str, int] = {origin: at}
        frontier = [(origin, at, 0)]
        while frontier:
            switch, when, depth = frontier.pop(0)
            if depth >= self.max_depth:
                continue
            for neighbor in adjacency.get(switch, ()):
                if neighbor in failed:
                    continue
                if rng.random() >= self.probability:
                    continue
                delay = 1 + int(rng.expovariate(1.0 / self.spread_delay_ns))
                failed[neighbor] = when + delay
                frontier.append((neighbor, when + delay, depth + 1))

        for switch in sorted(failed):
            when = failed[switch]
            for link in sorted(ctx.incident_links(switch)):
                ctx.emit(schedule, "link_down", when, target=link,
                         duration_ns=self.duration_ns)
            if self.include_cp:
                ctx.emit(schedule, "cp_crash", when, target=switch,
                         duration_ns=self.duration_ns)
        return schedule


@dataclass(frozen=True)
class Compose(Composite, FaultProfile):
    """The union of several profiles, compiled against one context.

    Because every part draws from its own derived streams, the merge is
    exactly the multiset union of the parts' events: reordering parts
    changes nothing but the (re-sorted) event order, and dropping a part
    removes exactly its events.
    """

    spec_type: ClassVar[str] = "compose"

    parts: tuple[FaultProfile, ...] = ()

    def compile(self, ctx: ProfileContext) -> FaultSchedule:
        events = []
        for part in self.parts:
            events.extend(part.compile(ctx).events)
        return FaultSchedule(events=events)
