"""Composable update plans — the spec algebra above :class:`UpdateSchedule`.

An :class:`UpdatePlan` describes *how a coordinated forwarding update
rolls out* without naming concrete port numbers or simulator objects;
compiling it against an :class:`UpdateContext` (the device inventory
plus the time window) deterministically yields a concrete
:class:`UpdateSchedule` of per-device commands.  Plans are a family of
the :mod:`repro.specs` kernel, like
:class:`repro.faults.profile.FaultProfile` (the contract is documented
in ``docs/SPECS.md``): plain frozen JSON-round-trippable dataclasses
with registered ``type`` tags, ``|`` composition, and one clamp point
for every scheduled instant — so plans ride inside trial params (and
cache fingerprints) exactly like fault profiles do, and the two
families combine in one experiment::

    plan = (TimedSwap(at_ns=30 * MS, routes=(
                ("leaf0", "server3", ("spine1",)),
                ("spine0", "server3", ("leaf0",))))
            | TwoPhaseVersioned(at_ns=60 * MS, routes=(
                ("leaf0", "server3", ("spine0", "spine1")),)))
    schedule = plan.compile(UpdateContext.for_topology(
        topo, horizon_ns=100 * MS))

Route changes are symbolic: ``(device, dst, via)`` names the next-hop
*neighbors* (an ECMP group), and the empty ``via`` tuple withdraws the
route (a deliberate drain/black-hole).  The driver
(:mod:`repro.updates.driver`) resolves neighbor names to port numbers
against the live network and converts each command's scheduled wall
instant through the owning device's *local* clock — which is the whole
point: real PTP error skews when "simultaneous" commands actually fire,
and the snapshot verifier (:mod:`repro.updates.verify`) measures the
damage.

Determinism contract
--------------------
* Plans are fully deterministic: a compiled schedule is a pure function
  of (plan, context).  Composition is command-set union with waves
  renumbered in part order.
* Every command placement funnels through one clamp point
  (:meth:`UpdateContext.emit`), so every compiled instant — including
  two-phase lead/drain offsets that would otherwise escape — lands
  inside ``[start_ns, start_ns + horizon_ns)``.
* A plan with no route changes compiles to an **empty schedule**:
  arming it is byte-identical to no driver at all (pinned by the
  golden-trace guard).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import Any, ClassVar, Optional

from repro.sim.engine import MS, check_minimums
from repro.specs import Composite, Spec, Window

__all__ = [
    "Compose",
    "PhasedUpdate",
    "TimedSwap",
    "TwoPhaseVersioned",
    "UpdateCommand",
    "UpdateContext",
    "UpdatePlan",
    "UpdateSchedule",
    "UpdateWave",
]

#: Command opcodes.  ``swap`` is the only generation-bumping op (one
#: atomic table flip via :meth:`repro.sim.switch.Switch.apply_route_swap`);
#: ``stage``/``stamp``/``cleanup`` are the two-phase scaffolding.
UPDATE_OPS = frozenset({"swap", "stage", "stamp", "cleanup"})

#: Ops that require a rule tag (the two-phase ops).
_TAGGED_OPS = frozenset({"stage", "stamp", "cleanup"})

#: One symbolic route change: (device, destination host, via-neighbors).
RouteChange = "tuple[str, str, tuple[str, ...]]"


def _normalize_routes(routes: Iterable[Any]) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
    """Canonicalize a routes spec (accepting JSON lists) into nested
    tuples of ``(device, dst, (via, ...))``."""
    out = []
    for entry in routes:
        entry = tuple(entry)
        if len(entry) != 3:
            raise ValueError(
                f"route change must be (device, dst, via-neighbors), "
                f"got {entry!r}")
        device, dst, via = entry
        if isinstance(via, str):
            raise ValueError(
                f"via must be a sequence of neighbor names, got {via!r}")
        out.append((str(device), str(dst), tuple(str(v) for v in via)))
    return tuple(out)


@dataclass(frozen=True)
class UpdateCommand:
    """One concrete per-device command of a compiled schedule.

    ``at_ns`` is the scheduled **wall-clock** instant; the driver maps
    it through the device's local clock, so two commands with equal
    ``at_ns`` on different devices fire at *different* true times under
    clock error.  ``changes`` holds ``(dst, via-neighbors)`` pairs; an
    empty via withdraws the route.
    """

    at_ns: int
    device: str
    op: str
    wave: int
    tag: Optional[str] = None
    changes: tuple[tuple[str, tuple[str, ...]], ...] = ()


@dataclass(frozen=True)
class UpdateWave:
    """Verdict metadata for one plan part (one "wave" of the rollout).

    ``verdict_at_ns`` is the wall instant the verifier's straddling
    snapshot targets — the wave's (last) generation-bumping instant;
    ``window_start_ns``/``window_end_ns`` span every command of the
    wave, and bound the drop-attribution window.
    """

    index: int
    strategy: str
    label: str
    verdict_at_ns: int
    window_start_ns: int
    window_end_ns: int


@dataclass
class UpdateSchedule:
    """A compiled update plan: concrete commands plus wave metadata."""

    commands: list[UpdateCommand] = field(default_factory=list)
    waves: list[UpdateWave] = field(default_factory=list)

    def add(self, command: UpdateCommand) -> None:
        self.commands.append(command)

    def add_wave(self, wave: UpdateWave) -> None:
        self.waves.append(wave)

    def next_wave(self) -> int:
        return len(self.waves)

    def sort(self) -> None:
        """Deterministic command order (time, then device, then op)."""
        self.commands.sort(key=lambda c: (c.at_ns, c.device, c.op, c.wave))

    def devices(self) -> tuple[str, ...]:
        return tuple(sorted({c.device for c in self.commands}))

    def swap_commands(self, wave: Optional[int] = None) -> list[UpdateCommand]:
        return [c for c in self.commands if c.op == "swap"
                and (wave is None or c.wave == wave)]

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)


@dataclass(frozen=True)
class UpdateContext(Window):
    """Where and when a plan compiles: device inventory plus window.

    ``switches`` are the updatable devices; ``edges`` are the switches
    with host-facing ports (where two-phase flips stamp incoming
    traffic).  The context is plan-independent, so the *same* context
    compiles every part of a composite — which is what keeps the parts'
    wave numbering and clamping coherent.
    """

    switches: tuple[str, ...] = ()
    edges: tuple[str, ...] = ()

    @classmethod
    def for_topology(cls, topo: Any, *, horizon_ns: int, start_ns: int = 0,
                     seed: int = 0) -> "UpdateContext":
        """Derive the device inventory from a
        :class:`~repro.topology.graph.Topology`: every switch, with the
        host-adjacent ones as edges."""
        from repro.topology.graph import NodeKind

        switches = tuple(topo.switches)
        edges = tuple(s for s in switches
                      if any(topo.kind(n) is NodeKind.HOST
                             for n in topo.neighbors(s)))
        return cls(horizon_ns=horizon_ns, switches=switches, edges=edges,
                   start_ns=start_ns, seed=seed)

    # ------------------------------------------------------------------
    # The single clamp/validate point (every compiled command goes here)
    # ------------------------------------------------------------------
    def emit(self, schedule: UpdateSchedule, op: str, at_ns: int, *,
             device: str, wave: int, tag: Optional[str] = None,
             changes: Iterable[Any] = ()) -> None:
        """Append one command, clamped into the compile window."""
        if op not in UPDATE_OPS:
            raise ValueError(f"unknown update op {op!r} "
                             f"(known: {', '.join(sorted(UPDATE_OPS))})")
        if device not in self.switches:
            raise ValueError(f"plan names unknown switch {device!r}")
        if op in _TAGGED_OPS and not tag:
            raise ValueError(f"op {op!r} requires a rule tag")
        schedule.add(UpdateCommand(
            at_ns=self.clamp(at_ns), device=device, op=op, wave=wave,
            tag=tag, changes=tuple((dst, tuple(via))
                                   for dst, via in changes)))


# ----------------------------------------------------------------------
# The plan algebra
# ----------------------------------------------------------------------


class UpdatePlan(Spec):
    """Base of every update-plan spec (the ``"update plan"`` family of
    :mod:`repro.specs`, which supplies JSON round-tripping and the ``|``
    composition operator — the same kernel
    :class:`repro.faults.profile.FaultProfile` rests on, see
    ``docs/SPECS.md``); subclasses implement :meth:`compile_into`."""

    family: ClassVar[str] = "update plan"

    # -- compilation ---------------------------------------------------
    def compile(self, ctx: UpdateContext) -> UpdateSchedule:
        schedule = UpdateSchedule()
        self.compile_into(ctx, schedule)
        schedule.sort()
        return schedule

    def compile_into(self, ctx: UpdateContext,
                     schedule: UpdateSchedule) -> None:
        """Append this plan's commands and wave metadata to a shared
        schedule (wave indices come from ``schedule.next_wave()``, so
        composed parts never collide)."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------
    @staticmethod
    def _by_device(routes) -> dict[str, tuple[tuple[str, tuple[str, ...]], ...]]:
        """Group ``(device, dst, via)`` entries into per-device change
        batches, preserving entry order within a device."""
        grouped: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for device, dst, via in routes:
            grouped.setdefault(device, []).append((dst, via))
        return {d: tuple(c) for d, c in grouped.items()}


@dataclass(frozen=True)
class TimedSwap(UpdatePlan):
    """Time4-style simultaneous update: every named device flips its
    table at the *same scheduled instant* on its **local** clock.

    Under perfect synchronization the swap is globally atomic; under
    real PTP error the per-device fire times skew, opening a window of
    mixed forwarding state — the transient loops and black holes the
    snapshot verifier attributes to this wave.
    """

    spec_type: ClassVar[str] = "timed_swap"

    at_ns: int = 20 * MS
    routes: tuple = ()
    label: str = ""

    def __post_init__(self) -> None:
        check_minimums(self, {"at_ns": 0})
        object.__setattr__(self, "routes", _normalize_routes(self.routes))

    def compile_into(self, ctx: UpdateContext,
                     schedule: UpdateSchedule) -> None:
        if not self.routes:
            return
        wave = schedule.next_wave()
        at = ctx.clamp(self.at_ns)
        for device, changes in sorted(self._by_device(self.routes).items()):
            ctx.emit(schedule, "swap", self.at_ns, device=device, wave=wave,
                     changes=changes)
        schedule.add_wave(UpdateWave(
            index=wave, strategy=self.spec_type,
            label=self.label or f"{self.spec_type}@{at}",
            verdict_at_ns=at, window_start_ns=at, window_end_ns=at))


@dataclass(frozen=True)
class PhasedUpdate(UpdatePlan):
    """Ordered per-device rollout: device *i* swaps ``gap_ns`` after
    device *i-1* (classic dependency-ordered update).

    With a gap comfortably above the clock error the rollout order is
    preserved and a correctly ordered plan stays loop-free — at the
    price of never being atomic: a cut taken mid-rollout legitimately
    sees both generations.  The verdict snapshot straddles the *last*
    phase instant.
    """

    spec_type: ClassVar[str] = "phased"

    at_ns: int = 20 * MS
    gap_ns: int = 2 * MS
    routes: tuple = ()
    order: tuple = ()
    label: str = ""

    def __post_init__(self) -> None:
        check_minimums(self, {"at_ns": 0, "gap_ns": 1})
        object.__setattr__(self, "routes", _normalize_routes(self.routes))
        if not isinstance(self.order, tuple):
            object.__setattr__(self, "order", tuple(self.order))

    def _phases(self) -> list[str]:
        grouped = self._by_device(self.routes)
        if not self.order:
            return sorted(grouped)
        if sorted(self.order) != sorted(grouped):
            raise ValueError(
                f"order {self.order!r} must name each updated device "
                f"exactly once (devices: {sorted(grouped)})")
        return list(self.order)

    def compile_into(self, ctx: UpdateContext,
                     schedule: UpdateSchedule) -> None:
        if not self.routes:
            return
        wave = schedule.next_wave()
        grouped = self._by_device(self.routes)
        phases = self._phases()
        for i, device in enumerate(phases):
            ctx.emit(schedule, "swap", self.at_ns + i * self.gap_ns,
                     device=device, wave=wave, changes=grouped[device])
        first = ctx.clamp(self.at_ns)
        last = ctx.clamp(self.at_ns + (len(phases) - 1) * self.gap_ns)
        schedule.add_wave(UpdateWave(
            index=wave, strategy=self.spec_type,
            label=self.label or f"{self.spec_type}@{first}",
            verdict_at_ns=last, window_start_ns=first, window_end_ns=last))


@dataclass(frozen=True)
class TwoPhaseVersioned(UpdatePlan):
    """Install-tagged-rules-then-flip (the consistent-updates playbook,
    leaning on per-packet ``route_tag`` versioning):

    1. **install** (``at_ns - lead_ns``): stage the new rules as a
       tagged shadow set on every updated device (adds only — staged
       removals would black-hole tagged packets mid-transition);
    2. **flip** (``at_ns``): edge switches stamp traffic entering
       through host-facing ports with the tag, so new packets match the
       staged rules network-wide while in-flight untagged packets keep
       matching the old tables — no packet ever sees a mix;
    3. **commit** (``at_ns + drain_ns``): one atomic table flip applies
       the changes (including removals) to the base FIB — the wave's
       generation bump, and the verdict snapshot's straddle point.  The
       staged set and stamps are *kept* through the drain so late
       stragglers stay consistent;
    4. **cleanup** (``at_ns + 2 * drain_ns``): stamps and staged rules
       are cleared.

    ``drain_ns`` must exceed the maximum packet lifetime so nothing
    sent against the old tables is still in flight at commit.
    """

    spec_type: ClassVar[str] = "two_phase"

    at_ns: int = 20 * MS
    lead_ns: int = 5 * MS
    drain_ns: int = 2 * MS
    routes: tuple = ()
    tag: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        check_minimums(self, {"at_ns": 0, "lead_ns": 1, "drain_ns": 1})
        object.__setattr__(self, "routes", _normalize_routes(self.routes))

    def compile_into(self, ctx: UpdateContext,
                     schedule: UpdateSchedule) -> None:
        if not self.routes:
            return
        wave = schedule.next_wave()
        tag = self.tag or f"2pc-{wave}"
        grouped = self._by_device(self.routes)
        for device, changes in sorted(grouped.items()):
            ctx.emit(schedule, "stage", self.at_ns - self.lead_ns,
                     device=device, wave=wave, tag=tag, changes=changes)
        for device in ctx.edges:
            ctx.emit(schedule, "stamp", self.at_ns, device=device,
                     wave=wave, tag=tag)
        for device, changes in sorted(grouped.items()):
            ctx.emit(schedule, "swap", self.at_ns + self.drain_ns,
                     device=device, wave=wave, tag=tag, changes=changes)
        for device in sorted(set(grouped) | set(ctx.edges)):
            ctx.emit(schedule, "cleanup", self.at_ns + 2 * self.drain_ns,
                     device=device, wave=wave, tag=tag)
        start = ctx.clamp(self.at_ns - self.lead_ns)
        commit = ctx.clamp(self.at_ns + self.drain_ns)
        end = ctx.clamp(self.at_ns + 2 * self.drain_ns)
        schedule.add_wave(UpdateWave(
            index=wave, strategy=self.spec_type,
            label=self.label or f"{self.spec_type}@{ctx.clamp(self.at_ns)}",
            verdict_at_ns=commit, window_start_ns=start, window_end_ns=end))


@dataclass(frozen=True)
class Compose(Composite, UpdatePlan):
    """Several plans compiled against one context, in part order.

    Waves are numbered sequentially across parts (each part allocates
    from the shared schedule), so a composed plan's verdicts line up
    one-to-one with its parts.
    """

    spec_type: ClassVar[str] = "compose"

    parts: tuple = ()

    def compile_into(self, ctx: UpdateContext,
                     schedule: UpdateSchedule) -> None:
        for part in self.parts:
            part.compile_into(ctx, schedule)
