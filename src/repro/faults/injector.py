"""Binds a :class:`~repro.faults.schedule.FaultSchedule` to a live network.

The injector resolves every event's target against the simulation
objects (links, switches, control planes, clocks), schedules the
apply/revert callbacks on the discrete-event engine, and keeps an audit
log of everything it did.  All stochastic fault behaviour draws from the
network's dedicated ``_child_rng("faults")`` stream — the workload, PTP
and control-plane streams are untouched, so the *only* way a fault run
diverges from the fault-free golden trace is through the faults
themselves.

On a shard (``network.scope``) the injector arms only the events whose
target lives there: a cut link on both sides, ``"*"`` on every shard.
Arming an **empty** share is a strict no-op: no events scheduled, no
RNG constructed, no object touched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Callable
from operator import attrgetter
from typing import Any, Optional

from repro.faults.schedule import FAULT_KINDS, FaultEvent, FaultSchedule
from repro.sim.channel import BernoulliLoss, GilbertElliottLoss, Link
from repro.sim.network import Network

#: Fault kinds that need a snapshot deployment (they act on the
#: control plane, which only exists once a deployment is wired).
_CP_KINDS = frozenset({"cp_crash", "cp_overflow", "cp_slow"})

#: Numeric overrides: kind -> (parameter, default, what it must be).
_NUMERIC = {"link_delay": ("extra_ns", 100_000, "> 0"),
            "queue_squeeze": ("capacity", 8, ">= 1"),
            "cp_overflow": ("capacity", 8, ">= 1"),
            "cp_slow": ("scale", 10.0, "> 0")}


def _attribute(path: str) -> tuple[Callable, Callable]:
    """(read, write) of a dotted attribute of a state-bearing object."""
    owners, _, leaf = path.rpartition(".")
    owner = attrgetter(owners) if owners else (lambda obj: obj)
    return (attrgetter(path),
            lambda obj, value: setattr(owner(obj), leaf, value))


def _switched(on: Callable, off: Callable) -> tuple[Callable, Callable]:
    """(read, write) of an on/off fault; its baseline is "off"."""
    return (lambda obj: False,
            lambda obj, active: on(obj) if active else off(obj))


@dataclass
class InjectionRecord:
    """One line of the injector's audit log."""

    time_ns: int
    action: str  # "apply" | "revert"
    kind: str
    target: str


class FaultInjector:
    """Schedules and executes the events of one fault schedule.

    Usage::

        injector = FaultInjector(network, schedule, deployment=deployment)
        injector.arm()          # before network.run()
        network.run(until=...)
        injector.log            # audit trail of applies/reverts
    """

    def __init__(self, network: Network, schedule: FaultSchedule,
                 deployment: Optional[object] = None) -> None:
        self.network = network
        self.schedule = schedule
        self.deployment = deployment
        self.sim = network.sim
        self.rng: Optional[random.Random] = None
        self.log: list[InjectionRecord] = []
        self.applied = 0
        self.reverted = 0
        self._armed = False
        ptp = network.ptp
        #: Every revertible kind as (read, write) on the objects bearing
        #: its state (:meth:`_bearers`).
        self._state: dict[str, tuple[Callable, Callable]] = {
            "link_down": _attribute("up"),
            "link_loss": _attribute("loss"),
            "link_delay": _attribute("extra_delay_ns"),
            "queue_squeeze": _attribute("capacity_packets"),
            "unit_stall": _switched(lambda q: q.pause(), lambda q: q.resume()),
            "cp_crash": _switched(lambda cp: cp.crash(),
                                  lambda cp: cp.restart()),
            "cp_overflow": _attribute("channel.capacity"),
            "cp_slow": _attribute("channel.service_scale"),
            "clock_holdover": _switched(ptp.hold, ptp.release),
        }
        #: (kind, object) -> [[baseline], [override], ...]: the windows
        #: open on it, oldest first, under the value it had before them.
        self._active: dict[tuple[str, Any], list[list]] = {}
        #: link name (normalised "a-b") -> Link
        self._links: dict[str, Link] = {}
        for link in network.links:
            self._links[link.name] = link
            if "-" in link.name:
                a, b = link.name.split("-", 1)
                self._links.setdefault(f"{b}-{a}", link)

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> int:
        """Validate targets and schedule every event this network owns;
        returns the number of events armed.  An empty share arms nothing
        and touches nothing (the determinism guard depends on this)."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        events = [event for event in self.schedule if self._owned(event)]
        if not events:
            return 0
        self.rng = self.network._child_rng("faults")
        for event in events:
            self._resolve_targets(event)  # raise now, not mid-run
        for event in events:
            self.sim.schedule_at(max(event.at_ns, self.sim.now),
                                 self._apply, event)
        return len(events)

    def _owned(self, event: FaultEvent) -> bool:
        """Whether this network arms ``event``: ``"*"`` on every shard
        (resolved against the local inventory), a named target where it
        lives — a link where either endpoint does, since each
        direction's egress, a cut link's boundary stub included, lives
        on the sender's shard."""
        if event.target == "*":
            return True
        owners = (event.target.split("-", 1) if event.layer == "link"
                  else [event.target])
        try:
            return any([self.network.owns(owner) for owner in owners])
        except ValueError as error:
            raise ValueError(f"{event.kind}: target {event.target!r}: "
                             f"{error}") from None

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def attribution(self, snapshots, *, horizon_ns: int):
        """Join this injector's audit log with snapshot outcomes — which
        fault span overlapped which epoch's collection window.  See
        :func:`repro.faults.attribution.attribute_epochs`."""
        from repro.faults.attribution import attribute_epochs
        return attribute_epochs(self.log, snapshots, horizon_ns=horizon_ns)

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _resolve_targets(self, event: FaultEvent) -> list[Any]:
        layer = FAULT_KINDS[event.kind]
        if event.kind in _CP_KINDS:
            cps = getattr(self.deployment, "control_planes", None)
            if cps is None:
                raise ValueError(
                    f"{event.kind} targets the snapshot control plane; "
                    "construct FaultInjector with deployment=...")
            if event.target == "*":
                return [cps[name] for name in sorted(cps)]
            if event.target not in cps:
                raise ValueError(
                    f"{event.kind}: no control plane on {event.target!r}")
            return [cps[event.target]]
        if layer == "link":
            if event.target == "*":
                return list(self.network.links)
            link = self._links.get(event.target)
            if link is None:
                raise ValueError(
                    f"{event.kind}: no link named {event.target!r} "
                    f"(known: {sorted(l.name for l in self.network.links)})")
            return [link]
        if layer == "switch":
            switches = self.network.switches
            if event.target == "*":
                return [switches[name] for name in sorted(switches)]
            if event.target not in switches:
                raise ValueError(
                    f"{event.kind}: no switch named {event.target!r}")
            return [switches[event.target]]
        if layer == "clock":
            clocks = self.network.ptp.clocks
            if event.target == "*":
                return sorted(clocks)
            if event.target not in clocks:
                raise ValueError(
                    f"{event.kind}: no clock named {event.target!r}")
            return [event.target]
        raise AssertionError(f"unhandled layer {layer!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Apply / revert
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        held: list[tuple[Any, list, list]] = []
        for target in self._resolve_targets(event):
            if kind == "clock_step":
                # Instantaneous; the next PTP sync removes it.
                self.network.ptp.clocks[target].step(
                    int(event.params.get("delta_ns", 50_000)))
                continue
            read, write = self._state[kind]
            for obj in self._bearers(event, target):
                # Clock targets are names; everything else is an object.
                key = (kind, obj if isinstance(obj, str) else id(obj))
                stack = self._active.setdefault(key, [])
                if not stack:
                    stack.append([read(obj)])  # the baseline
                entry = [self._override(event)]
                stack.append(entry)
                write(obj, entry[0])
                held.append((obj, stack, entry))
        self.applied += 1
        self.log.append(InjectionRecord(self.sim.now, "apply",
                                        kind, event.target))
        if event.duration_ns > 0 and held:
            self.sim.schedule(event.duration_ns, self._revert, event, held)

    def _revert(self, event: FaultEvent,
                held: list[tuple[Any, list, list]]) -> None:
        """Close one window: every object goes back to the newest
        override still open on it, or to its baseline when none is —
        overlapping windows of one kind nest (docs/FAULTS.md)."""
        write = self._state[event.kind][1]
        for obj, stack, entry in held:
            newest = stack[-1] is entry
            stack[:] = [e for e in stack if e is not entry]
            if newest and stack[-1][0] != entry[0]:
                write(obj, stack[-1][0])
            if len(stack) == 1:
                stack.clear()  # re-read the baseline next time
        self.reverted += 1
        self.log.append(InjectionRecord(self.sim.now, "revert",
                                        event.kind, event.target))

    def _bearers(self, event: FaultEvent, target: Any) -> list[Any]:
        """The objects that bear a kind's state: the target itself, or
        for the queue faults the egress queues of the switch."""
        port = event.params.get("port")
        if event.kind == "unit_stall" and port is not None:
            ports = [int(port)]
        elif event.kind in ("unit_stall", "queue_squeeze"):
            ports = target.connected_ports()
        else:
            return [target]
        return [target.ports[p].egress.queue for p in ports]

    def _override(self, event: FaultEvent) -> Any:
        """The value one window of ``event`` holds an object at."""
        kind, params = event.kind, event.params
        if kind in _NUMERIC:
            name, default, bound = _NUMERIC[kind]
            value = type(default)(params.get(name, default))
            if value <= 0:
                raise ValueError(
                    f"{kind}: {name} must be {bound}, got {value}")
            return value
        if kind == "link_down":
            return False  # what ``up`` is held at
        if kind != "link_loss":
            return True  # the on/off kinds: the fault is active
        model_name = params.get("model", "gilbert_elliott")
        assert self.rng is not None
        if model_name == "bernoulli":
            return BernoulliLoss(float(params.get("p", 0.01)), self.rng)
        if model_name == "gilbert_elliott":
            return GilbertElliottLoss(
                self.rng,
                p_good_to_bad=float(params.get("p_good_to_bad", 0.01)),
                p_bad_to_good=float(params.get("p_bad_to_good", 0.1)),
                p_loss_good=float(params.get("p_loss_good", 0.0)),
                p_loss_bad=float(params.get("p_loss_bad", 0.5)))
        raise ValueError(f"link_loss: unknown model {model_name!r}")
