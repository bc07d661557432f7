"""Arming a compiled update schedule on a live network.

The driver binds an :class:`~repro.updates.plan.UpdateSchedule` to a
:class:`~repro.sim.network.Network`:

* each command's scheduled **wall** instant is converted through the
  owning device's *local* PTP clock
  (:meth:`~repro.sim.clock.Clock.true_time`), so real clock error skews
  when "simultaneous" commands actually fire — the skew the snapshot
  verifier measures;
* symbolic ``(dst, via-neighbors)`` route changes are resolved to port
  numbers against the live wiring (the union of ports toward the named
  neighbors is the ECMP group; the empty via withdraws the route);
* swaps ride the hardware-timed
  :meth:`~repro.sim.switch.Switch.schedule_route_swap` path (one
  ``fib_generation`` bump per swap, no CPU wakeup jitter); the
  two-phase scaffolding ops (stage/stamp/cleanup) are modeled the same
  way — pre-programmed timed table operations;
* every applied command is logged (:class:`AppliedUpdate`), and
  attributable data-plane drops are captured via
  :attr:`~repro.sim.switch.Switch.drop_monitor`
  (:class:`DropRecord`) for the verifier's loop / black-hole verdicts.

On a shard the driver arms only the commands of the devices it owns;
the wave metadata stays whole (verdict windows are global).  An **empty
share arms to a strict no-op** — no events, no monitors — so the
no-plan path stays golden-trace bit-identical.

Clock-error injection
---------------------
:func:`inject_clock_error` is the experiment-side knob: it steps each
switch clock by a content-keyed offset ``base(seed, name) * sigma_ns``.
Because the per-switch unit draw is keyed by *name* (never a shared
cursor) the injected error is identical however the simulation is
sharded, and because only ``sigma_ns`` scales between sweep levels, the
realized skew pattern grows monotonically with the level — which is
what makes "atomicity degrades monotonically with clock error" a
per-run property rather than an on-average one.  Pair it with
:func:`noiseless_ptp` so the PTP service neither adds its own error nor
resyncs the injected offsets away mid-run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.sim.clock import PTPConfig
from repro.sim.engine import S
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.topology.graph import NodeKind
from repro.updates.plan import UpdateCommand, UpdateSchedule

__all__ = [
    "AppliedUpdate",
    "DropRecord",
    "UpdateDriver",
    "inject_clock_error",
    "noiseless_ptp",
]


@dataclass(frozen=True)
class AppliedUpdate:
    """One command's application, as it actually happened (true time)."""

    true_ns: int
    wall_ns: int
    device: str
    op: str
    wave: int
    generation: Optional[int] = None
    tag: Optional[str] = None


@dataclass(frozen=True)
class DropRecord:
    """One attributable data-plane drop seen while the driver is armed.

    ``kind`` is ``"ttl_expired"`` (the in-flight forwarding-loop
    signature) or ``"unroutable"`` (the black-hole signature).
    """

    time_ns: int
    device: str
    kind: str
    dst: str


def noiseless_ptp() -> PTPConfig:
    """A PTP configuration with zero drift and zero sync residual, and a
    sync interval far beyond any trial horizon.

    Update experiments build their networks with this and then inject
    *controlled* error via :func:`inject_clock_error`; the long interval
    keeps the PTP service from resyncing the injected offsets away."""
    return PTPConfig(sync_interval_ns=3600 * S, residual_sigma_ns=0,
                     residual_max_ns=0, tail_probability=0.0,
                     drift_ppb_min=0, drift_ppb_max=0)


def inject_clock_error(network: Network, sigma_ns: int, *,
                       seed: int = 0) -> dict[str, int]:
    """Step every switch clock by a content-keyed Gaussian offset.

    Each switch's unit draw comes from ``Random(f"{seed}/clkerr/{name}")``
    (clamped to ±2.5σ), scaled by ``sigma_ns`` — deterministic per
    switch name, independent of shard count, and linear in the sweep
    level.  Returns the per-switch offsets for reporting.  ``sigma_ns=0``
    leaves every clock untouched."""
    offsets: dict[str, int] = {}
    for name in sorted(network.switches):
        base = random.Random(f"{seed}/clkerr/{name}").gauss(0.0, 1.0)
        base = max(-2.5, min(2.5, base))
        offset = int(round(base * sigma_ns))
        if offset:
            network.ptp.clocks[name].step(offset)
        offsets[name] = offset
    return offsets


class UpdateDriver:
    """Binds a compiled schedule to a network and executes it."""

    def __init__(self, network: Network, schedule: UpdateSchedule,
                 *, monitor_drops: bool = True) -> None:
        self.network = network
        self.schedule = schedule
        self.monitor_drops = monitor_drops
        #: Commands applied so far, in application order (true time).
        self.applied: list[AppliedUpdate] = []
        #: Attributable drops observed while armed.
        self.drops: list[DropRecord] = []
        self.armed = False
        self._ports_toward_cache: dict[str, dict[str, list[int]]] = {}
        #: (device, tag) -> ports stamped, so cleanup clears exactly them.
        self._stamped: dict[tuple[str, str], list[int]] = {}

    # ------------------------------------------------------------------
    # Resolution against the live wiring
    # ------------------------------------------------------------------
    def _ports_toward(self, device: str) -> dict[str, list[int]]:
        cached = self._ports_toward_cache.get(device)
        if cached is not None:
            return cached
        switch = self.network.switch(device)
        toward: dict[str, list[int]] = {}
        for port in switch.connected_ports():
            peer, _kind = self.network.peer_of_port(device, port)
            toward.setdefault(peer, []).append(port)
        self._ports_toward_cache[device] = toward
        return toward

    def _host_ports(self, device: str) -> list[int]:
        switch = self.network.switch(device)
        return [port for port in switch.connected_ports()
                if self.network.peer_of_port(device, port)[1]
                is NodeKind.HOST]

    def _resolve(self, device: str,
                 changes: tuple) -> list[tuple[str, list[int]]]:
        toward = self._ports_toward(device)
        resolved: list[tuple[str, list[int]]] = []
        for dst, via in changes:
            if not via:
                resolved.append((dst, []))
                continue
            ports: list[int] = []
            for neighbor in via:
                if neighbor not in toward:
                    raise ValueError(
                        f"{device} has no link toward {neighbor!r} "
                        f"(neighbors: {sorted(toward)})")
                ports.extend(toward[neighbor])
            resolved.append((dst, sorted(ports)))
        return resolved

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> int:
        """Schedule every command of a device this network owns (on a
        shard, its own devices'); returns the number armed.

        An empty share is a **strict no-op**: nothing is scheduled and
        no drop monitor is installed, keeping the event stream
        byte-identical to an undriven network."""
        if self.armed:
            raise RuntimeError("driver already armed")
        self.armed = True
        commands = [cmd for cmd in self.schedule.commands
                    if self.network.owns(cmd.device)]
        if not commands:
            return 0
        sim = self.network.sim
        clocks = self.network.ptp.clocks
        for cmd in commands:
            switch = self.network.switch(cmd.device)
            clock = clocks[cmd.device]
            true_ns = max(clock.true_time(cmd.at_ns), sim.now)
            if cmd.op == "swap":
                switch.schedule_route_swap(
                    true_ns, self._resolve(cmd.device, cmd.changes),
                    on_applied=self._swap_noter(cmd))
            elif cmd.op == "stage":
                sim.schedule_at(true_ns, self._do_stage, switch, cmd,
                                self._resolve(cmd.device, cmd.changes))
            elif cmd.op == "stamp":
                sim.schedule_at(true_ns, self._do_stamp, switch, cmd,
                                self._host_ports(cmd.device))
            elif cmd.op == "cleanup":
                sim.schedule_at(true_ns, self._do_cleanup, switch, cmd)
            else:
                raise ValueError(f"unknown update op {cmd.op!r}")
        if self.monitor_drops:
            for name in sorted(self.network.switches):
                self.network.switch(name).drop_monitor = self._on_drop
        return len(commands)

    # ------------------------------------------------------------------
    # Command execution (event-time callbacks)
    # ------------------------------------------------------------------
    def _note(self, cmd: UpdateCommand,
              generation: Optional[int] = None) -> None:
        self.applied.append(AppliedUpdate(
            true_ns=self.network.sim.now, wall_ns=cmd.at_ns,
            device=cmd.device, op=cmd.op, wave=cmd.wave,
            generation=generation, tag=cmd.tag))

    def _swap_noter(self, cmd: UpdateCommand):
        def note(generation: int, _true_ns: int) -> None:
            self._note(cmd, generation)

        return note

    def _do_stage(self, switch, cmd: UpdateCommand,
                  resolved: list[tuple[str, list[int]]]) -> None:
        switch.stage_routes(cmd.tag, resolved)
        self._note(cmd)

    def _do_stamp(self, switch, cmd: UpdateCommand,
                  ports: list[int]) -> None:
        for port in ports:
            switch.set_ingress_stamp(port, cmd.tag)
        self._stamped[(cmd.device, cmd.tag)] = list(ports)
        self._note(cmd)

    def _do_cleanup(self, switch, cmd: UpdateCommand) -> None:
        switch.clear_staged(cmd.tag)
        for port in self._stamped.pop((cmd.device, cmd.tag), ()):
            switch.set_ingress_stamp(port, None)
        self._note(cmd)

    def _on_drop(self, device: str, kind: str, packet: Packet,
                 time_ns: int) -> None:
        self.drops.append(DropRecord(time_ns=time_ns, device=device,
                                     kind=kind, dst=packet.dst))
