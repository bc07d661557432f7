"""Workload framework.

A workload binds to a :class:`~repro.sim.network.Network`, owns a seeded
RNG, and schedules packet emissions on hosts.  ``start()`` installs the
initial events; generation continues until ``stop_ns`` (open-loop — the
generators do not react to congestion, which matches the measurement
methodology: the paper observes traffic, it does not model TCP dynamics).

Workloads allocate source ports from a private counter so that distinct
logical transfers hash to distinct ECMP members, exactly like distinct
TCP connections would.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import S, Simulator, check_minimums
from repro.sim.network import Network
from repro.sim.packet import FlowKey, Packet


@dataclass
class WorkloadConfig:
    """Knobs common to all workloads."""

    #: Workload-private RNG seed (independent of the network seed).
    seed: int = 1
    #: Simulation time at which generation begins.
    start_ns: int = 0
    #: Simulation time after which no new packets are emitted.
    stop_ns: int = 1 * S
    #: Hosts participating; None means every host in the network.
    hosts: Optional[list[str]] = None

    def __post_init__(self) -> None:
        check_minimums(self, {"start_ns": 0, "stop_ns": 0})


class Workload(abc.ABC):
    """Base class for traffic generators."""

    def __init__(self, network: Network, config: Optional[WorkloadConfig] = None) -> None:
        self.network = network
        self.config = config or WorkloadConfig()
        self.rng = random.Random(self.config.seed)
        self.packets_emitted = 0
        self._sport_counter = 10_000
        self._started = False

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    @property
    def hosts(self) -> list[str]:
        if self.config.hosts is not None:
            return list(self.config.hosts)
        return sorted(self.network.hosts)

    def start(self) -> None:
        """Install the workload's initial events (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.schedule_at(max(self.config.start_ns, self.sim.now), self._begin)

    @abc.abstractmethod
    def _begin(self) -> None:
        """Schedule the first generation events (runs at start time)."""

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.sim.now < self.config.stop_ns

    def next_sport(self) -> int:
        """A fresh source port, so each transfer is a distinct 5-tuple."""
        self._sport_counter += 1
        return self._sport_counter

    def emit(self, src: str, dst: str, *, sport: int, dport: int,
             size_bytes: int, seq: int = 0, proto: int = 6) -> None:
        """Send one packet now (subject to the NIC's pacing)."""
        if not self.active:
            return
        host = self.network.host(src)
        flow = FlowKey(src, dst, sport, dport, proto)
        host.send_packet(Packet(flow=flow, size_bytes=size_bytes, seq=seq))
        self.packets_emitted += 1

    def emit_burst(self, src: str, dst: str, *, sport: int, dport: int,
                   num_packets: int, size_bytes: int, gap_ns: int) -> None:
        """Emit ``num_packets`` spaced ``gap_ns`` apart (one transfer)."""
        def send(seq: int) -> None:
            if not self.active:
                return
            self.emit(src, dst, sport=sport, dport=dport,
                      size_bytes=size_bytes, seq=seq)
            if seq + 1 < num_packets:
                self.sim.schedule(max(gap_ns, 1), send, seq + 1)

        if num_packets > 0:
            send(0)

    def exp_delay(self, mean_ns: float) -> int:
        """An exponentially distributed delay (Poisson process gap)."""
        return max(1, int(self.rng.expovariate(1.0 / mean_ns)))
