"""Flowlet switching [Kandula et al., CCR 2007].

A *flowlet* is a burst of packets of one flow separated from the next
burst by an idle gap longer than the network's path-delay skew.  Routing
each flowlet independently splits traffic at sub-flow granularity without
reordering packets: by the time a new flowlet starts, the previous one
has drained from whichever path it took.

Implementation mirrors a hardware flowlet table: a fixed-size array
indexed by flow hash, each entry holding ``(last_seen_ns, port)``.  A
packet whose gap since ``last_seen_ns`` exceeds the timeout starts a new
flowlet and picks a fresh member (round-robin here, which is what gives
flowlets their fine-grained balance).  Hash collisions gluing two flows
into one table entry are faithful to hardware and harmless for balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lb.ecmp import flow_hash
from repro.sim.engine import US, check_minimums
from repro.sim.packet import Packet

#: Flowlet table entries, allocated up front: a hardware flowlet table
#: holds tens of thousands of entries.
FLOWLET_TABLE_SIZE = 4096

@dataclass
class FlowletConfig:
    """Flowlet table parameters.

    The timeout must exceed the maximum path-delay difference between
    equal-cost paths to preserve intra-flow ordering; 50 µs is
    comfortable for the testbed's ~µs path skews while still splitting
    application bursts.
    """

    timeout_ns: int = 50 * US
    salt: int = 0

    def __post_init__(self) -> None:
        check_minimums(self, {"timeout_ns": 0})


class _TableEntry:
    __slots__ = ("last_seen_ns", "port")

    def __init__(self) -> None:
        self.last_seen_ns = -1
        self.port = -1


class FlowletBalancer:
    """Flowlet-table member selection."""

    def __init__(self, config: Optional[FlowletConfig] = None) -> None:
        self.config = config or FlowletConfig()
        self._table = [_TableEntry() for _ in range(FLOWLET_TABLE_SIZE)]
        self._next_member = 0
        self.decisions = 0
        self.flowlets_started = 0

    def select(self, candidates: list[int], packet: Packet, now_ns: int) -> int:
        self.decisions += 1
        index = flow_hash(packet.flow, self.config.salt) % len(self._table)
        entry = self._table[index]
        expired = (entry.last_seen_ns < 0 or
                   now_ns - entry.last_seen_ns > self.config.timeout_ns)
        if expired or entry.port not in candidates:
            # New flowlet: rotate through the group members.
            entry.port = candidates[self._next_member % len(candidates)]
            self._next_member += 1
            self.flowlets_started += 1
        entry.last_seen_ns = now_ns
        return entry.port

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowletBalancer(timeout={self.config.timeout_ns}ns, "
                f"flowlets={self.flowlets_started})")
