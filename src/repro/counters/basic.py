"""Packet and byte counters — the simplest snapshot targets.

These are the metrics of the Table 1 "Packet Count" data-plane variant,
and the counters for which channel state is meaningful: a network-wide
packet count is only conserved if in-flight packets are credited to the
channel of the snapshot epoch they were sent in (§4.2).
"""

from __future__ import annotations

from repro.sim.packet import Packet


class PacketCounter:
    """Counts data packets traversing the owning unit."""

    def __init__(self) -> None:
        self.value = 0

    def update(self, packet: Packet, now_ns: int) -> None:
        self.value += 1

    def read(self) -> int:
        return self.value


class ByteCounter:
    """Counts bytes of data packets traversing the owning unit."""

    def __init__(self) -> None:
        self.value = 0

    def update(self, packet: Packet, now_ns: int) -> None:
        self.value += packet.size_bytes

    def read(self) -> int:
        return self.value
