"""Instantaneous egress queue depth.

Queue depth is the motivating metric of the paper's §2.2 example
(Figure 1: "balanced" vs "unbalanced" queues).  In hardware, the traffic
manager exposes per-queue occupancy to the egress pipeline as packet
metadata; here the counter reads the owning egress unit's queue directly.

Queue depth is a *gauge*, not an accumulator, so the paper notes that
operators "may not care about channel state at all (e.g., instantaneous
queue depth measurements)" — snapshotting it without channel state is the
normal configuration.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.sim.packet import Packet


class QueueDepthCounter:
    """Reads a queue-occupancy gauge; ``depth_fn`` returns the current
    depth."""

    def __init__(self, depth_fn: Callable[[], int]) -> None:
        self._depth_fn = depth_fn

    def update(self, packet: Packet, now_ns: int) -> None:
        # A gauge: nothing to accumulate per packet.
        pass

    def read(self) -> int:
        return self._depth_fn()
