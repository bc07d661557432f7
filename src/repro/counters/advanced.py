"""Additional line-rate metrics demonstrating the primitive's generality.

"The primitive itself is agnostic to the type of local measurement and
supports the collection of any variable accessible from the data plane"
(§1).  Two further examples that real P4 programs implement:

* :class:`QueueHighWatermark` — the maximum queue depth seen since the
  last control-plane read (a clear-on-read register maintained by
  comparing the traffic manager's depth metadata on every packet).
  Snapshotting watermarks network-wide answers "how much of my network
  is concurrently loaded?" with burst peaks instead of point samples.
* :class:`ActiveFlowEstimator` — a linear-counting bitmap sketch of the
  number of distinct 5-tuples seen since the last clear: each packet
  hashes its flow key to one bit of a register array.  Reading applies
  the standard linear-counting estimator ``-m * ln(z / m)`` where ``z``
  is the count of zero bits.  Network-wide snapshots of flow counts
  expose flow-level incast (many flows converging at one instant) that
  byte counters cannot.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.lb.ecmp import flow_hash
from repro.sim.packet import Packet


class QueueHighWatermark:
    """Max-depth-since-last-read gauge over an egress queue."""

    def __init__(self, depth_fn: Callable[[], int],
                 clear_on_read: bool = True) -> None:
        self._depth_fn = depth_fn
        self.clear_on_read = clear_on_read
        self._watermark = 0

    def update(self, packet: Packet, now_ns: int) -> None:
        depth = self._depth_fn()
        if depth > self._watermark:
            self._watermark = depth

    def read(self) -> int:
        value = self._watermark
        if self.clear_on_read:
            self._watermark = self._depth_fn()
        return value


class ActiveFlowEstimator:
    """Linear-counting sketch of distinct flows since the last clear."""

    def __init__(self, bits: int = 1024, salt: int = 0) -> None:
        if bits < 8:
            raise ValueError("sketch needs at least 8 bits")
        self.bits = bits
        self.salt = salt
        self._bitmap = bytearray(bits)
        self._set_bits = 0

    def update(self, packet: Packet, now_ns: int) -> None:
        index = flow_hash(packet.flow, self.salt) % self.bits
        if not self._bitmap[index]:
            self._bitmap[index] = 1
            self._set_bits += 1

    def read(self) -> int:
        """Linear-counting estimate of distinct flows (integer)."""
        zeros = self.bits - self._set_bits
        if zeros == 0:
            # Sketch saturated: the estimator diverges; report the
            # asymptotic ceiling (callers should size the bitmap up).
            return self.bits * 8
        estimate = -self.bits * math.log(zeros / self.bits)
        return int(round(estimate))
