"""Management-plane messaging.

The snapshot observer talks to device control planes over the management
network (out-of-band in the paper's testbed: the observer "broadcasts a
request to every device in the network", §3).  This channel is *not* the
data plane: it has millisecond-free but non-zero latency and jitter, and
its delays do not affect snapshot consistency — only how far in advance
the observer must schedule a snapshot.

The same channel carries the baseline polling framework's per-port read
requests, whose ~1 ms per-counter round trip (§2.1, [41]) is the reason
polling synchronises so poorly in Figure 9.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Any

from repro.sim.engine import Simulator, US, exact_ns


class ManagementPlane:
    """Delivers messages between management endpoints with jittered latency."""

    def __init__(self, sim: Simulator, rng: random.Random,
                 base_latency_ns: int = 50 * US,
                 jitter_ns: int = 20 * US) -> None:
        if base_latency_ns < 0 or jitter_ns < 0:
            raise ValueError("latencies must be non-negative")
        self.sim = sim
        self.rng = rng
        # An exact int, so send() may skip the engine's checks.
        self.base_latency_ns = exact_ns(base_latency_ns, "base_latency_ns")
        self.jitter_ns = jitter_ns
        self.messages_sent = 0
        #: Jitter draws batched ahead of use (this RNG stream has no
        #: other consumer, so batching preserves the exact draw order
        #: and keeps results bit-identical to per-call sampling).
        self._jitter_buf: list = []

    def one_way_latency_ns(self) -> int:
        """Sample a one-way delivery latency."""
        if not self.jitter_ns:
            return self.base_latency_ns
        buf = self._jitter_buf
        if not buf:
            uniform = self.rng.uniform
            jitter_ns = self.jitter_ns
            buf.extend(int(uniform(0, jitter_ns)) for _ in range(256))
            buf.reverse()  # pop() must consume in draw order
        return self.base_latency_ns + buf.pop()

    def send(self, deliver: Callable[..., Any], *args: Any) -> None:
        """Deliver ``deliver(*args)`` after one sampled one-way latency."""
        self.messages_sent += 1
        self.sim.schedule_fast(self.one_way_latency_ns(), deliver, *args)
