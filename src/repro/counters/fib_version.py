"""Forwarding-state snapshot support (§10, "Measuring Forwarding State").

ASIC data planes cannot capture FIB table entries directly, but they can
record *version information*: the control plane tags every FIB rule with
a generation number, the matched rule's tag is written back into a
per-ingress register, and a snapshot of those registers "gives hints as
to the entire network's forwarding state".

:class:`FibVersionCounter` is the gauge over that register.  A
consistent snapshot where different switches report generations from
different configuration epochs is direct evidence of a route update
caught mid-propagation — the class of impossible-state confusion (§2.2,
question 4) that asynchronous readings cannot rule out.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.sim.packet import Packet


class FibVersionCounter:
    """Reads the last-matched FIB rule version at one ingress unit."""

    def __init__(self, version_fn: Callable[[], int]) -> None:
        self._version_fn = version_fn

    def update(self, packet: Packet, now_ns: int) -> None:
        # The register is written by the forwarding lookup itself; the
        # counter is a pure gauge over it.
        pass

    def read(self) -> int:
        return self._version_fn()
