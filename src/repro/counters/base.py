"""Counter framework.

A counter is an object with two data-plane-visible operations:

* ``update(packet, now_ns)`` — executed inline for every data packet that
  traverses the owning processing unit (the "Update Counter" stage of
  Figures 4 and 5);
* ``read()`` — return the current register value.  The snapshot agent
  calls this at snapshot time; the control plane calls it when polling.

Counters must hold only *local* state: the paper requires switch-wide
shared state to be re-expressed as per-unit state (§4.2).  The framework
enforces nothing — it is a convention — but all bundled counters follow
it.

Which counter backs which metric name lives in one table,
:data:`repro.counters.METRICS`.
"""

from __future__ import annotations

import abc

from repro.sim.packet import Packet


class Counter(abc.ABC):
    """Base class for data-plane counters."""

    @abc.abstractmethod
    def update(self, packet: Packet, now_ns: int) -> None:
        """Process one packet (line-rate register update)."""

    @abc.abstractmethod
    def read(self) -> int:
        """Current register value (integer, as hardware registers are)."""

    def reset(self) -> None:
        """Zero the registers.  Subclasses override as needed."""
