"""EWMA of packet interarrival time — the paper's §8 counter.

The paper implements the EWMA "in two phases due to hardware limitations
on register computation"::

    interarrival = pkt_timestamp - last_ts[port]
    last_ts[port] = pkt_timestamp
    if packet_count[port] is even:
        temp_ewma[port] += interarrival
    else:
        temp_ewma[port] /= 2
    ewma[port] /= temp_ewma[port]

(The last line is a typo in the published listing — dividing an EWMA by a
temporary would not yield a time; the accompanying prose pins down the
intended semantics: "The EWMA updates on every other packet with the
average interarrival of the last two packets ... functionally equivalent
to an EWMA with a decay factor of .5".)

:class:`EwmaInterarrival` implements exactly those semantics with the
same four registers (``last_ts``, ``packet_count``, ``temp_ewma``,
``ewma``) and integer arithmetic, as a Tofino register pair would:

* even-numbered packet (0-based): ``temp_ewma`` accumulates the new
  interarrival;
* odd-numbered packet: ``temp_ewma`` becomes the average of the pair's
  two interarrivals, and ``ewma`` is folded as
  ``ewma = ewma/2 + temp_ewma/2`` (decay 0.5).
"""

from __future__ import annotations

from repro.sim.packet import Packet


class EwmaInterarrival:
    """Two-phase register implementation of the interarrival EWMA (ns)."""

    def __init__(self) -> None:
        # The four stateful registers of the paper's listing.
        self.last_ts = 0
        self.packet_count = 0
        self.temp_ewma = 0
        self.ewma = 0
        self._seeded = False

    def update(self, packet: Packet, now_ns: int) -> None:
        if self.last_ts == 0:
            # First packet ever: no interarrival defined yet.  Hardware
            # uses a zero-timestamp sentinel the same way.
            self.last_ts = now_ns
            return
        interarrival = now_ns - self.last_ts
        self.last_ts = now_ns
        if self.packet_count % 2 == 0:
            # Phase 1: stash the first interarrival of the pair.
            self.temp_ewma = interarrival
        else:
            # Phase 2: average the pair, then fold into the EWMA.
            self.temp_ewma = (self.temp_ewma + interarrival) // 2
            if not self._seeded:
                # A zero EWMA register means "uninitialized": seed it with
                # the first pair average instead of decaying from zero.
                self.ewma = self.temp_ewma
                self._seeded = True
            else:
                self.ewma = self.ewma // 2 + self.temp_ewma // 2
        self.packet_count += 1

    def read(self) -> int:
        """Current EWMA of interarrival time, in nanoseconds."""
        return self.ewma


class EwmaPacketRate:
    """EWMA of packet *rate* (packets/second), used in Figure 13.

    Derived from the interarrival EWMA: rate = 1e9 / interarrival_ns.
    Reading an idle port (no pairs completed yet) returns 0.
    """

    def __init__(self) -> None:
        self._interarrival = EwmaInterarrival()

    def update(self, packet: Packet, now_ns: int) -> None:
        self._interarrival.update(packet, now_ns)

    def read(self) -> int:
        ewma_ns = self._interarrival.read()
        if ewma_ns <= 0:
            return 0
        return 1_000_000_000 // ewma_ns
