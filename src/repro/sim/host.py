"""End hosts: traffic sources and sinks.

Hosts are deliberately simple — the paper's workloads exercise the
*network*, and Speedlight explicitly requires no host cooperation (§5.1).
A host can:

* send packets or whole flows (open-loop, paced at its NIC rate),
* receive packets, counting them and their bytes and handing each to an
  optional ``on_receive`` callback (it keeps no per-flow state),
* host the snapshot observer / polling observer processes (those live in
  :mod:`repro.core.observer` and :mod:`repro.polling` and merely use the
  host's name as their vantage point).

Hosts never see snapshot headers: the last snapshot-enabled egress unit
pops the header before the packet reaches the host link.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional

from repro.sim.engine import Simulator, exact_ns
from repro.sim.channel import Link
from repro.sim.packet import FlowKey, Packet
from repro.sim.switch import _EgressQueue


class Host:
    """A server attached to the network by a single link."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.link: Optional[Link] = None
        self._nic = _EgressQueue(sim)
        self.packets_received = 0
        self.bytes_received = 0
        #: When set, every packet leaving this host without an explicit
        #: TTL gets this hop limit (IP-style; switches decrement it and
        #: expire packets at zero).  ``None`` — the default — disables
        #: TTL processing entirely, so pre-existing scenarios and the
        #: golden trace are untouched.  Update experiments set a tight
        #: limit to turn transient forwarding loops into countable
        #: ``packets_ttl_expired`` drops (:mod:`repro.updates`).
        self.default_ttl: Optional[int] = None
        #: Optional callback invoked on every received packet: the one
        #: place to keep receiver-side per-flow state, if a caller needs it.
        self.on_receive: Optional[Callable[[Packet], None]] = None

    # -- LinkEndpoint protocol -----------------------------------------
    @property
    def endpoint_name(self) -> str:
        return self.name

    def connect(self, link: Link) -> None:
        if self.link is not None:
            raise RuntimeError(f"host {self.name} already connected")
        self.link = link
        self._nic.bind(link, self)

    def receive_from_link(self, packet: Packet, link: Link) -> None:
        if packet.snapshot is not None:
            # Defensive: headers must be stripped before host delivery.
            packet.strip_snapshot_header()
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        if self.on_receive is not None:
            self.on_receive(packet)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet) -> None:
        """Queue one packet on the NIC (serialised at link rate)."""
        if self.link is None:
            raise RuntimeError(f"host {self.name} is not connected")
        packet.created_ns = self.sim.now
        if packet.ttl is None and self.default_ttl is not None:
            packet.ttl = self.default_ttl
        self._nic.push(packet)

    def send_flow(self, dst: str, num_packets: int, *, sport: int, dport: int,
                  size_bytes: int = 1500, gap_ns: int = 0,
                  start_delay_ns: int = 0, proto: int = 6) -> FlowKey:
        """Send ``num_packets`` packets of a flow, ``gap_ns`` apart.

        With ``gap_ns=0`` the NIC paces the flow at line rate.  Returns
        the flow key (the receiver keeps no per-flow state; an
        ``on_receive`` callback can).
        """
        flow = FlowKey(self.name, dst, sport, dport, proto)

        if type(gap_ns) is not int:
            gap_ns = exact_ns(gap_ns, "gap_ns")
        gap = gap_ns if gap_ns > 1 else 1

        def emit(seq: int) -> None:
            self.send_packet(Packet(flow=flow, size_bytes=size_bytes, seq=seq))
            if seq + 1 < num_packets:
                self.sim.schedule_fast(gap, emit, seq + 1)

        if num_packets > 0:
            self.sim.schedule(start_delay_ns, emit, 0)
        return flow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name})"
