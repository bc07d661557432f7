"""Switch model: ports, processing units, fabric, egress queues.

The paper's system model (§4.1, Figure 2) views a switch as a set of
per-port, per-direction **processing units** connected by FIFO channels:

* every **ingress unit** has one external upstream neighbor (the device at
  the other end of the physical link) plus the local control plane;
* every **egress unit** has one upstream neighbor per ingress port of the
  same switch (packets can arrive from any of them) plus the control
  plane;
* the internal fabric connecting ingress to egress units is FIFO per
  (ingress, egress) pair, so an egress unit's channel is the ingress
  port a packet came from.

Processing units are *linearizable*: they process one packet at a time in
arrival order.  The discrete-event engine gives us that for free — each
unit's handler runs to completion before any other event.

Snapshot logic is attached to units via the small
:class:`SnapshotAgent` interface so that :mod:`repro.core` (the protocol)
and :mod:`repro.sim` (the substrate) stay decoupled.  A unit with no
agent simply forwards packets untouched, which is exactly the partial
deployment story of §10.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Callable
from functools import partial
from typing import NamedTuple, Optional, Protocol

from repro.sim.engine import Simulator, US, check_minimums
from repro.sim.channel import Link, LinkEndpoint
from repro.sim.packet import Packet, PacketType

#: Enum members cached at module level: the per-packet fast path does
#: identity checks against these instead of attribute-chasing the enum.
_DATA = PacketType.DATA
_INITIATION = PacketType.INITIATION
_PROBE = PacketType.PROBE

#: Channel ID an ingress unit uses for its single external upstream
#: neighbor (§5.1: "for ingress processing units, there is only one
#: upstream neighbor").
EXTERNAL_CHANNEL = 0

#: Channel ID for the local control plane.  The CPU is "treated as an
#: additional neighbor for the last seen array, though this value is only
#: used for rollover detection and not to detect snapshot completion" (§6).
CPU_CHANNEL = -1

#: Destination name marking a snapshot-propagation broadcast probe (§6,
#: "we can inject broadcasts into the network that force propagation of
#: snapshot IDs").  An ingress unit floods it to every other egress; an
#: egress forwards it over the wire only while the packet's TTL lasts and
#: the peer parses snapshot headers.
BROADCAST_DST = "__broadcast__"


class Direction:
    """Which side of the port a processing unit sits on: two plain
    strings, so a :class:`UnitId` is a tuple of plain values that hashes,
    compares and sorts in C."""

    INGRESS = "ingress"
    EGRESS = "egress"


class UnitId(NamedTuple):
    """Globally unique name of a processing unit: a plain tuple, so it
    hashes, compares and sorts in C (by device, port, then direction, the
    order :func:`parse_unit_key` gives its name), and pickles as its
    fields."""

    device: str
    port: int
    direction: str

    def __str__(self) -> str:
        return unit_key(*self)


def unit_key(device: str, port: int, direction: str) -> str:
    """The ``device:port:direction`` name of a unit: ``str(UnitId)``,
    the store's row key and an epoch record's ``missing_units`` entry."""
    return f"{device}:{port}:{direction}"


def parse_unit_key(key: str) -> tuple[str, int, str]:
    """Invert :func:`unit_key` into a plain ``(device, port, direction)``
    tuple (a device name may itself contain ``:``).  Plain, not a
    :class:`UnitId`: as a sort key it orders names as their units order,
    without a Python-level constructor per name."""
    device, port, direction = key.rsplit(":", 2)
    return (device, int(port), direction)


@dataclass(frozen=True)
class TraceEvent:
    """One packet's pass through one snapshot-enabled unit.

    Emitted to the network's trace sink when tracing is enabled; the
    causal-consistency checker (:mod:`repro.analysis.consistency`)
    replays these to validate every snapshot cut against ground truth.
    ``carried_sid`` is the (wrapped) ID the packet arrived with;
    ``unit_sid_after`` is the unit's (wrapped) ID after processing —
    i.e. the ID stamped into the departing packet.
    """

    packet_uid: int
    unit: UnitId
    time_ns: int
    carried_sid: int
    unit_sid_after: int
    channel: int
    is_data: bool
    size_bytes: int


class SnapshotAgent(Protocol):
    """What the data-plane snapshot logic must provide to a unit.

    Implemented by :class:`repro.core.dataplane.SpeedlightUnit` and
    :class:`repro.core.ideal.IdealUnit`.

    ``quiet_sid`` is the header ID for which a pass changes nothing but
    ``packets_seen``: the unit's own current ID, when the agent keeps no
    channel state.  A unit whose packet carries it skips
    :meth:`process_packet` and counts the pass in ``packets_seen``
    itself (the Speedlight pipeline's common case, sid equality, §5).
    ``None`` means every packet must be processed: channel state is on
    (Last Seen moves), or the agent does not opt in.
    """

    quiet_sid: Optional[int]
    packets_seen: int

    def process_packet(self, packet: Packet, channel_id: int,
                       now_ns: int) -> int:
        """Run the snapshot logic for one packet.

        Receives the packet (whose snapshot header is guaranteed present)
        and the logical channel it arrived on; must return the snapshot
        ID to stamp into the header before the packet is forwarded (the
        unit's current ID).
        """
        ...  # pragma: no cover - protocol definition

    @property
    def sid(self) -> int:
        ...  # pragma: no cover - protocol definition


class CounterSet:
    """The set of data-plane counters attached to one processing unit.

    Counters are updated inline for every DATA packet traversing the
    unit; initiation packets are never counted (§6).

    Note on ordering: in this model the snapshot logic runs *before* the
    counter update.  The published pipeline diagrams place the counter
    update first, but the snapshot capture must store the *pre-update*
    register value (the stateful ALU returns the old value) for the
    Figure 3 cut semantics — a packet that triggers a new snapshot is
    itself post-snapshot, otherwise the receive of a post-snapshot send
    would land inside the snapshot and break causal consistency (the
    paper's own proof sketch, §4.2).  Running snapshot-then-update is the
    behaviourally equivalent ordering.
    """

    def __init__(self) -> None:
        self._counters: dict[str, "CounterLike"] = {}
        #: The counters' bound ``update`` methods, in attach order: what
        #: a unit calls for every measured packet.
        self.updates: tuple[Callable[[Packet, int], None], ...] = ()

    def add(self, name: str, counter: "CounterLike") -> None:
        if name in self._counters:
            raise ValueError(f"counter {name!r} already attached")
        self._counters[name] = counter
        self.updates += (counter.update,)

    def get(self, name: str) -> "CounterLike":
        return self._counters[name]

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def names(self) -> list[str]:
        return sorted(self._counters)

    def read(self, name: str) -> int:
        """Read a counter's current value (the control-plane register read
        used by the polling baseline)."""
        return self._counters[name].read()


class CounterLike(Protocol):
    """The counter contract, which every counter in :mod:`repro.counters`
    satisfies.  A counter holds only its unit's *local* state: the paper
    re-expresses switch-wide shared state as per-unit state (§4.2)."""

    def update(self, packet: Packet, now_ns: int) -> None:
        """Process one data packet inline (the "Update Counter" stage of
        Figures 4 and 5)."""
        ...  # pragma: no cover - protocol definition

    def read(self) -> int:
        """The current register value, an integer as hardware registers
        are: what a snapshot captures and a poll reads."""
        ...  # pragma: no cover - protocol definition


#: Constant ingress pipeline latency (parse + match-action stages).
INGRESS_LATENCY_NS = 300
#: Latency of the internal fabric between ingress and egress units.
FABRIC_LATENCY_NS = 400
#: Latency of the ASIC→CPU notification path (PCIe DMA + raw socket).
ASIC_CPU_LATENCY_NS = 4 * US
#: The combined ingress→fabric hop, what a forwarded packet waits.
_INGRESS_FABRIC_NS = INGRESS_LATENCY_NS + FABRIC_LATENCY_NS


@dataclass
class SwitchConfig:
    """Static configuration of a switch."""

    #: Per-egress buffer limit in packets (tail drop beyond it); None
    #: models an unbounded buffer.  Drops are one of the non-idealities
    #: the snapshot protocol explicitly tolerates (§4.2, §6).
    queue_capacity_packets: Optional[int] = None

    def __post_init__(self) -> None:
        check_minimums(self, {"queue_capacity_packets": 1},
                       optional=("queue_capacity_packets",))


class _EgressQueue:
    """Store-and-forward output queue feeding the physical link.

    One FIFO per egress unit.  Serialisation delay is computed per
    packet from the bound link's serialisation table, ``ser_fn`` on a
    miss; instantaneous depth in packets and bytes is itself a
    snapshottable metric (the queue-depth counter).

    ``busy``, depth and the sent counters are answered from the packet
    in service's *finish instant*: on a plain link its delivery is
    scheduled as serialisation starts (the fused hop, docs/PERF.md).
    """

    def __init__(self, sim: Simulator,
                 transmit: Optional[Callable[[Packet, float], object]] = None,
                 ser_fn: Optional[Callable[[int], int]] = None,
                 capacity_packets: Optional[int] = None) -> None:
        self.sim = sim
        self.transmit = transmit
        self.ser_fn = ser_fn
        #: Set by :meth:`bind`: the link fed, and its receiving side.
        self._link: Optional[Link] = None
        self._rx_side = 0
        #: size_bytes -> serialisation ns: the bound link's memo, which
        #: ``ser_fn`` fills on a miss.
        self._ser_table: dict[int, int] = {}
        self.capacity_packets = capacity_packets
        #: The FIFO of waiting packets (excludes the in-service one).
        self._waiting: deque[Packet] = deque()
        self.queued_bytes = 0
        #: The packet in service (or last served), its finish instant and,
        #: while fused, the seq of its delivery.  Events for that instant
        #: take fractional seqs just below it — an un-fused hand-over
        #: -0.75, a visit for waiting packets -0.5 — as if scheduled when
        #: it was; a hand-over's delivery takes its own seq +0.125.  The
        #: fractional parts all differ, so no two events ever tie.
        self._serving: Optional[Packet] = None
        self._finish_at = 0
        self._fused_seq: Optional[int] = None
        self._started = 0
        self._started_bytes = 0
        #: Unit-stall fault flag (:mod:`repro.faults`): while paused the
        #: queue keeps accepting packets (up to capacity) but stops
        #: dequeuing, so latency builds up and tail drops appear — the
        #: "slow / stuck egress" failure mode.
        self.paused = False
        self.packets_dropped = 0
        self.max_depth_packets = 0

    def bind(self, link: Link, sender: LinkEndpoint) -> None:
        """Attach ``sender`` to ``link`` with this queue as its lane."""
        self._link = link
        self._rx_side = 1 - link.attach(sender, self)
        self.ser_fn = link.serialization_ns
        self._ser_table = link._ser_cache
        self.transmit = partial(link.transmit, sender)

    @property
    def busy(self) -> bool:
        return self.sim.now < self._finish_at

    @property
    def packets_sent(self) -> int:
        return self._started - self.busy

    @property
    def bytes_sent(self) -> int:
        return self._started_bytes - (
            self._serving.size_bytes if self.busy else 0)  # type: ignore[union-attr]

    @property
    def depth_packets(self) -> int:
        return len(self._waiting) + self.busy

    @property
    def depth_bytes(self) -> int:
        return self.queued_bytes

    def push(self, packet: Packet) -> bool:
        """Enqueue a packet.

        Returns False on a tail drop (buffer at capacity).
        """
        now = self.sim.now
        busy = now < self._finish_at
        depth = len(self._waiting) + busy
        if (self.capacity_packets is not None
                and depth >= self.capacity_packets):
            self.packets_dropped += 1
            return False
        if depth + 1 > self.max_depth_packets:
            self.max_depth_packets = depth + 1
        if not depth and not self.paused:
            self._serve(packet, now)
            return True
        self._waiting.append(packet)
        self.queued_bytes += packet.size_bytes
        if busy and len(self._waiting) == 1 and self._fused_seq is not None:
            # First waiter behind a fused packet: nothing is scheduled
            # for its finish instant yet, so visit it.
            self.sim.schedule_fast_at(self._fused_seq - 0.5,
                                      self._finish_at - now, self._finish)
        return True

    def _serve(self, packet: Packet, now: int) -> None:
        """Start serialising ``packet`` on the idle lane."""
        size = packet.size_bytes
        ser = self._ser_table.get(size) or self.ser_fn(size) or 1  # type: ignore[misc]
        self._serving = packet
        self._finish_at = now + ser
        self._started += 1
        self._started_bytes += size
        link = self._link
        if link is not None and link._plain:
            seq = self._fused_seq = self.sim.schedule_fast(
                ser + link.propagation_ns, link._deliver, self._rx_side,
                packet)
            if self._waiting:
                self.sim.schedule_fast_at(seq - 0.5, ser, self._finish)
        else:
            self._fused_seq = None
            self.sim.schedule_fast(ser, self._finish, packet)

    def unfuse(self) -> None:
        """The link changed state: a fused packet not past its finish
        instant goes back to ``_finish`` → ``transmit`` there (a change
        *in* that nanosecond counts as before it), where drops, loss
        draws and spike clamping are decided."""
        seq, wait = self._fused_seq, self._finish_at - self.sim.now
        if seq is not None and (wait > 0 or (
                wait == 0 and self._link.propagation_ns)):  # type: ignore[union-attr]
            self.sim.cancel(seq)
            self._fused_seq = None
            self.sim.schedule_fast_at(seq - 0.75, wait, self._finish,
                                      self._serving)

    def _finish(self, packet: Optional[Packet] = None) -> None:
        """Visit a finish instant: hand ``packet`` to ``transmit`` (its
        hop was not fused), then serve the next waiting packet."""
        if packet is not None:  # an event of its own: seq_now is its seq
            self.transmit(packet, self.sim.seq_now + 0.125)  # type: ignore[misc]
        now = self.sim.now
        if self.paused or now < self._finish_at:
            return
        if self._waiting:
            packet = self._waiting.popleft()
            self.queued_bytes -= packet.size_bytes
            self._serve(packet, now)

    def pause(self) -> None:
        """Stall the dequeue side (the in-service packet still completes)."""
        self.paused = True

    def resume(self) -> None:
        """Resume servicing after a stall."""
        self.paused = False
        self._finish()


class _ProcessingUnit:
    """State shared by ingress and egress units."""

    def __init__(self, switch: "Switch", port: int, direction: str) -> None:
        self.switch = switch
        self.port_index = port
        self.unit_id = UnitId(switch.name, port, direction)
        self.counters = CounterSet()
        self.snapshot_agent: Optional[SnapshotAgent] = None

    @property
    def snapshot_enabled(self) -> bool:
        return self.snapshot_agent is not None

    def read_counter(self, name: str) -> int:
        return self.counters.read(name)


class IngressUnit(_ProcessingUnit):
    """Per-port ingress processing (Figure 4).

    Pipeline: update counters → (push header if absent) → snapshot logic →
    forwarding lookup → fabric to the chosen egress unit.
    """

    def __init__(self, switch: "Switch", port: int) -> None:
        super().__init__(switch, port, Direction.INGRESS)

    def handle_packet(self, packet: Packet) -> None:
        sw = self.switch
        now = sw.sim.now
        snapshot = packet.snapshot
        # Protocol-internal packets (initiations and liveness probes)
        # drive snapshot state but are not measured traffic: they bypass
        # the unit counters, keeping port counters conserved across each
        # link (a probe may enter an ingress straight from the CPU, so
        # counting it would break the receiver ⊆ sender invariant that
        # analysis.invariants.LinkAudit checks).
        is_measured = snapshot is None or snapshot.packet_type is _DATA
        is_initiation = (snapshot is not None and
                         snapshot.packet_type is _INITIATION)

        agent = self.snapshot_agent
        if agent is not None:
            if snapshot is None:
                # First snapshot-enabled hop on this packet's path: push a
                # header carrying our current epoch.  A fresh header never
                # triggers a snapshot (sid equality) but does refresh the
                # external channel's last-seen entry, which is sound: host
                # channels carry no tagged in-flight packets, so every
                # host packet tagged here belongs to the current epoch.
                snapshot = packet.push_snapshot_header(sid=agent.sid)
            # The external link is one FIFO logical channel (§4.1).  A
            # probe injected by our *own* CPU never traversed it, so it
            # runs on the CPU channel — updating the external channel's
            # Last Seen would spoof the gate open while genuinely old
            # packets are still in flight from the neighbor (a probe that
            # crossed the wire arrived behind them, so the external
            # channel is correct).
            if is_initiation or (not is_measured
                                 and packet.flow.src == sw._cpu_src):
                channel = CPU_CHANNEL
            else:
                channel = EXTERNAL_CHANNEL
            carried = snapshot.sid
            if carried == agent.quiet_sid:
                # The unit's own epoch, nothing to snapshot: only the
                # pass counter moves.
                agent.packets_seen += 1
                new_sid = carried
            else:
                new_sid = snapshot.sid = agent.process_packet(
                    packet, channel, now)
            if sw.trace_sink is not None:
                sw.trace_sink(TraceEvent(
                    packet.uid, self.unit_id, now, carried, new_sid, channel,
                    is_measured, packet.size_bytes))

        if is_measured:
            for update in self.counters.updates:
                update(packet, now)
        elif is_initiation:
            # Initiation travels CPU → ingress → egress of the *same* port
            # (Figure 6, path 3) and is dropped there after processing.
            # A disabled unit should never see one; drop defensively.
            if agent is not None:
                sw.sim.schedule_fast(_INGRESS_FABRIC_NS,
                                     sw._to_egress[self.port_index],
                                     packet, self.port_index)
            return

        # Hop limit (opt-in: only packets whose sender set a TTL).  The
        # expiry drop sits *after* the counter update so per-link counts
        # stay conserved — the receiver counted exactly what the sender
        # emitted; the packet merely dies here instead of forwarding.
        ttl = packet.ttl
        if ttl is not None:
            if ttl <= 0:
                sw.packets_ttl_expired += 1
                monitor = sw.drop_monitor
                if monitor is not None:
                    monitor(sw.name, "ttl_expired", packet, now)
                return
            packet.ttl = ttl - 1

        # Two-phase edge stamp: tag traffic entering through a stamped
        # (host-facing) port so it matches staged rules downstream.
        if sw.ingress_stamps and packet.route_tag is None:
            stamp = sw.ingress_stamps.get(self.port_index)
            if stamp is not None:
                packet.route_tag = stamp

        dst = packet.flow.dst
        if dst == BROADCAST_DST:
            self._flood(packet, INGRESS_LATENCY_NS)
            return

        # Forwarding lookup: a tagged packet tries the staged rules
        # first (:meth:`Switch.forward`), every other one the base FIB.
        # The matched rule's version tag goes into the per-ingress
        # ``last_matched_version`` register (the §10 forwarding-state
        # snapshot target); the load balancer picks within an ECMP group.
        out_port = None
        if packet.route_tag is not None and sw.staged_routes:
            out_port = sw.forward(packet, self.port_index)
        if out_port is None:
            candidates = sw.routes.get(dst)
            if not candidates:
                sw.packets_unroutable += 1
                monitor = sw.drop_monitor
                if monitor is not None:
                    monitor(sw.name, "unroutable", packet, now)
                return
            sw.last_matched_version[self.port_index] = sw.route_version[dst]
            out_port = (candidates[0] if len(candidates) == 1
                        else sw.lb.select(candidates, packet, now))
        sw.sim.schedule_fast(_INGRESS_FABRIC_NS, sw._to_egress[out_port],
                             packet, self.port_index)

    def _flood(self, packet: Packet, delay: int) -> None:
        """Replicate a broadcast probe to every other connected egress.

        The TTL (carried in ``payload``) bounds wire hops; replication
        itself does not consume TTL.  Each copy carries its own header so
        per-egress snapshot processing stays independent.
        """
        sw = self.switch
        ttl = packet.payload if isinstance(packet.payload, int) else 0
        for out_port in sw.connected_ports():
            if out_port == self.port_index:
                continue
            copy = Packet(flow=packet.flow, size_bytes=packet.size_bytes,
                          seq=packet.seq, created_ns=packet.created_ns,
                          payload=ttl)
            if packet.snapshot is not None:
                copy.snapshot = packet.snapshot.copy()
            sw.sim.schedule_fast(delay + FABRIC_LATENCY_NS,
                                 sw._to_egress[out_port],
                                 copy, self.port_index)


class EgressUnit(_ProcessingUnit):
    """Per-port egress processing (Figure 5).

    Pipeline: update counters → snapshot logic (channel = source ingress
    port) → pop header if the peer is not snapshot-enabled → serialise
    onto the link.
    """

    def __init__(self, switch: "Switch", port: int) -> None:
        super().__init__(switch, port, Direction.EGRESS)
        self.queue = _EgressQueue(
            switch.sim, capacity_packets=switch.config.queue_capacity_packets)
        #: Set during wiring: True when the link peer cannot parse the
        #: snapshot header (hosts always; disabled switches under partial
        #: deployment).
        self.strip_header_for_peer = True

    def handle_packet(self, packet: Packet, from_ingress_port: int) -> None:
        sw = self.switch
        now = sw.sim.now
        snapshot = packet.snapshot
        # Probes are protocol-internal, never measured traffic (see the
        # ingress-side note): they skip the unit counters so per-link
        # counts stay conserved even when floods die here (TTL exhausted).
        is_measured = snapshot is None or snapshot.packet_type is _DATA
        is_initiation = (snapshot is not None and
                         snapshot.packet_type is _INITIATION)

        agent = self.snapshot_agent
        if agent is not None and snapshot is not None:
            channel = CPU_CHANNEL if is_initiation else from_ingress_port
            carried = snapshot.sid
            if carried == agent.quiet_sid:
                # The unit's own epoch, nothing to snapshot: only the
                # pass counter moves.
                agent.packets_seen += 1
                new_sid = carried
            else:
                new_sid = snapshot.sid = agent.process_packet(
                    packet, channel, now)
            if sw.trace_sink is not None:
                sw.trace_sink(TraceEvent(
                    packet.uid, self.unit_id, now, carried, new_sid, channel,
                    is_measured, packet.size_bytes))

        if is_initiation:
            # "...the egress unit ... drops the packet after processing" (§6)
            return
        if is_measured:
            for update in self.counters.updates:
                update(packet, now)

        if self.queue._link is None:
            sw.packets_unroutable += 1
            return
        if packet.flow.dst == BROADCAST_DST:
            # Probe: forward over the wire only while TTL lasts and the
            # peer can parse the header; never bother hosts with probes.
            ttl = packet.payload if isinstance(packet.payload, int) else 0
            if ttl <= 0 or self.strip_header_for_peer:
                return
            packet.payload = ttl - 1
        if self.strip_header_for_peer:
            packet.strip_snapshot_header()
        self.queue.push(packet)

    # Queue depth is a first-class metric (§1, §2.2 examples).
    @property
    def queue_depth_packets(self) -> int:
        return self.queue.depth_packets


class Port:
    """One front-panel port: an ingress unit, an egress unit, and a link."""

    def __init__(self, switch: "Switch", index: int) -> None:
        self.switch = switch
        self.index = index
        self.ingress = IngressUnit(switch, index)
        self.egress = EgressUnit(switch, index)
        self.link: Optional[Link] = None
        #: Pre-bound receive callable, what ``Link._deliver`` calls.
        self.rx = self.ingress.handle_packet

    # -- LinkEndpoint protocol -----------------------------------------
    @property
    def endpoint_name(self) -> str:
        return f"{self.switch.name}:{self.index}"

    def receive_from_link(self, packet: Packet, link: Link) -> None:
        # statics: allow[SIM003] the port's link-facing entry point handing off to its own ingress unit
        self.ingress.handle_packet(packet)

    def connect(self, link: Link) -> None:
        if self.link is not None:
            raise RuntimeError(f"port {self.endpoint_name} already connected")
        self.link = link
        self.egress.queue.bind(link, self)


class LoadBalancer(Protocol):
    """Picks one egress port from an ECMP group (see :mod:`repro.lb`)."""

    def select(self, candidates: list[int], packet: Packet, now_ns: int) -> int:
        ...  # pragma: no cover - protocol definition


class _FirstPortBalancer:
    """Degenerate balancer: always the first candidate (deterministic)."""

    def select(self, candidates: list[int], packet: Packet, now_ns: int) -> int:
        return candidates[0]


class Switch:
    """A snapshot-capable switch.

    Forwarding is destination-based: :attr:`routes` maps a destination
    host name to the list of candidate egress ports (the ECMP group), and
    the attached :class:`LoadBalancer` picks one per packet.  Routes are
    installed by :class:`repro.sim.network.Network` from the topology,
    as is ``num_ports``, the switch's degree there.
    """

    def __init__(self, sim: Simulator, name: str, num_ports: int,
                 config: Optional[SwitchConfig] = None,
                 lb: Optional[LoadBalancer] = None) -> None:
        self.sim = sim
        self.name = name
        self.config = config or SwitchConfig()
        #: Flow source of this switch's own CPU-injected liveness probes
        #: (see ``SwitchControlPlane.inject_probes``); used to tell a
        #: locally injected probe from one that crossed the wire.
        self._cpu_src = f"{name}-cpu"
        self.ports: list[Port] = [Port(self, i) for i in range(num_ports)]
        #: Pre-bound egress handlers by port, what ingress units schedule.
        self._to_egress = [port.egress.handle_packet for port in self.ports]
        self.routes: dict[str, list[int]] = {}
        self.lb: LoadBalancer = lb or _FirstPortBalancer()
        self.packets_unroutable = 0
        #: Packets dropped because their hop limit ran out (only packets
        #: whose sender set a TTL participate; see
        #: :attr:`repro.sim.packet.Packet.ttl`).  A spike of these inside
        #: an update window is the in-flight forwarding-loop signature
        #: the update verifier looks for (:mod:`repro.updates.verify`).
        self.packets_ttl_expired = 0
        #: Optional callback ``(device, kind, packet, time_ns)`` invoked
        #: on attributable data-plane drops (``kind`` is "ttl_expired" or
        #: "unroutable").  ``None`` — the default — costs one attribute
        #: load on the drop path and nothing on the forward path.
        self.drop_monitor: Optional[Callable[[str, str, Packet, int], None]] = None
        #: FIB versioning for forwarding-state snapshots (§10): every
        #: route install/update bumps the generation and tags the rule;
        #: the last version matched at each ingress is a data-plane
        #: register the snapshot primitive can capture.  The built table
        #: is loaded at generation 0 (:meth:`load_fib`) so coordinated
        #: updates (:mod:`repro.updates`) count from a common origin.
        self.fib_generation = 0
        self.route_version: dict[str, int] = {}
        self.last_matched_version: list[int] = [0] * num_ports
        #: Atomic table flips applied via :meth:`apply_route_swap`.
        self.route_swaps = 0
        #: Two-phase-update staging: rule tag -> dst -> candidate ports.
        #: Staged rules are invisible to untagged traffic; a packet whose
        #: ``route_tag`` names a staged set matches it in preference to
        #: the base FIB (install-then-flip, §10's versioned rules).
        self.staged_routes: dict[str, dict[str, list[int]]] = {}
        #: Per-port edge stamps: packets entering through a stamped port
        #: get the tag written into ``route_tag`` (the "flip" half of a
        #: two-phase update, applied at host-facing ports only).
        self.ingress_stamps: dict[int, str] = {}
        #: Callback used by snapshot agents to ship notifications to the
        #: local control plane; installed by the control plane at attach.
        self.notification_sink: Optional[Callable[[object], None]] = None
        #: Optional sink receiving a :class:`TraceEvent` per snapshot-unit
        #: packet pass (set by the network when tracing is enabled).
        self.trace_sink: Optional[Callable[[TraceEvent], None]] = None

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def install_route(self, dst: str, ports: list[int]) -> None:
        """Install or update the route for ``dst``.

        Every install bumps the FIB generation and tags the rule with it
        ("the control plane can ensure every FIB rule and version tags
        passing packets with a unique ID", §10) so forwarding state is
        snapshottable via the ``fib_version`` metric.
        """
        if not ports:
            raise ValueError(f"route to {dst!r} needs at least one port")
        for p in ports:
            if not 0 <= p < len(self.ports):
                raise ValueError(f"port {p} out of range for {self.name}")
        self.routes[dst] = list(ports)
        self.fib_generation += 1
        self.route_version[dst] = self.fib_generation

    def load_fib(self, routes: dict[str, list[int]]) -> None:
        """Load the whole built table as *the* initial forwarding state.

        What :meth:`install_route` per destination would leave once
        re-baselined: ``routes`` in its own key order, generation 0,
        every rule tagged 0, every ``last_matched_version`` register 0,
        so construction order never leaks into the generation numbers
        and update experiments read "device is on generation g"
        uniformly across devices.  Called once by
        :class:`repro.sim.network.Network` right after build, with the
        ports of its own port map (not checked here); the lists are
        kept, not copied, and may be shared between destinations.
        Later installs and swaps count up from generation 0.
        """
        self.routes = routes
        self.route_version = dict.fromkeys(routes, 0)
        self.fib_generation = 0
        registers = self.last_matched_version
        registers[:] = [0] * len(registers)

    def apply_route_swap(self, changes: list) -> int:
        """Apply a batch of route changes as one atomic table flip.

        ``changes`` is a list of ``(dst, ports)`` pairs; an empty/None
        ``ports`` removes the route (deliberate black-holing, e.g. a
        drain).  Modeled as a Time4-style double-buffered table swap: the
        shadow table (current routes + changes) becomes active in a
        single write, so the generation bumps **exactly once** no matter
        how many rules changed, every surviving rule is re-tagged with
        the new generation, and the per-ingress ``last_matched_version``
        registers — part of the same table memory — are refreshed to it.
        The refresh is what makes "which generation is this device on?"
        well-defined even for ports idle since the flip; only subsequent
        matches against rules of an *older* generation (impossible
        locally, visible cross-device through snapshot propagation) can
        lower the answer.
        """
        generation = self.fib_generation + 1
        for dst, ports in changes:
            if ports:
                for p in ports:
                    if not 0 <= p < len(self.ports):
                        raise ValueError(
                            f"port {p} out of range for {self.name}")
                self.routes[dst] = list(ports)
            else:
                self.routes.pop(dst, None)
                self.route_version.pop(dst, None)
        self.fib_generation = generation
        for dst in self.routes:
            self.route_version[dst] = generation
        registers = self.last_matched_version
        for i in range(len(registers)):
            registers[i] = generation
        self.route_swaps += 1
        return generation

    def schedule_route_swap(self, at_true_ns: int, changes: list,
                            on_applied: Optional[
                                Callable[[int, int], None]] = None) -> None:
        """Schedule :meth:`apply_route_swap` at a true-time instant.

        The caller (:mod:`repro.updates.driver`) converts the plan's
        scheduled wall instant through this device's *local* clock first,
        so real PTP error skews when the swap actually fires — exactly
        the skew the snapshot verifier measures.  The swap is modeled as
        hardware-timed (Time4's timed ``add``/``delete``): it fires at
        the scheduled instant with no CPU wakeup jitter.
        ``on_applied(generation, true_ns)`` runs right after the flip
        (driver-side logging).
        """
        at = at_true_ns if at_true_ns > self.sim.now else self.sim.now
        self.sim.schedule_at(at, self._apply_scheduled_swap, list(changes),
                             on_applied)

    def _apply_scheduled_swap(self, changes: list,
                              on_applied: Optional[
                                  Callable[[int, int], None]]) -> None:
        generation = self.apply_route_swap(changes)
        if on_applied is not None:
            on_applied(generation, self.sim.now)

    # -- two-phase (install-then-flip) staging --------------------------
    def stage_routes(self, tag: str, changes: list) -> None:
        """Install tagged shadow rules for a two-phase update.

        Staged rules never affect untagged traffic; route removals are
        deferred to the commit swap (a staged "remove" would black-hole
        tagged packets mid-transition).
        """
        staged = self.staged_routes.setdefault(tag, {})
        for dst, ports in changes:
            if not ports:
                continue
            for p in ports:
                if not 0 <= p < len(self.ports):
                    raise ValueError(f"port {p} out of range for {self.name}")
            staged[dst] = list(ports)

    def clear_staged(self, tag: str) -> None:
        """Drop one tag's staged rule set (two-phase cleanup)."""
        self.staged_routes.pop(tag, None)

    def set_ingress_stamp(self, port: int, tag: Optional[str]) -> None:
        """Set or clear the edge stamp on one port (two-phase "flip")."""
        if tag is None:
            self.ingress_stamps.pop(port, None)
        else:
            self.ingress_stamps[port] = tag

    def forward(self, packet: Packet, in_port: int) -> Optional[int]:
        """Staged-rule lookup + load-balancer selection for a packet
        carrying a ``route_tag``.

        A matching staged rule set is used in preference to the base
        FIB; staged rules are tagged with the generation they will
        commit as, and the match stores that tag into the per-ingress
        ``last_matched_version`` register.  Returns None when no staged
        rule matches: the ingress unit then looks up the base FIB.
        """
        staged = self.staged_routes.get(packet.route_tag)  # type: ignore[arg-type]
        if staged is None:
            return None
        candidates = staged.get(packet.dst)
        if candidates is None:
            return None
        self.last_matched_version[in_port] = self.fib_generation + 1
        if len(candidates) == 1:
            return candidates[0]
        return self.lb.select(candidates, packet, self.sim.now)

    # ------------------------------------------------------------------
    # Unit access helpers
    # ------------------------------------------------------------------
    def unit(self, port: int, direction: str) -> _ProcessingUnit:
        p = self.ports[port]
        return p.ingress if direction == Direction.INGRESS else p.egress

    def all_units(self) -> list[_ProcessingUnit]:
        units: list[_ProcessingUnit] = []
        for port in self.ports:
            units.append(port.ingress)
            units.append(port.egress)
        return units

    def snapshot_units(self) -> list[_ProcessingUnit]:
        return [u for u in self.all_units() if u.snapshot_enabled]

    def connected_ports(self) -> list[int]:
        return [p.index for p in self.ports if p.link is not None]

    def send_notification(self, notification: object) -> None:
        """Ship a notification over the ASIC→CPU channel."""
        if self.notification_sink is None:
            return
        self.sim.schedule_fast(ASIC_CPU_LATENCY_NS,
                               self.notification_sink, notification)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name}, ports={len(self.ports)})"
