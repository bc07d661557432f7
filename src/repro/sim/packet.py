"""Packets and the Speedlight snapshot header.

The snapshot header (paper §5.1) carries two fields:

* **packet type** — ``DATA`` for ordinary traffic, ``INITIATION`` for the
  control-plane initiation messages of §6 (Figure 6, path 3), ``PROBE``
  for the snapshot-propagation broadcasts that keep idle channels live
  (§6, "Ensuring liveness");
* **snapshot ID** — the epoch the *send* of this packet belongs to, set at
  each hop to the sending processing unit's current ID.

The paper's third field, the channel ID, is not carried: a unit knows
the channel a packet arrived on from the port it arrived on (an ingress
unit's one external link, an egress unit's source ingress port).

Hosts never see the header: it is pushed by the first snapshot-enabled
ingress unit and popped before delivery to a host (or, under partial
deployment, at the last snapshot-enabled device on the path).

Performance notes (docs/PERF.md): these are the most-allocated objects
in any trial, so all three types are ``__slots__`` classes with
hand-written constructors.  A :class:`FlowKey` precomputes its hash and
keeps the CRC the ECMP hash computes for it (:mod:`repro.lb.ecmp`).
Stripped snapshot headers are recycled through a small free list
(:meth:`Packet.strip_snapshot_header`) instead of round-tripping the
allocator.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional


class PacketType(enum.IntEnum):
    """Snapshot header packet type (§5.1).

    An ``IntEnum`` so fast-path code can compare the stored member
    against a plain int (or a cached member with ``is``) without
    attribute-chasing the enum class per packet.
    """

    DATA = 0
    INITIATION = 1
    #: Snapshot-propagation probe: advances IDs and Last Seen like DATA,
    #: but is protocol-internal — never measured traffic, so it neither
    #: updates unit counters nor credits in-flight channel state.
    PROBE = 2


#: Members cached at module level for hot-path identity comparisons.
DATA = PacketType.DATA
INITIATION = PacketType.INITIATION
PROBE = PacketType.PROBE


class SnapshotHeader:
    """The in-band snapshot header added to every packet.

    ``sid`` is rewritten at every snapshot-enabled processing unit so the
    downstream unit learns the upstream unit's current snapshot epoch.
    """

    __slots__ = ("sid", "packet_type")

    def __init__(self, sid: int = 0, packet_type: PacketType = DATA) -> None:
        self.sid = sid
        self.packet_type = packet_type

    def copy(self) -> "SnapshotHeader":
        """An independent header with the same fields (recycles the
        free list when possible)."""
        return new_header(self.sid, self.packet_type)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SnapshotHeader(sid={self.sid}, "
                f"packet_type={self.packet_type!r})")


#: Free list of stripped headers.  Bounded so a pathological workload
#: cannot pin memory.
_HEADER_POOL: list[SnapshotHeader] = []
_HEADER_POOL_MAX = 1024


def new_header(sid: int = 0, packet_type: PacketType = DATA) -> SnapshotHeader:
    """Allocate a snapshot header, reusing a pooled one when available."""
    if _HEADER_POOL:
        header = _HEADER_POOL.pop()
        header.sid = sid
        header.packet_type = packet_type
        return header
    return SnapshotHeader(sid, packet_type)


class FlowKey:
    """A 5-tuple identifying a flow, used by the load balancers.

    Instances are immutable by convention; equal keys compare and hash
    equal, with the hash computed once at construction.  ``_crc`` is
    the CRC32 of the canonical key, filled in on each key object by
    :func:`repro.lb.ecmp.flow_hash` on first use.
    """

    __slots__ = ("src", "dst", "sport", "dport", "proto", "_hash", "_crc")
    _crc: Optional[int]

    def __init__(self, src: str, dst: str, sport: int, dport: int,
                 proto: int = 6) -> None:
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.proto = proto
        self._hash = hash((src, dst, sport, dport, proto))
        self._crc = None

    def reversed(self) -> "FlowKey":
        return FlowKey(self.dst, self.src, self.dport, self.sport, self.proto)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FlowKey):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.sport == other.sport and self.dport == other.dport
                and self.proto == other.proto)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowKey({self.src!r}, {self.dst!r}, {self.sport}, "
                f"{self.dport}, proto={self.proto})")


_packet_uid = itertools.count()


class Packet:
    """A simulated packet.

    ``payload`` is free-form application data (request ids, probe TTLs);
    the network never interprets it except for broadcast-probe TTLs.

    ``ttl`` is an optional IP-style hop limit: ``None`` (the default)
    means "no TTL processing at all" — switches only decrement and
    expire packets whose sender opted in (see
    :attr:`repro.sim.host.Host.default_ttl`), so pre-existing scenarios
    are untouched.  ``route_tag`` is the two-phase-update rule tag of
    §10-style versioned forwarding (:mod:`repro.updates`): a tagged
    packet matches a switch's staged rule set when one exists for the
    tag, and the base FIB otherwise.
    """

    __slots__ = ("flow", "size_bytes", "seq", "created_ns", "snapshot",
                 "uid", "payload", "ttl", "route_tag")

    def __init__(self, flow: FlowKey, size_bytes: int = 1500, seq: int = 0,
                 created_ns: int = 0,
                 snapshot: Optional[SnapshotHeader] = None,
                 uid: Optional[int] = None,
                 payload: Any = None, ttl: Optional[int] = None,
                 route_tag: Optional[str] = None) -> None:
        self.flow = flow
        self.size_bytes = size_bytes
        self.seq = seq
        self.created_ns = created_ns
        self.snapshot = snapshot
        self.uid = next(_packet_uid) if uid is None else uid
        self.payload = payload
        self.ttl = ttl
        self.route_tag = route_tag

    @property
    def src(self) -> str:
        return self.flow.src

    @property
    def dst(self) -> str:
        return self.flow.dst

    def push_snapshot_header(self, sid: int = 0,
                             packet_type: PacketType = DATA) -> SnapshotHeader:
        """Attach a snapshot header (first snapshot-enabled hop)."""
        self.snapshot = new_header(sid, packet_type)
        return self.snapshot

    def strip_snapshot_header(self) -> None:
        """Drop the snapshot header and recycle it (internal strip
        paths only — the header must not be referenced elsewhere)."""
        header, self.snapshot = self.snapshot, None
        if header is not None and len(_HEADER_POOL) < _HEADER_POOL_MAX:
            _HEADER_POOL.append(header)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snap = f", sid={self.snapshot.sid}" if self.snapshot else ""
        return (f"Packet(#{self.uid} {self.flow.src}->{self.flow.dst} "
                f"seq={self.seq} {self.size_bytes}B{snap})")


_INITIATION_FLOW = FlowKey(src="cpu", dst="cpu", sport=0, dport=0, proto=0)


def make_initiation_packet(sid: int, created_ns: int = 0) -> Packet:
    """Build a control-plane snapshot initiation message (§6).

    Initiation packets travel CPU → ingress → egress of each port and are
    dropped after processing.  They are never counted by metric counters
    and never treated as in-flight channel state; all share one flow key.
    """
    pkt = Packet(flow=_INITIATION_FLOW, size_bytes=64, created_ns=created_ns)
    pkt.snapshot = new_header(sid, INITIATION)
    return pkt
