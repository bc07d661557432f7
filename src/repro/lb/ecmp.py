"""Equal-Cost Multi-Path forwarding (flow-level hashing).

Classic ECMP: a hash of the 5-tuple selects one member of the equal-cost
group, so every packet of a flow takes the same path (no reordering) but
large flows can collide on a member and skew the load — the imbalance
Figure 12 measures.

The hash must be deterministic across runs (Python's built-in ``hash`` on
strings is salted per process), so we use CRC32 over a canonical encoding
of the flow key, which mirrors what switch ASICs compute.  CRC alone is
*linear*: two messages differing only in an appended salt byte produce
CRCs differing by a constant XOR, so their low bits — the ECMP member
selector — stay perfectly correlated across salts.  Real ASICs avoid
this by seeding the hash state or selecting different polynomials per
switch; we apply a murmur-style avalanche finalizer over (CRC, salt),
which decorrelates member choices across hops the same way.

The CRC depends on the flow alone, so it is computed once per
:class:`~repro.sim.packet.FlowKey` and kept on the key; every later hop,
sketch row or flowlet lookup pays only the salted avalanche.
"""

from __future__ import annotations

import zlib

from repro.sim.packet import FlowKey, Packet


def flow_hash(flow: FlowKey, salt: int = 0) -> int:
    """Deterministic, salt-decorrelated hash of the 5-tuple."""
    h = flow._crc
    if h is None:
        key = f"{flow.src}|{flow.dst}|{flow.sport}|{flow.dport}|{flow.proto}"
        h = flow._crc = zlib.crc32(key.encode("utf-8"))
    h ^= (salt * 0x9E3779B9) & 0xFFFFFFFF
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


class EcmpBalancer:
    """Flow-hash member selection over the candidate port list."""

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt
        self.decisions = 0

    def select(self, candidates: list[int], packet: Packet, now_ns: int) -> int:
        self.decisions += 1
        return candidates[flow_hash(packet.flow, self.salt) % len(candidates)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EcmpBalancer(salt={self.salt})"
