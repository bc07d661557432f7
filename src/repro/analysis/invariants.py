"""Network-wide invariants over consistent snapshots.

§2.2 (question 4) argues that verifying global forwarding behaviour
needs consistent snapshots — "otherwise we can observe states that are
impossible."  This module turns that into a library: operators feed it
consistent snapshots of packet counts and it evaluates invariants that
only hold on legal cuts.

* :class:`LinkAudit` — per physical link, compare the sender's egress
  count (plus in-flight credits) against the receiver's ingress count.
  On a consistent cut the discrepancy is exactly the packets lost on or
  after the sender's count (wire loss, tail drops) plus those still in
  flight — i.e. **non-negative**.  A negative discrepancy means the
  receiver counted packets the sender never sent before the cut: the
  impossible state inconsistent measurements manufacture.
* :class:`LoopDetector` — across consecutive snapshots, traffic entering
  the fabric from hosts bounds how much transit (switch-to-switch)
  traffic can grow; transit growth far beyond the edge growth times the
  maximum path length is evidence of circulating packets (the
  forwarding-loop signature of ``examples/forwarding_loop_detection.py``,
  as an API).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from typing import Optional

from repro.analysis.report import _unit
from repro.core.snapshot import GlobalSnapshot
from repro.sim.network import Network
from repro.sim.switch import Direction, UnitId
from repro.topology.graph import NodeKind


@dataclass
class LinkReport:
    """Audit result for one direction of one physical link."""

    sender: UnitId           # egress unit at the sending switch
    receiver: UnitId         # ingress unit at the receiving switch
    sent: int                # sender's value (+ channel credits)
    received: int
    @property
    def discrepancy(self) -> int:
        """sent − received: in-flight + losses; negative is impossible
        on a consistent cut."""
        return self.sent - self.received


class LinkAudit:
    """Audits switch-to-switch links against one snapshot."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._links: list[tuple[UnitId, UnitId]] = []
        for name in sorted(network.switches):
            for neighbor, port in sorted(network.port_map[name].items()):
                if network.topology.kind(neighbor) is not NodeKind.SWITCH:
                    continue
                peer_port = network.port_map[neighbor][name]
                self._links.append(
                    (_unit(name, port, Direction.EGRESS),
                     _unit(neighbor, peer_port, Direction.INGRESS)))
        #: Every link's sender, then every link's receiver.
        self._units = ([sender for sender, _ in self._links]
                       + [receiver for _, receiver in self._links])

    def _totals(self, snapshot: GlobalSnapshot) -> Iterator[
            tuple[UnitId, UnitId, Optional[int], Optional[int]]]:
        """``(sender, receiver, sent, received)`` per link; a side is None
        when the snapshot holds no record of its unit."""
        units = self._units
        half = len(units) // 2
        totals = snapshot.totals_of(units)
        return zip(units, units[half:], totals, totals[half:])

    def audit(self, snapshot: GlobalSnapshot) -> list[LinkReport]:
        """Per-link reports for every link both of whose units appear in
        the snapshot (partial deployments audit the enabled core)."""
        return [LinkReport(sender, receiver, sent, received)
                for sender, receiver, sent, received in self._totals(snapshot)
                if sent is not None and received is not None]

    def violations(self, snapshot: GlobalSnapshot) -> list[LinkReport]:
        """Links whose receiver counted more than the sender emitted —
        impossible on a consistent cut.  A clean link costs no report."""
        if not snapshot.consistent:
            raise ValueError(
                "link auditing requires a consistent snapshot; this one "
                "is marked inconsistent")
        return [LinkReport(sender, receiver, sent, received)
                for sender, receiver, sent, received in self._totals(snapshot)
                if sent is not None and received is not None and received > sent]

    def audit_completed(self, snapshots: Sequence[GlobalSnapshot]) -> "AuditSummary":
        """Audit every completed snapshot of a campaign (fault runs).

        Consistent + complete snapshots are held to the non-negativity
        invariant; snapshots the control planes *marked* inconsistent are
        exempt (the marking is the protocol being honest about them, not
        a bug) but counted, and incomplete snapshots are only counted.
        This is the verification half of fault injection: faults may
        stall or degrade snapshots, but every snapshot still reported as
        consistent must describe a possible network state.
        """
        summary = AuditSummary()
        for snapshot in snapshots:
            if not snapshot.complete:
                summary.skipped_incomplete += 1
                continue
            if not snapshot.consistent:
                summary.skipped_inconsistent += 1
                continue
            summary.snapshots_audited += 1
            for report in self.audit(snapshot):
                summary.links_checked += 1
                if report.discrepancy < 0:
                    summary.negative_discrepancies.append(
                        (snapshot.epoch, report))
        return summary


@dataclass
class AuditSummary:
    """Outcome of :meth:`LinkAudit.audit_completed` over a campaign."""

    snapshots_audited: int = 0
    links_checked: int = 0
    skipped_inconsistent: int = 0
    skipped_incomplete: int = 0
    negative_discrepancies: list[tuple[int, LinkReport]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff no consistent cut showed an impossible state."""
        return not self.negative_discrepancies

    def __str__(self) -> str:
        verdict = ("OK" if self.ok
                   else f"{len(self.negative_discrepancies)} VIOLATIONS")
        return (f"audited {self.snapshots_audited} snapshots "
                f"({self.links_checked} link checks, "
                f"{self.skipped_inconsistent} flagged inconsistent, "
                f"{self.skipped_incomplete} incomplete) -> {verdict}")


@dataclass
class LoopVerdict:
    edge_growth: int
    transit_growth: int
    amplification: float
    loop_suspected: bool

    def __str__(self) -> str:
        verdict = "LOOP SUSPECTED" if self.loop_suspected else "normal"
        return (f"edge +{self.edge_growth}, transit +{self.transit_growth} "
                f"(x{self.amplification:.1f}) -> {verdict}")


class LoopDetector:
    """Detects circulating traffic from consecutive consistent snapshots.

    Every packet a host injects traverses at most ``max_path_hops``
    switch ingress units; if transit arrivals grow faster than
    ``edge growth x max_path_hops`` (plus slack), packets are revisiting
    switches — a forwarding loop.
    """

    def __init__(self, network: Network, max_path_hops: Optional[int] = None,
                 slack: float = 1.5) -> None:
        self.network = network
        if max_path_hops is None:
            # Hop bound from the topology: switch count is a safe cap
            # for any loop-free path.
            max_path_hops = max(2, len(network.switches))
        self.max_path_hops = max_path_hops
        self.slack = slack

    def _ingress_totals(self, snapshot: GlobalSnapshot) -> tuple[int, int]:
        edge = transit = 0
        for unit, value, *_ in snapshot.rows():
            if unit.direction != Direction.INGRESS:
                continue
            peer, kind = self.network.peer_of_port(unit.device, unit.port)
            if kind is NodeKind.HOST:
                edge += value
            else:
                transit += value
        return edge, transit

    def compare(self, before: GlobalSnapshot,
                after: GlobalSnapshot) -> LoopVerdict:
        if before.epoch >= after.epoch:
            raise ValueError("snapshots must be in epoch order")
        edge0, transit0 = self._ingress_totals(before)
        edge1, transit1 = self._ingress_totals(after)
        edge_growth = edge1 - edge0
        transit_growth = transit1 - transit0
        bound = max(edge_growth, 0) * self.max_path_hops * self.slack
        # A quiet network with growing transit is the clearest signature;
        # require some absolute growth so idle noise never triggers.
        suspected = transit_growth > max(bound, 10)
        amplification = (transit_growth / edge_growth
                         if edge_growth > 0 else float("inf")
                         if transit_growth > 0 else 0.0)
        return LoopVerdict(edge_growth=edge_growth,
                           transit_growth=transit_growth,
                           amplification=amplification,
                           loop_suspected=suspected)

    def scan(self, snapshots: Sequence[GlobalSnapshot]) -> list[LoopVerdict]:
        ordered = sorted(snapshots, key=lambda s: s.epoch)
        return [self.compare(a, b) for a, b in zip(ordered, ordered[1:])]
