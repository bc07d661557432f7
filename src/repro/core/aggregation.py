"""Hierarchical snapshot fabric: the in-network aggregation tree.

The observer-unicast design the paper evaluates services one management
message *per unit record per epoch* at a single host: the observer's
intake is exactly the serial control-plane bottleneck of Figure 10, and
it caps the snapshot rate at the same ~hundreds-of-Hz knee no matter how
fast the simulator core gets.  This module breaks that knee with the
classic in-network reduction: a configurable-degree spanning tree over
the deployed switches through which

* **initiation fans out** — the observer sends *one* message to the tree
  root; every relay registers the wall-clock instant with its own
  control plane and forwards it to its children, so an N-device fan-out
  costs the observer O(1) sends and each relay O(degree);
* **completion aggregates bottom-up** — each switch hosts an
  :class:`AggregationAgent` that collects its own control plane's unit
  records plus its children's aggregates, combining them into one
  upward :class:`AggregateMessage` per epoch (plus timed partial
  flushes for liveness), so the observer services O(root fan-out)
  messages per epoch instead of O(units);
* **progress floors reduce along the way** — every upward message
  carries the MIN over its subtree of the control planes' finalized
  epochs (the gating-min reduction), giving the observer a fabric-wide
  progress floor without polling anyone.

Cost model.  Relay messages land in a bounded, serially-serviced
:class:`RelayChannel` — same shape as the control plane's notification
channel — whose per-message cost is one CPU wakeup
(:data:`RELAY_SERVICE_NS`) plus a per-record decode/combine cost
(:data:`RELAY_PER_RECORD_NS`).
The per-record cost is far below the notification path's 110 µs because
a relay handles pre-parsed records in batch (the same amortisation
argument as the digest transport's per-record decode, without its flush
latency on the *notification* path).  ``degree=0`` is the flat-modeled
baseline: no tree, unicast initiation, but every record crosses the
observer's modeled intake channel as its own message — which is what an
honest accounting of the paper's observer looks like, and what the
``fig10-agg`` experiment shows collapsing as the fabric grows.

Determinism.  Tree construction is a pure function of (topology,
participating switches, degree) with sorted-name tie-breaks, exactly
like :func:`repro.sim.network.partition_topology`; agents use no RNG at
all (relay costs are deterministic), so the aggregated event stream is
reproducible and shard-count independent.  With ``aggregation=None``
the deployment wires nothing from this module and the event stream is
bit-identical to the flat design (the golden-trace guarantee).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Optional

from repro.core.control_plane import SwitchControlPlane, UnitSnapshotRecord
from repro.sim.engine import Simulator, US, MS, check_minimums
from repro.sim.server import SerialServer
from repro.topology.graph import NodeKind, Topology

__all__ = [
    "AggregateMessage",
    "AggregationAgent",
    "AggregationConfig",
    "AggregationFabric",
    "AggregationTree",
    "RelayChannel",
]

#: CPU wakeup cost of servicing one relay message.
RELAY_SERVICE_NS = 150 * US
#: Per-record decode/combine cost within a relay message.
RELAY_PER_RECORD_NS = 4 * US
#: Relay receive-buffer capacity (messages); overflow drops.  A test
#: shrinks one channel's ``capacity``.
RELAY_BUFFER_CAPACITY = 4096
#: Forward a partial (incomplete) aggregate this long after records
#: start waiting on silent children/local units.
RELAY_FLUSH_TIMEOUT_NS = 25 * MS


@dataclass
class AggregationConfig:
    """Shape of the aggregation fabric.

    ``degree`` selects the fabric: ``0`` is the flat-modeled baseline
    (no tree; unicast initiation; one intake message per unit record),
    ``>= 1`` builds a spanning tree with at most that many children per
    node.  ``None`` at the deployment level disables this module
    entirely (and keeps the event stream bit-identical to the
    pre-aggregation design).
    """

    #: Max children per tree node (0 = flat-modeled unicast baseline).
    degree: int = 4

    def __post_init__(self) -> None:
        check_minimums(self, {"degree": 0})


@dataclass
class AggregateMessage:
    """One upward hop's worth of aggregated snapshot progress."""

    #: Sending agent's switch (``tree.parent[source]`` receives it).
    source: str
    epoch: int
    #: Records from ``source``'s subtree not yet forwarded upward, all
    #: of ``epoch``.
    records: list[UnitSnapshotRecord]
    #: MIN over the subtree of each control plane's finalized epoch —
    #: the gating-min progress floor, reduced at every hop.
    min_finalized: int
    #: True when every unit in ``source``'s subtree reported ``epoch``.
    complete: bool


class AggregationTree:
    """A deterministic bounded-degree spanning tree over switches.

    Construction mirrors :func:`~repro.sim.network.partition_topology`:
    the root is the highest-switch-degree participant (sorted name as
    tie-break), BFS adoption follows topology edges taking sorted
    neighbors while fan-out lasts, and any switches BFS cannot reach
    under the degree cap (disconnected, or fenced off by full nodes)
    attach in sorted order to the earliest discovered node with spare
    capacity.  Pure function of (topology, participants, degree) — no
    hashes, no set-iteration order.
    """

    def __init__(self, root: str, parent: dict[str, Optional[str]],
                 children: dict[str, list[str]], order: list[str]) -> None:
        self.root = root
        self.parent = parent
        self.children = children
        #: Discovery order (root first) — the attachment scan order.
        self.order = order

    @classmethod
    def build(cls, topology: Topology, switches: list[str],
              degree: int) -> "AggregationTree":
        if degree < 1:
            raise ValueError(f"tree degree must be >= 1, got {degree}")
        participants = sorted(switches)
        if not participants:
            raise ValueError("cannot build an aggregation tree over zero "
                             "switches")
        member = set(participants)

        def switch_degree(name: str) -> int:
            return sum(1 for n in topology.neighbors(name)
                       if topology.kind(n) is NodeKind.SWITCH)

        root = max(participants, key=switch_degree)
        parent: dict[str, Optional[str]] = {root: None}
        children: dict[str, list[str]] = {name: [] for name in participants}
        order = [root]
        visited = {root}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for neighbor in sorted(topology.neighbors(node)):
                if len(children[node]) >= degree:
                    break
                if neighbor not in member or neighbor in visited:
                    continue
                parent[neighbor] = node
                children[node].append(neighbor)
                visited.add(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
        # Leftovers (degree-capped frontier or disconnected components)
        # attach to the earliest discovered node with spare fan-out;
        # each attachment adds capacity, so this always terminates.
        for name in participants:
            if name in visited:
                continue
            host = next(n for n in order if len(children[n]) < degree)
            parent[name] = host
            children[host].append(name)
            visited.add(name)
            order.append(name)
        return cls(root=root, parent=parent, children=children, order=order)

    def ancestors(self, name: str) -> list[str]:
        """Chain from ``name``'s parent up to the root."""
        chain: list[str] = []
        node = self.parent[name]
        while node is not None:
            chain.append(node)
            node = self.parent[node]
        return chain

    def depth(self) -> int:
        """Longest root-to-leaf hop count."""
        return max(len(self.ancestors(name)) for name in self.order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AggregationTree(root={self.root!r}, "
                f"nodes={len(self.order)}, depth={self.depth()})")


class RelayChannel(SerialServer[AggregateMessage]):
    """A bounded, serially-serviced aggregate-message queue.

    The relay CPU analogue of the control plane's
    :class:`~repro.core.control_plane.NotificationChannel`: one wakeup
    per message plus a per-record combine cost, deterministic (no
    jitter — relays batch pre-parsed records, they do not cross the
    Thrift/driver path the notification jitter models).
    """

    def __init__(self, sim: Simulator,
                 handler: Callable[[AggregateMessage], None]) -> None:
        super().__init__(sim, RELAY_BUFFER_CAPACITY, handler)
        self.records_in = 0

    def deliver(self, message: AggregateMessage) -> bool:
        admitted = super().deliver(message)
        if admitted:
            self.records_in += len(message.records)
        return admitted

    # Spelled out here: the benchmark's tracer resolves span points by vars().
    _finish = SerialServer._finish

    def _begin(self, message: AggregateMessage) -> int:
        return max(1, RELAY_SERVICE_NS +
                   len(message.records) * RELAY_PER_RECORD_NS)


class _EpochAggregate:
    """One agent's in-progress combine for one epoch."""

    __slots__ = ("records", "local_seen", "children_complete", "flush_event")

    def __init__(self) -> None:
        self.records: list[UnitSnapshotRecord] = []
        self.local_seen = 0
        self.children_complete: set[str] = set()
        self.flush_event = None


class AggregationAgent:
    """The per-switch relay of the aggregation tree.

    Sits beside the switch's control plane (same CPU — crashing the CP
    takes the agent down with it): collects the CP's finalized unit
    records at zero extra modeled cost (they are produced on this very
    CPU), services child aggregates through its :class:`RelayChannel`,
    and sends one combined :class:`AggregateMessage` per epoch to its
    tree parent — as soon as its subtree completes, or in timed partial
    flushes so one silent child never strands its siblings' records
    (a child's partial flush passes straight up: one timeout in all,
    not one per hop).
    Every record moves upward exactly once or is counted in
    :attr:`records_lost` where it dies: refused while the relay is down,
    flushed from its queue or its in-progress combines by a crash, or
    in service at the relay when the crash came.
    """

    def __init__(self, sim: Simulator, name: str,
                 tree: AggregationTree) -> None:
        self.sim = sim
        self.name = name
        self.tree = tree
        self.parent = tree.parent[name]
        self.children = tuple(tree.children[name])
        #: Unit records this switch's own CP contributes per epoch
        #: (installed by the deployment: 2 per connected port).
        self.expected_local = 0
        #: The co-resident control plane (progress-floor source).
        self.control_plane: Optional[SwitchControlPlane] = None
        #: Upward sender (installed by the deployment: mgmt to the local
        #: parent agent, cross-shard mailbox, or the observer intake).
        self.send_up: Optional[Callable[[AggregateMessage], None]] = None
        #: Downward initiation forwarder: ``forward(child, epoch, at)``.
        self.forward_init: Optional[Callable[[str, int, int], None]] = None
        self.channel = RelayChannel(sim, self._on_message)
        self.channel.on_lost = self._on_lost_in_service
        self.online = True
        self.messages_sent = 0
        self.partial_flushes = 0
        self.records_forwarded = 0
        self.records_lost = 0
        self._child_min: dict[str, int] = {c: 0 for c in self.children}
        self._epochs: dict[int, _EpochAggregate] = {}
        #: Epochs this agent claimed complete, down to ``_completed_floor``
        #: (exclusive): below it the observer has settled every epoch.
        self._completed: set[int] = set()
        self._completed_floor = 0

    # ------------------------------------------------------------------
    # Initiation fan-out (observer -> root -> ... -> leaves)
    # ------------------------------------------------------------------
    def on_initiation(self, epoch: int, at_wall_ns: int) -> None:
        """Register a snapshot instant locally and relay it down the
        tree.  Initiation is wall-clock-addressed, so the per-hop relay
        latency only consumes observer lead time — it cannot skew the
        snapshot instant itself."""
        if not self.online:
            return  # observer retries fall back to unicast (§6 recovery)
        if self.control_plane is not None:
            self.control_plane.schedule_initiation(epoch, at_wall_ns)
        if self.forward_init is not None:
            for child in self.children:
                self.forward_init(child, epoch, at_wall_ns)

    # ------------------------------------------------------------------
    # Bottom-up combine
    # ------------------------------------------------------------------
    def on_local_record(self, record: UnitSnapshotRecord) -> None:
        """Sink for the co-resident control plane's finalized records."""
        if not self.online:
            self.records_lost += 1
            return
        aggregate = self._aggregate(record.epoch)
        aggregate.records.append(record)
        aggregate.local_seen += 1
        self._after_update(record.epoch, aggregate)

    def _on_message(self, message: AggregateMessage) -> None:
        current = self._child_min.get(message.source, 0)
        if message.min_finalized > current:
            self._child_min[message.source] = message.min_finalized
        if not message.complete or message.epoch in self._completed or (
                message.epoch <= self._completed_floor
                and message.epoch not in self._epochs):
            # A child's partial aggregate (it waited out one flush
            # timeout already), a straggler after our own completion
            # claim (e.g. a child restarted mid-epoch), or one for an
            # epoch the ID window has left behind: pass the records
            # straight up, so nothing waits a timeout per hop or is
            # stranded at an intermediate hop.
            if message.records:
                self._send(message.epoch, list(message.records),
                           complete=False)
            return
        aggregate = self._aggregate(message.epoch)
        aggregate.records.extend(message.records)
        if message.complete:
            aggregate.children_complete.add(message.source)
        self._after_update(message.epoch, aggregate)

    def _on_lost_in_service(self, message: AggregateMessage) -> None:
        self.records_lost += len(message.records)

    def _aggregate(self, epoch: int) -> _EpochAggregate:
        aggregate = self._epochs.get(epoch)
        if aggregate is None:
            aggregate = self._epochs[epoch] = _EpochAggregate()
        return aggregate

    def _after_update(self, epoch: int, aggregate: _EpochAggregate) -> None:
        if (aggregate.local_seen >= self.expected_local
                and len(aggregate.children_complete) == len(self.children)):
            if aggregate.flush_event is not None:
                aggregate.flush_event.cancel()
            records = aggregate.records
            del self._epochs[epoch]
            self._note_completed(epoch)
            self._send(epoch, records, complete=True)
            return
        if aggregate.records and aggregate.flush_event is None:
            aggregate.flush_event = self.sim.schedule(
                RELAY_FLUSH_TIMEOUT_NS, self._flush, epoch)

    def _note_completed(self, epoch: int) -> None:
        """Remember a completion claim; past two ID windows of them, drop
        those a window behind the newest (amortised O(1) per epoch)."""
        completed = self._completed
        completed.add(epoch)
        if self.control_plane is None:
            return
        window = self.control_plane.ids.window
        if len(completed) > 2 * window:
            floor = max(completed) - window
            self._completed = {e for e in completed if e > floor}
            self._completed_floor = max(self._completed_floor, floor)

    def _flush(self, epoch: int) -> None:
        """Partial-aggregate liveness: forward what has accumulated even
        though the subtree is incomplete, so a dead child delays only its
        own records (and the observer's device timeout can attribute the
        silence to the right relay)."""
        aggregate = self._epochs.get(epoch)
        if aggregate is None:
            return
        aggregate.flush_event = None
        if not aggregate.records or not self.online:
            return
        records = aggregate.records
        aggregate.records = []
        self.partial_flushes += 1
        self._send(epoch, records, complete=False)

    def _send(self, epoch: int, records: list[UnitSnapshotRecord],
              complete: bool) -> None:
        if not self.online or self.send_up is None:
            self.records_lost += len(records)
            return
        self.messages_sent += 1
        self.records_forwarded += len(records)
        self.send_up(AggregateMessage(
            source=self.name, epoch=epoch, records=records,
            min_finalized=self.min_finalized(), complete=complete))

    def min_finalized(self) -> int:
        """The gating-min progress floor of this subtree: MIN of the
        local CP's finalized epoch and every child's last reported
        floor (0 for children never heard from — an unheard subtree
        caps claimed progress, by design)."""
        local = (self.control_plane.min_finalized_epoch()
                 if self.control_plane is not None else 0)
        if not self.children:
            return local
        return min(local, min(self._child_min[c] for c in self.children))

    # ------------------------------------------------------------------
    # Crash coupling (driven by SwitchControlPlane.crash/restart)
    # ------------------------------------------------------------------
    def set_online(self, online: bool) -> None:
        """The relay shares the CP's CPU: a CP crash kills the agent's
        volatile aggregation state and its receive queue; restart comes
        back empty (records lost while down are the silent-relay case
        the observer attributes at exclusion time)."""
        if online == self.online:
            return
        self.online = online
        self.channel.online = online
        if not online:
            self.records_lost += sum(len(message.records) for message
                                     in self.channel.flush_queued())
            for aggregate in self._epochs.values():
                self.records_lost += len(aggregate.records)
                if aggregate.flush_event is not None:
                    aggregate.flush_event.cancel()
            self._epochs.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AggregationAgent({self.name!r}, parent={self.parent!r}, "
                f"children={len(self.children)}, online={self.online})")


@dataclass
class AggregationFabric:
    """The deployment-level handle on one wired aggregation fabric."""

    config: AggregationConfig
    #: None in flat-modeled mode (``degree=0``).
    tree: Optional[AggregationTree]
    #: Locally hosted agents by switch name (a shard sees only its own).
    agents: dict[str, AggregationAgent] = field(default_factory=dict)
    #: The observer-side intake channel (None on non-observer shards).
    intake: Optional[RelayChannel] = None

    def stats(self) -> dict[str, int]:
        """Fabric health counters, aggregated across local agents and
        the intake — the ``fig10-agg`` sustained-rate criteria."""
        out = {"messages": 0, "dropped": 0, "backlog": 0, "max_backlog": 0,
               "records_forwarded": 0, "records_lost": 0,
               "partial_flushes": 0, "intake_processed": 0,
               "intake_backlog": 0, "intake_max_backlog": 0,
               "intake_dropped": 0}
        for name in sorted(self.agents):
            agent = self.agents[name]
            out["messages"] += agent.channel.processed
            out["dropped"] += agent.channel.dropped
            out["backlog"] += agent.channel.backlog
            out["max_backlog"] = max(out["max_backlog"],
                                     agent.channel.max_backlog)
            out["records_forwarded"] += agent.records_forwarded
            out["records_lost"] += agent.records_lost
            out["partial_flushes"] += agent.partial_flushes
        if self.intake is not None:
            out["intake_processed"] = self.intake.processed
            out["intake_backlog"] = self.intake.backlog
            out["intake_max_backlog"] = self.intake.max_backlog
            out["intake_dropped"] = self.intake.dropped
        return out
