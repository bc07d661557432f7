"""Space-parallel simulation: shards, boundary links, and the
conservative coordinator.

A large fabric is split at link boundaries into *shards*
(:func:`repro.sim.network.partition_topology`), each wrapped in its own
:class:`~repro.sim.engine.Simulator` inside a scoped
:class:`~repro.sim.network.Network`.  Cut links are replaced by
:class:`BoundaryLink` stubs that capture transmissions as timestamped
items instead of delivering them locally; one coordinator,
:class:`ShardRunner`, runs the shards in conservative time-windowed
rounds and exchanges the captured batches between the shards'
:class:`ShardWorker` objects, all in this process.

**Why this is safe** — the paper's system model (§4.1) is FIFO channels
with fixed propagation delay, which is exactly the classic conservative
PDES lookahead argument: let ``L`` be the minimum propagation delay over
all *cut* links and ``minN`` the earliest pending event across all
shards at the start of a round.  Every event executed during the round
has ``t >= minN``, so any packet captured at a boundary arrives at
``t + propagation >= minN + L``.  The round's horizon is
``min(minN + L, until + 1)``, hence every cross-shard arrival lands at
or after the horizon every shard has already reached — never in a
shard's past.  Control-plane messages that cross shards (record
shipping, initiation fan-out) ride the same transport and reserve at
least ``L`` of latency on top of whatever management-plane latency the
sender sampled locally, so they obey the same bound.

**Why this is deterministic** — each round is a barrier: the coordinator
waits for every shard, then sorts each destination's inbound items by
``(deliver_at, source shard id, per-source sequence)`` before the shard
injects them in that order.  Injection order assigns engine sequence
numbers, and the engine breaks timestamp ties by sequence number, so the
composed execution is a pure function of (topology, config, shard
count) — independent of the order the coordinator steps the workers
in.  ``shards=1`` skips all of this and runs the plain path, bit-identical
to an unsharded :class:`~repro.sim.network.Network` (the golden-trace
test pins this).

See docs/SHARDING.md for the full contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any, Optional

from repro.sim.channel import Link, LossModel
from repro.sim.engine import Simulator
from repro.sim.network import (Network, NetworkConfig, cut_links,
                               partition_topology)
from repro.sim.packet import Packet
from repro.topology.graph import LinkSpec, Topology

__all__ = [
    "BoundaryLink",
    "ShardPlan",
    "ShardRunner",
    "ShardScope",
    "ShardWorker",
]

#: Transport item kinds: a data-plane packet crossing a cut link, and a
#: control-plane payload addressed to a named mailbox.
_PKT = "pkt"
_CTRL = "ctrl"

#: A transport item: (kind, key, deliver_at, src_shard, src_seq, payload)
#: where key is a cut-link name (_PKT) or a mailbox name (_CTRL).
TransportItem = tuple[str, str, int, int, int, Any]


@dataclass(frozen=True)
class ShardPlan:
    """The deterministic partition of one topology into shards."""

    num_shards: int
    #: node name -> shard id, covering every switch and host.
    assignment: Mapping[str, int]
    #: Links whose endpoints live in different shards, in topology order.
    cut: tuple[LinkSpec, ...]
    #: Conservative lookahead: the minimum propagation delay over the
    #: cut links — the width floor of every coordination window.
    lookahead_ns: int

    @classmethod
    def for_topology(cls, topology: Topology, num_shards: int) -> "ShardPlan":
        assignment = partition_topology(topology, num_shards)
        cut = tuple(cut_links(topology, assignment))
        if num_shards > 1:
            if not cut:
                raise ValueError(
                    "partition produced no cut links; topology is "
                    "disconnected across shards in a degenerate way")
            lookahead = min(spec.propagation_ns for spec in cut)
            if lookahead < 1:
                raise ValueError(
                    "cut links must have positive propagation delay to "
                    "serve as conservative lookahead")
        else:
            lookahead = 0
        return cls(num_shards=num_shards, assignment=dict(assignment),
                   cut=cut, lookahead_ns=lookahead)

    def link_shards(self) -> dict[str, tuple[int, int]]:
        """Cut-link name -> (shard of endpoint a, shard of endpoint b)."""
        return {f"{s.a}-{s.b}": (self.assignment[s.a], self.assignment[s.b])
                for s in self.cut}


class BoundaryLink(Link):
    """One shard's stub for a cut link.

    Only the local endpoint is attached.  :meth:`transmit` applies the
    link's up/loss state exactly like a real link, then *captures* the
    packet with its computed arrival time instead of scheduling local
    delivery; the coordinator carries the captured batch to the peer
    shard, whose twin stub injects it.  Capture preserves the FIFO
    floor under latency-spike faults, so the cross-shard direction obeys
    the same monotone-delivery guarantee as :meth:`Link._spiked_delay`.
    """

    def __init__(self, sim: Simulator, spec: LinkSpec,
                 loss: Optional[LossModel] = None) -> None:
        super().__init__(sim, spec.bandwidth_bps, spec.propagation_ns,
                         loss=loss, name=f"{spec.a}-{spec.b}", fused=False)
        self._outbox: list[tuple[int, Packet]] = []
        self._out_floor = 0

    def transmit(self, sender: object, packet: Packet,
                 seq: object = None) -> bool:
        if not self._up:
            self.packets_dropped += 1
            return False
        if not self._lossless and self._loss.should_drop(packet):
            self.packets_dropped += 1
            return False
        at = self.sim.now + self.propagation_ns + self._extra_delay_ns
        if at < self._out_floor:
            at = self._out_floor  # FIFO under a draining latency spike
        self._out_floor = at
        self._outbox.append((at, packet))
        return True

    def drain(self) -> list[tuple[int, Packet]]:
        """Take and clear the captured (deliver_at, packet) batch."""
        out = self._outbox
        self._outbox = []
        return out

    def inject(self, deliver_at: int, packet: Packet) -> None:
        """Schedule delivery of an inbound cross-shard packet to the
        local endpoint (called in coordinator-merged order)."""
        if self._rx[0] is None:
            raise RuntimeError(f"boundary link {self.name!r} has no "
                               "local endpoint")
        self.sim.inject_at(deliver_at, self._deliver, 0, packet)


class ShardScope:
    """The :class:`~repro.sim.network.NetworkScope` of one shard: owns
    the nodes assigned to it and materialises cut links as
    :class:`BoundaryLink` stubs."""

    def __init__(self, plan: ShardPlan, shard_id: int) -> None:
        if not 0 <= shard_id < plan.num_shards:
            raise ValueError(f"shard_id {shard_id} out of range")
        self.plan = plan
        self.shard_id = shard_id
        #: cut-link name -> local stub, in topology link order.
        self.boundary_links: dict[str, BoundaryLink] = {}

    def owns(self, name: str) -> bool:
        return self.plan.assignment[name] == self.shard_id

    def boundary_link(self, sim: Simulator, spec: LinkSpec,
                      loss: Optional[LossModel] = None) -> Link:
        link = BoundaryLink(sim, spec, loss=loss)
        self.boundary_links[link.name] = link
        return link

    def remote_snapshot_enabled(self, name: str) -> bool:
        # Sharded deployments are full deployments: every switch across
        # every shard is snapshot-enabled, so cut-link egresses keep the
        # header on.  (Partial deployment composes with sharding only
        # when the boundary coincides with a shard, which nothing needs
        # yet.)
        return True


class ShardWorker:
    """One shard: a scoped :class:`Network` plus the transport glue.

    ``setup`` (if given) runs at construction with the worker as first
    argument; it installs workloads/deployments, registers control-plane
    mailboxes, and may return a zero-argument *finish* callable whose
    result :meth:`finish_run` returns after the run.
    """

    def __init__(self, topology: Topology, config: Optional[NetworkConfig],
                 plan: ShardPlan, shard_id: int,
                 setup: Optional[Callable[..., Any]] = None,
                 setup_args: Sequence[Any] = (),
                 busy_clock: Optional[Callable[[], float]] = None) -> None:
        self.plan = plan
        self.shard_id = shard_id
        #: Injected wall-clock (e.g. ``time.perf_counter`` from the perf
        #: layer); when set, :attr:`busy_s` accumulates the seconds this
        #: shard spent computing (vs waiting on the coordinator) — the
        #: per-shard critical-path measurement of the scaling benchmark.
        #: Injected rather than imported so simulation code stays free of
        #: wall-clock reads (DET002); never feeds back into event order.
        self._busy_clock = busy_clock
        self.busy_s = 0.0
        if plan.num_shards == 1:
            # The single-shard fast path *is* the existing single-process
            # path: a plain unscoped Network, bit-identical event stream.
            self.scope: Optional[ShardScope] = None
            self.network = Network(topology, config)
        else:
            self.scope = ShardScope(plan, shard_id)
            self.network = Network(topology, config, scope=self.scope)
        self.mailboxes: dict[str, Callable[[Any], None]] = {}
        self._ctrl_out: list[tuple[str, int, Any]] = []
        self._seq = 0
        self._finish: Callable[[], Any] = lambda: None
        if setup is not None:
            finish = setup(self, *setup_args)
            if finish is not None:
                self._finish = finish

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    # ------------------------------------------------------------------
    # Control-plane transport
    # ------------------------------------------------------------------
    def register_mailbox(self, name: str,
                         handler: Callable[[Any], None]) -> None:
        """Register a cross-shard control-plane destination.  Mailbox
        names must be globally unique; register them during ``setup`` —
        the coordinator learns the routing table once, at startup."""
        if name in self.mailboxes:
            raise ValueError(f"mailbox {name!r} already registered")
        self.mailboxes[name] = handler

    def send_ctrl(self, mailbox: str, payload: Any,
                  extra_ns: int = 0) -> None:
        """Send ``payload`` to a (possibly remote) mailbox.

        ``extra_ns`` is whatever latency the sender already sampled
        (e.g. a management-plane delay); the transport reserves at least
        the plan's lookahead so the delivery always lands at or beyond
        the next coordination horizon.
        """
        at = self.sim.now + max(int(extra_ns), self.plan.lookahead_ns)
        self._ctrl_out.append((mailbox, at, payload))

    # ------------------------------------------------------------------
    # Coordinator protocol
    # ------------------------------------------------------------------
    def run_horizon(self, horizon: int) -> int:
        if self._busy_clock is None:
            return self.sim.run_horizon(horizon)
        started = self._busy_clock()
        try:
            return self.sim.run_horizon(horizon)
        finally:
            self.busy_s += self._busy_clock() - started

    def drain(self) -> list[TransportItem]:
        """Collect everything captured since the last round, stamped
        with this shard's monotone per-item sequence."""
        items: list[TransportItem] = []
        if self.scope is not None:
            for name, link in self.scope.boundary_links.items():
                for at, packet in link.drain():
                    items.append((_PKT, name, at, self.shard_id,
                                  self._seq, packet))
                    self._seq += 1
        for mailbox, at, payload in self._ctrl_out:
            items.append((_CTRL, mailbox, at, self.shard_id,
                          self._seq, payload))
            self._seq += 1
        self._ctrl_out = []
        return items

    def inject(self, items: Iterable[TransportItem]) -> None:
        """Inject coordinator-merged inbound items, in the given order
        (the order *is* the deterministic tie-break)."""
        sim = self.sim
        for kind, key, at, src, _seq, payload in items:
            if at < sim.now:
                raise RuntimeError(
                    f"lookahead violated: {kind} item {key!r} from shard "
                    f"{src} due at {at}, shard {self.shard_id} is at "
                    f"{sim.now}")
            if kind == _PKT:
                assert self.scope is not None
                self.scope.boundary_links[key].inject(at, payload)
            else:
                sim.inject_at(at, self.mailboxes[key], payload)

    def finish_run(self, until: int) -> Any:
        """The finish pass: run to ``until``; -> ``finish()``."""
        self.network.run(until=until)
        return self._finish()


# ----------------------------------------------------------------------
# Deterministic merge
# ----------------------------------------------------------------------

def _merge_key(item: TransportItem) -> tuple[int, int, int]:
    # (deliver_at, src shard, per-source seq) — a total order, so the
    # per-destination merge is independent of arrival order.
    return (item[2], item[3], item[4])


def _route(items: list[TransportItem],
           link_shards: Mapping[str, tuple[int, int]],
           mailbox_homes: Mapping[str, int]) -> dict[int, list[TransportItem]]:
    """Group outbound items by destination shard and sort each group by
    the deterministic merge key."""
    per: dict[int, list[TransportItem]] = {}
    for item in items:
        kind, key, _at, src = item[0], item[1], item[2], item[3]
        if kind == _PKT:
            a_shard, b_shard = link_shards[key]
            dest = b_shard if src == a_shard else a_shard
        else:
            try:
                dest = mailbox_homes[key]
            except KeyError:
                raise KeyError(f"no shard registered mailbox {key!r} "
                               f"(sent by shard {src})") from None
        per.setdefault(dest, []).append(item)
    for group in per.values():
        group.sort(key=_merge_key)
    return per


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------

class ShardRunner:
    """The coordinator: one round loop over the shards' workers, all in
    this process and stepped in ``order`` (the sequence the equivalence
    matrix permutes).  :meth:`run` may be repeated with a later
    ``until``; workers may be scheduled into between runs.
    """

    def __init__(self, topology: Topology,
                 config: Optional[NetworkConfig] = None, *,
                 shards: int = 2,
                 setup: Optional[Callable[..., Any]] = None,
                 setup_args: Sequence[Any] = (),
                 order: Optional[Sequence[int]] = None,
                 busy_clock: Optional[Callable[[], float]] = None) -> None:
        self.plan = plan = ShardPlan.for_topology(topology, shards)
        self._order = list(range(plan.num_shards) if order is None else order)
        if sorted(self._order) != list(range(plan.num_shards)):
            raise ValueError(f"order must be a permutation of "
                             f"0..{plan.num_shards - 1}")
        self._link_shards = plan.link_shards()
        self.workers = [ShardWorker(topology, config, plan, shard_id,
                                    setup, setup_args, busy_clock)
                        for shard_id in range(plan.num_shards)]
        self._mailbox_homes: dict[str, int] = {}
        for shard_id, worker in enumerate(self.workers):
            for name in worker.mailboxes:
                if name in self._mailbox_homes:
                    raise ValueError(
                        f"mailbox {name!r} registered by more than one "
                        f"shard ({self._mailbox_homes[name]} and "
                        f"{shard_id})")
                self._mailbox_homes[name] = shard_id
        self.rounds = 0

    def run(self, until: int) -> list[Any]:
        """Run every shard to ``until``; returns the per-shard ``finish``
        results in shard order."""
        workers = [self.workers[shard_id] for shard_id in self._order]
        while self.plan.num_shards > 1:
            # Routed items are already injected, so each shard's next
            # event counts them; read afresh, it also sees whatever the
            # caller scheduled into a worker between runs.
            first = min((t for w in self.workers
                         if (t := w.sim.peek_time()) is not None),
                        default=None)
            if first is None or first > until:
                break
            horizon = min(first + self.plan.lookahead_ns, until + 1)
            outbound: list[TransportItem] = []
            for worker in workers:
                worker.run_horizon(horizon)
                outbound.extend(worker.drain())
            # Each shard's batch goes in as soon as it is routed: items
            # lie at or past the horizon, so none lands in a shard's past.
            routed = _route(outbound, self._link_shards, self._mailbox_homes)
            for shard_id, items in routed.items():
                self.workers[shard_id].inject(items)
            self.rounds += 1
        results: list[Any] = [None] * len(self.workers)
        for shard_id in self._order:
            results[shard_id] = self.workers[shard_id].finish_run(until)
        return results


# bench/ constructs this name and spans vars(InProcessShardRunner)["run"].
InProcessShardRunner = ShardRunner

