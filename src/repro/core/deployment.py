"""Deployment wiring: enable Speedlight on a simulated network.

:class:`SpeedlightDeployment` performs the wiring an operator (plus the
P4 compiler) performs on a real network:

* instantiate the chosen metric counter on every processing unit of
  every participating switch;
* attach a snapshot agent (hardware-constrained
  :class:`~repro.core.dataplane.SpeedlightUnit` by default, or the
  idealised :class:`~repro.core.ideal.IdealUnit` for ablations) to each
  unit;
* start one :class:`~repro.core.control_plane.SwitchControlPlane` per
  switch, registered with the shared PTP service's clock for that
  switch;
* create the :class:`~repro.core.observer.SnapshotObserver` and connect
  record shipping over the management plane;
* compute each unit's **gating channels** (whose Last Seen entries gate
  completion when channel state is collected) from the topology, and
  configure header stripping at deployment boundaries (partial
  deployment, §10).

Gating: an ingress unit gates on its external channel only when the
link peer is a snapshot-enabled switch (host channels carry no tagged
in-flight packets, so they are excluded — the §6 "removal of
non-utilized upstream neighbors" knob, applied automatically); an
egress unit gates on every feasible ingress port of its switch (a
packet never hairpins out the port it arrived on).

The same class wires a :class:`~repro.sim.network.Network` and one
shard's slice of a space-parallel run (a
:class:`~repro.sim.shard.ShardWorker`; docs/SHARDING.md).  Every
observer / control-plane / relay edge is built by one routing primitive,
:meth:`SpeedlightDeployment._edge`, which decides *at wiring time*
whether the receiving handler lives here (management plane, as ever) or
behind a mailbox on another shard (:mod:`repro.core.sharded`); on a
``Network`` or a one-shard plan every handler is local.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping
from functools import partial
from typing import Any, Optional, Union

from repro.core.aggregation import (AggregateMessage, AggregationAgent,
                                    AggregationConfig, AggregationFabric,
                                    AggregationTree, RelayChannel)
from repro.core.control_plane import (ControlPlaneConfig, SwitchControlPlane,
                                      UnitSnapshotRecord)
from repro.core.dataplane import SpeedlightUnit
from repro.core.ideal import IdealUnit
from repro.core.ids import IdSpace
from repro.core.observer import ObserverConfig, SnapshotObserver
from repro.core.sharded import (AGG_OBSERVER_MAILBOX, OBSERVER_MAILBOX,
                                OBSERVER_SHARD, RemoteControlPlane,
                                agg_init_mailbox, agg_mailbox, cp_mailbox)
from repro.counters import metric
from repro.sim.engine import check_minimums
from repro.sim.network import Network
from repro.sim.shard import ShardWorker
from repro.sim.switch import Direction, EXTERNAL_CHANNEL, UnitId
from repro.topology.graph import NodeKind

def _unpacked(handler: Callable[..., Any]) -> Callable[[tuple], None]:
    """A mailbox handler takes one payload; on the deployment's
    mailboxes that payload is always the handler's argument tuple."""
    return lambda args: handler(*args)


def _make_flat_sink(name: str, cp: SwitchControlPlane, send_root):
    """Flat-modeled (degree=0) record sink: every unit record crosses
    the observer intake as its own single-record message — the honest
    serial cost of the paper's unicast observer."""

    def ship(record: UnitSnapshotRecord) -> None:
        send_root(AggregateMessage(
            source=name, epoch=record.epoch, records=[record],
            min_finalized=cp.min_finalized_epoch(), complete=False))

    return ship


def merge_progress(
        tables: Iterable[Mapping[int, list[int]]]) -> dict[int, list[int]]:
    """Fold ``epoch -> [earliest_ns, latest_ns, count]`` tables (one per
    :attr:`SwitchControlPlane.progress`, or per shard) into one."""
    merged: dict[int, list[int]] = {}
    for table in tables:
        for epoch, (earliest, latest, count) in table.items():
            span = merged.get(epoch)
            if span is None:
                merged[epoch] = [earliest, latest, count]
            else:
                span[0] = min(span[0], earliest)
                span[1] = max(span[1], latest)
                span[2] += count
    return merged


def _checked_switches(network: Network, switches: list[str]) -> list[str]:
    """The partial-deployment subset, refused unless it names each
    switch of ``network`` at most once and at least one of them."""
    if not switches:
        raise ValueError("switches=[] deploys nothing; pass None for a "
                         "full deployment")
    seen: set[str] = set()
    for name in switches:
        if name in seen:
            raise ValueError(f"switches: {name!r} is listed twice")
        if name not in network.switches:
            what = "a host" if name in network.hosts else "unknown"
            raise ValueError(f"switches: {name!r} is {what}, not a switch")
        seen.add(name)
    return list(switches)


@dataclass
class DeploymentConfig:
    """The fields of a Speedlight deployment — the keywords of
    :func:`repro.core.deploy`, which is the one place it is built."""

    #: Metric name from :data:`repro.counters.METRICS`.
    metric: str = "packet_count"
    #: Collect channel state (in-flight packets)?  Requires an
    #: accumulator metric.
    channel_state: bool = False
    #: Snapshot-ID register ceiling; None disables wraparound (Table 1's
    #: plain "Packet Count" variant).
    max_sid: Optional[int] = 255
    #: Participating switches; None means all (partial deployment, §10).
    #: A list names each switch once and is never empty.
    switches: Optional[list[str]] = None
    #: Use the idealised Figure 3 units instead of Speedlight's
    #: hardware-constrained ones (ablation only; forces unbounded IDs).
    ideal_units: bool = False
    #: Per-switch control-plane knobs (probes, re-initiation, transport).
    control_plane: ControlPlaneConfig = field(default_factory=ControlPlaneConfig)
    #: Observer knobs (lead time, retries).
    observer: ObserverConfig = field(default_factory=ObserverConfig)
    #: Hierarchical snapshot fabric (repro.core.aggregation).  None — the
    #: default — wires nothing and keeps the flat unicast event stream
    #: bit-identical; ``AggregationConfig(degree=0)`` is the flat-modeled
    #: baseline (observer intake pays per-record service), ``degree>=1``
    #: builds the aggregation tree.
    aggregation: Optional[AggregationConfig] = None

    def __post_init__(self) -> None:
        # Three IDs is the least a wrapped window holds (IdSpace).
        check_minimums(self, {"max_sid": 3}, optional=("max_sid",))


class SpeedlightDeployment:
    """A fully wired Speedlight instance on a simulated network — or the
    per-shard slice of one.  Build it with :func:`repro.core.deploy`,
    the one constructor.

    ``target`` is a :class:`~repro.sim.network.Network` or, inside a
    shard's ``setup`` callable, its :class:`~repro.sim.shard.ShardWorker`.
    On shard 0 (:data:`~repro.core.sharded.OBSERVER_SHARD`) the
    deployment's :attr:`observer` is *the* observer — drive campaigns
    there; on other shards the observer exists but is inert, and
    :meth:`take_snapshot` / :meth:`schedule_campaign` refuse to run.
    """

    def __init__(self, target: Union[Network, ShardWorker],
                 config: DeploymentConfig) -> None:
        self.metric = metric(config.metric)
        #: The shard worker hosting this slice (None on a plain Network).
        self.worker = None if isinstance(target, Network) else target
        network = target if self.worker is None else self.worker.network
        self._sharded = (self.worker is not None
                         and self.worker.plan.num_shards > 1)
        #: True where :attr:`observer` is live — always, unless this is a
        #: non-zero shard of a multi-shard plan.
        self.is_observer_shard = (not self._sharded
                                  or self.worker.shard_id == OBSERVER_SHARD)
        if self._sharded:
            # In-flight accumulation gates on cross-switch Last Seen
            # state whose gating sets the per-shard slices cannot see
            # across the cut.  The clean protocol path (the §8 scaling
            # study) is exactly what sharding is for — bigger fabrics,
            # more switches.
            if config.channel_state:
                raise ValueError(
                    "channel state is not supported on a sharded "
                    "deployment (cross-shard gating sets are invisible "
                    "to the per-shard slices); run shards=1 or disable "
                    "channel_state")
            if config.switches is not None:
                raise ValueError(
                    "sharded deployments are full deployments; partial "
                    "deployment (§10) requires shards=1")
        self.network = network
        self.config = config
        if config.channel_state and self.metric.gauge:
            raise ValueError(
                f"metric {config.metric!r} is a gauge; channel state is "
                "meaningless for gauges — snapshot it without channel state "
                "(the paper's queue-depth example, §4.2)")
        if config.channel_state and self.metric.in_flight is None:
            raise ValueError(
                f"metric {config.metric!r} has no in-flight contribution "
                "rule; add one to its METRICS entry or disable channel "
                "state")
        #: The switches this deployment wires, in wiring order: the
        #: configured subset (partial deployment, §10) or every switch of
        #: the target — on a shard, that shard's own.
        self.switch_names: list[str] = (
            _checked_switches(network, config.switches)
            if config.switches is not None else sorted(network.switches))
        self.ids = IdSpace(None if config.ideal_units else config.max_sid)
        self.agents: dict[UnitId, object] = {}
        self.control_planes: dict[str, SwitchControlPlane] = {}
        self.observer = SnapshotObserver(network.sim, network.mgmt, self.ids,
                                         config.observer)
        self._participants = frozenset(self.switch_names)
        self.aggregation: Optional[AggregationFabric] = None
        #: Armed update driver (:mod:`repro.updates.driver`), attached by
        #: :func:`repro.core.deploy` when an update plan is given; None —
        #: the default — means no coordinated update is scheduled.
        self.update_driver = None
        self._deploy()
        self._wire_aggregation()
        network.refresh_header_stripping()

    # ------------------------------------------------------------------
    # Control-edge routing
    # ------------------------------------------------------------------
    def _edge(self, mailbox: str,
              handler: Optional[Callable[..., Any]]) -> Callable[..., None]:
        """The one routing primitive: wire the control edge into
        ``mailbox`` and return its ``send(*args)``.  ``handler`` is the
        edge's receiving end when that lives here — it is then also made
        reachable from the other shards, if there are any — and None
        when it lives on another shard.  Call once per mailbox.

        Either way one management-plane latency is sampled per message.
        The cross-shard leg then rides the batch transport, which
        enforces at least the plan's lookahead; initiations are
        wall-clock-addressed and records carry their own timestamps, so
        the longer delivery only eats lead time.
        """
        mgmt = self.network.mgmt
        if handler is None:
            worker = self.worker

            def send(*args: Any) -> None:
                worker.send_ctrl(mailbox, args,
                                 extra_ns=mgmt.one_way_latency_ns())

            return send
        if self._sharded:
            self.worker.register_mailbox(mailbox, _unpacked(handler))
        return partial(mgmt.send, handler)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _deploy(self) -> None:
        ship = self._edge(OBSERVER_MAILBOX,
                          self.observer.on_unit_record
                          if self.is_observer_shard else None)
        for name in self.switch_names:
            self._deploy_switch(name, ship)
        # Gating depends on which peers are enabled, so compute after all
        # switches have their agents attached.
        for name in self.switch_names:
            self._register_units(name)
        if not self.is_observer_shard:
            # The far end of the observer's RemoteControlPlane proxies.
            for name, cp in self.control_planes.items():
                self.worker.register_mailbox(
                    cp_mailbox(name), _unpacked(cp.schedule_initiation))
        elif self._sharded:
            self._register_remote_devices()

    def _deploy_switch(self, name: str,
                       ship: Callable[[UnitSnapshotRecord], None]) -> None:
        switch = self.network.switch(name)
        cp = SwitchControlPlane(
            switch, self.network.ptp.clocks[name], self.ids,
            channel_state=self.config.channel_state,
            config=self.config.control_plane,
            ship=ship,
            ideal_dataplane=self.config.ideal_units)
        self.control_planes[name] = cp
        for port_index in switch.connected_ports():
            port = switch.ports[port_index]
            for unit in (port.ingress, port.egress):
                counter = self.metric.counter(unit)
                unit.counters.add(self.config.metric, counter)
                agent = self._make_agent(unit, counter)
                unit.snapshot_agent = agent
                self.agents[unit.unit_id] = agent

    def _make_agent(self, unit, counter):
        switch = unit.switch
        if self.config.ideal_units:
            return IdealUnit(unit.unit_id, counter.read,
                             channel_state=self.config.channel_state,
                             notify=switch.send_notification,
                             in_flight_value_fn=self.metric.in_flight)
        return SpeedlightUnit(unit.unit_id, self.ids, counter.read,
                              channel_state=self.config.channel_state,
                              notify=switch.send_notification,
                              in_flight_value_fn=self.metric.in_flight)

    def _register_units(self, name: str) -> None:
        switch = self.network.switch(name)
        cp = self.control_planes[name]
        connected = switch.connected_ports()
        feasible = (self.network.feasible_channels(name)
                    if self.config.channel_state else set())
        units: list[UnitId] = []
        for port_index in connected:
            port = switch.ports[port_index]
            ingress = port.ingress.snapshot_agent
            egress = port.egress.snapshot_agent
            cp.register_unit(ingress, self._ingress_gating(name, port_index))
            cp.register_unit(egress, self._egress_gating(feasible, port_index))
            units += (ingress.unit_id, egress.unit_id)
        self.observer.register_device(name, cp, units)

    def _ingress_gating(self, switch_name: str, port: int) -> list[int]:
        if not self.config.channel_state:
            return []
        peer, kind = self.network.peer_of_port(switch_name, port)
        if kind is not NodeKind.SWITCH or peer not in self._participants:
            return []
        return [EXTERNAL_CHANNEL]

    def _egress_gating(self, feasible_channels, port: int) -> list[int]:
        """Channels whose Last Seen gates this egress's completion: every
        feasible ingress port — derived from the routing function so
        completion never gates on structurally idle channels (§6)."""
        if not self.config.channel_state:
            return []
        return sorted(p_in for (p_in, p_out) in feasible_channels
                      if p_out == port)

    def _register_remote_devices(self) -> None:
        """Give shard 0's observer the full device census: remote
        switches appear behind :class:`RemoteControlPlane` proxies with
        unit sets derived from the full topology (every builder connects
        every port, so the connected set is ``range(degree)``)."""
        topo = self.network.topology
        for name in topo.switches:
            if name in self.control_planes:
                continue
            proxy = RemoteControlPlane(name, self.worker)
            units = [UnitId(name, port, direction)
                     for port in range(topo.degree(name))
                     for direction in (Direction.INGRESS, Direction.EGRESS)]
            self.observer.register_device(name, proxy, units)

    # ------------------------------------------------------------------
    # Aggregation fabric (repro.core.aggregation)
    # ------------------------------------------------------------------
    def _wire_aggregation(self) -> None:
        """Wire the hierarchical snapshot fabric, when configured.

        Runs after :meth:`_deploy` (agents attach to existing control
        planes) and re-points each control plane's ``ship`` at the
        fabric, so records route through it from the next one on.

        Every shard builds the *same* tree from the full topology and
        hosts agents for its own switches only; construction is
        deterministic, so all shards agree on the tree without
        exchanging a bit.  Only the observer shard services root
        messages.
        """
        cfg = self.config.aggregation
        if cfg is None:
            return
        intake = None
        if self.is_observer_shard:
            intake = RelayChannel(self.network.sim, self.observer.on_aggregate)
        send_root = self._edge(AGG_OBSERVER_MAILBOX,
                               intake.deliver if intake is not None else None)
        if cfg.degree == 0:
            # Flat-modeled baseline: unicast initiation, but each record
            # crosses the observer's modeled intake as its own message.
            for name in sorted(self.control_planes):
                cp = self.control_planes[name]
                cp.ship = _make_flat_sink(name, cp, send_root)
            self.aggregation = AggregationFabric(config=cfg, tree=None,
                                                 intake=intake)
            return
        # The tree spans the whole logical deployment, not this slice
        # (sharded deployments are always full deployments).
        tree = AggregationTree.build(
            self.network.topology,
            sorted(self.network.topology.switches) if self._sharded
            else self.switch_names, cfg.degree)
        agents: dict[str, AggregationAgent] = {}
        for name in sorted(self.control_planes):
            cp = self.control_planes[name]
            agent = AggregationAgent(self.network.sim, name, tree)
            agent.control_plane = cp
            cp.agg_agent = agent
            agent.expected_local = 2 * len(
                self.network.switch(name).connected_ports())
            agents[name] = agent
            cp.ship = agent.on_local_record

        # Per relay, the edges into its two ends (upward aggregates into
        # its channel, downward initiations into its fan-out) — local
        # where this shard hosts the relay's agent.
        up_to = {name: self._edge(agg_mailbox(name),
                                  agents[name].channel.deliver
                                  if name in agents else None)
                 for name in tree.order}
        init_to = {name: self._edge(agg_init_mailbox(name),
                                    agents[name].on_initiation
                                    if name in agents else None)
                   for name in tree.order}

        def forward(device: str, epoch: int, at_wall_ns: int) -> None:
            init_to[device](epoch, at_wall_ns)

        for name in sorted(agents):
            parent = tree.parent[name]
            agents[name].send_up = (send_root if parent is None
                                    else up_to[parent])
            agents[name].forward_init = forward
        self.aggregation = AggregationFabric(config=cfg, tree=tree,
                                             agents=agents, intake=intake)
        if self.is_observer_shard:
            # Fan-out through the root, plus direct per-subtree
            # re-initiation for tree-aware retries (the observer
            # addresses a silent relay's children directly, so a dead
            # relay never sits on its own recovery path).
            self.observer.attach_fabric(tree, forward)

    # ------------------------------------------------------------------
    # Convenience passthroughs
    # ------------------------------------------------------------------
    def _driven_here(self, what: str) -> SnapshotObserver:
        if not self.is_observer_shard:
            raise RuntimeError(f"{what} are driven from the observer "
                               f"shard (shard {OBSERVER_SHARD})")
        return self.observer

    def take_snapshot(self, at_wall_ns: Optional[int] = None) -> int:
        return self._driven_here("snapshots").take_snapshot(at_wall_ns)

    def schedule_campaign(self, count: int, interval_ns: int,
                          start_wall_ns: Optional[int] = None) -> list[int]:
        return self._driven_here("campaigns").schedule_campaign(
            count, interval_ns, start_wall_ns)

    def inject_probes(self) -> None:
        """Force snapshot-ID propagation on every switch (liveness)."""
        for cp in self.control_planes.values():
            cp.inject_probes()

    def sync_spread_ns(self, epoch: int) -> Optional[int]:
        """Synchronization of one snapshot ID, defined as in §8.1: the
        difference between the earliest and latest data-plane timestamps
        on any notification carrying that ID."""
        earliest, latest, count = merge_progress(
            {epoch: cp.progress[epoch]} for cp in self.control_planes.values()
            if epoch in cp.progress).get(epoch, (0, 0, 0))
        return latest - earliest if count >= 2 else None

    def notification_stats(self) -> dict[str, int]:
        """Aggregate notification-channel health across switches."""
        stats = {"received": 0, "processed": 0, "dropped": 0, "backlog": 0}
        for cp in self.control_planes.values():
            stats["received"] += cp.channel.received
            stats["processed"] += cp.channel.processed
            stats["dropped"] += cp.channel.dropped
            stats["backlog"] += cp.channel.backlog
        return stats
