"""Network assembly: topology → running simulation objects.

:class:`Network` instantiates a :class:`~repro.topology.Topology` into
switches, hosts and links on a shared :class:`~repro.sim.engine.Simulator`;
computes ECMP routes; and owns the shared services (root RNG, PTP clock
sync, management plane).

Port numbering: each device's neighbors are assigned consecutive port
indices in sorted neighbor-name order, so port maps are deterministic and
tests can reference "the uplink ports" by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Optional, Protocol

from repro.sim.engine import Simulator
from repro.sim.clock import PTPConfig, PTPService
from repro.sim.channel import Link, LossModel
from repro.sim.host import Host
from repro.sim.mgmt import ManagementPlane
from repro.sim.switch import BROADCAST_DST, Switch, SwitchConfig, TraceEvent
from repro.topology.graph import LinkSpec, NodeKind, Topology


def check_host_links(topology: Topology) -> None:
    """Refuse, by name, a host with other than one link: a host has one
    NIC to wire and one switch to follow into a shard.  (``Topology``
    itself admits any host, for the route oracles.)"""
    for host in topology.hosts:
        links = topology.degree(host)
        if links != 1:
            raise ValueError(f"host {host!r} has {links} links; a host "
                             "takes exactly one")


def partition_topology(topology: Topology, num_shards: int) -> dict[str, int]:
    """Assign every node of ``topology`` to one of ``num_shards`` shards.

    Greedy graph growing over the switch-induced subgraph (a cheap
    min-cut-ish heuristic): each shard is seeded with the
    highest-degree unassigned switch and grown one switch at a time,
    always taking the candidate with the most links into the region —
    the same objective as KL/FM-style partitioners, without the
    dependency.  Hosts follow their attached switch, so only
    switch-to-switch links are ever cut and every cut link's
    propagation delay can serve as conservative lookahead
    (:mod:`repro.sim.shard`).

    Deterministic given (topology, num_shards): all candidate choices
    tie-break on sorted names, never on hashes or iteration order of
    sets.  Returns a ``{node name -> shard id}`` mapping covering every
    switch and host.
    """
    check_host_links(topology)
    switches = topology.switches
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > len(switches):
        raise ValueError(
            f"cannot split {len(switches)} switches into {num_shards} shards")
    assignment: dict[str, int] = {}
    fabric = {name: [n for n in topology.neighbors(name)
                     if topology.kind(n) is NodeKind.SWITCH]
              for name in switches}
    # Seeds in order: highest switch-degree, name as tie-break (the sort
    # is stable over sorted names).
    seeds = sorted(switches, key=lambda name: -len(fabric[name]))
    remaining = set(switches)
    base, extra = divmod(len(switches), num_shards)
    for shard in range(num_shards):
        target = base + (1 if shard < extra else 0)
        # The frontier: each unassigned switch next to the region, with
        # its count of links into the region, kept up as the region grows.
        links_in: dict[str, int] = {}
        for _ in range(target):
            if links_in:
                # Most links into the region, name as tie-break.
                pick = min(links_in, key=lambda n: (-links_in[n], n))
                del links_in[pick]
            else:
                # A fresh region, or a disconnected remainder: start a
                # new seed inside the same shard.
                pick = next(n for n in seeds if n in remaining)
            remaining.discard(pick)
            assignment[pick] = shard
            for n in fabric[pick]:
                if n in remaining:
                    links_in[n] = links_in.get(n, 0) + 1
    for host in topology.hosts:
        # Host-to-host links do not exist, so a host's one neighbor is
        # its switch.
        [attached] = topology.neighbors(host)
        assignment[host] = assignment[attached]
    return assignment


def cut_links(topology: Topology,
              assignment: dict[str, int]) -> list[LinkSpec]:
    """The links whose endpoints live in different shards, in the
    topology's deterministic link order."""
    return [spec for spec in topology.links
            if assignment[spec.a] != assignment[spec.b]]


@dataclass
class NetworkConfig:
    """Knobs for network instantiation."""

    seed: int = 0
    switch_config: SwitchConfig = field(default_factory=SwitchConfig)
    ptp_config: PTPConfig = field(default_factory=PTPConfig)
    #: Optional factory producing a loss model per link, e.g. for fault
    #: injection tests: ``lambda spec, rng: BernoulliLoss(0.001, rng)``.
    loss_factory: Optional[Callable[..., LossModel]] = None
    #: Factory producing each switch's load balancer, called with the
    #: switch index (used as the hash salt).  Defaults to flow-level ECMP.
    lb_factory: Optional[Callable[[int], object]] = None
    #: Record packet traces through snapshot units (consistency checks).
    enable_tracing: bool = False


class NetworkScope(Protocol):
    """What a shard scope must provide to restrict a :class:`Network` to
    one partition (implemented by :class:`repro.sim.shard.ShardScope`)."""

    def owns(self, name: str) -> bool:
        ...  # pragma: no cover - protocol definition

    def boundary_link(self, sim: Simulator, spec: "LinkSpec",
                      loss: Optional[LossModel] = None) -> Link:
        ...  # pragma: no cover - protocol definition

    def remote_snapshot_enabled(self, name: str) -> bool:
        ...  # pragma: no cover - protocol definition


class Network:
    """A fully wired simulated network."""

    def __init__(self, topology: Topology,
                 config: Optional[NetworkConfig] = None,
                 sim: Optional[Simulator] = None,
                 scope: Optional["NetworkScope"] = None) -> None:
        check_host_links(topology)
        self.topology = topology
        self.config = config or NetworkConfig()
        self.sim = sim or Simulator()
        #: Shard scope (None = the whole topology lives in this process).
        #: When set, only owned switches/hosts are instantiated and each
        #: cut link is replaced by the scope's boundary stub
        #: (:mod:`repro.sim.shard`).
        self.scope = scope
        self.ptp = PTPService(self.sim, self._child_rng("ptp"),
                              self.config.ptp_config)
        self.mgmt = ManagementPlane(self.sim, self._child_rng("mgmt"))
        self.switches: dict[str, Switch] = {}
        self.hosts: dict[str, Host] = {}
        self.links: list[Link] = []
        #: device name -> {neighbor name -> local port index}
        self.port_map: dict[str, dict[str, int]] = {}
        #: All TraceEvents, in time order (populated when
        #: ``config.enable_tracing`` is set; consumed by the
        #: causal-consistency checker).
        self.trace_log: list["TraceEvent"] = []
        self._build()
        self._install_routes()
        if self.config.enable_tracing:
            for switch in self.switches.values():
                switch.trace_sink = self.trace_log.append
        self.ptp.start()

    def _child_rng(self, label: str) -> random.Random:
        """Derive an independent RNG stream from the root seed."""
        return random.Random(f"{self.config.seed}/{label}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        from repro.lb import EcmpBalancer  # late import avoids a cycle

        topo = self.topology
        scope = self.scope
        lb_factory = self.config.lb_factory or (lambda salt: EcmpBalancer(salt))
        # The switch index (the ECMP hash salt) counts *all* switches,
        # so a switch hashes flows identically whether the network is
        # sharded or not.
        for index, name in enumerate(topo.switches):
            if scope is not None and not scope.owns(name):
                continue
            self.switches[name] = Switch(self.sim, name, topo.degree(name),
                                         self.config.switch_config,
                                         lb=lb_factory(index))
            self.ptp.attach(name)
        for name in topo.hosts:
            if name == BROADCAST_DST:
                # Switches flood packets to this address as probes and
                # never deliver them: a host by that name is unreachable.
                raise ValueError(f"host name {name!r} is reserved for "
                                 "snapshot-propagation probes")
            if scope is not None and not scope.owns(name):
                continue
            self.hosts[name] = Host(self.sim, name)
        for name in topo.nodes:
            neighbors = topo.neighbors(name)
            self.port_map[name] = {nbr: i for i, nbr in enumerate(neighbors)}
        link_rng = self._child_rng("loss")
        for spec in topo.links:
            loss = None
            if self.config.loss_factory is not None:
                # Draw for every link in topology order — even links this
                # shard does not own — so each shard's loss stream for a
                # given link matches every other shard count.
                loss = self.config.loss_factory(spec, link_rng)
            if scope is None:
                local_ends = [spec.a, spec.b]
            else:
                local_ends = [n for n in (spec.a, spec.b) if scope.owns(n)]
                if not local_ends:
                    continue
            if len(local_ends) == 1:
                # Cut link: the scope supplies a boundary stub that
                # captures transmissions for the cross-shard transport
                # instead of delivering them locally.
                link = self.scope.boundary_link(self.sim, spec, loss=loss)  # type: ignore[union-attr]
            else:
                link = Link(self.sim, spec.bandwidth_bps, spec.propagation_ns,
                            loss, f"{spec.a}-{spec.b}", fused=scope is None)
            self.links.append(link)
            for node in local_ends:
                if topo.kind(node) is NodeKind.SWITCH:
                    port = self.port_map[node][spec.other(node)]
                    self.switches[node].ports[port].connect(link)
                else:
                    self.hosts[node].connect(link)

    def _install_routes(self) -> None:
        topo = self.topology
        for sw_name, switch in self.switches.items():
            ports_of = self.port_map[sw_name]
            # Hosts behind one gateway share one next-hop list, so they
            # share one port list too (nothing edits a route in place).
            ports_for: dict[int, list[int]] = {}
            routes: dict[str, list[int]] = {}
            for host, next_hops in topo.routes_from(sw_name).items():
                ports = ports_for.get(id(next_hops))
                if ports is None:
                    ports = ports_for[id(next_hops)] = [
                        ports_of[n] for n in next_hops]
                routes[host] = ports
            # Construction order is meaningless: the built table is
            # generation 0 on every device, so the §10 fib_version metric
            # (and repro.updates verdicts) start from a common baseline.
            switch.load_fib(routes)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def switch(self, name: str) -> Switch:
        return self.switches[name]

    def owns(self, name: str) -> bool:
        """Whether node ``name`` lives in this process: every node of an
        unscoped network, the scope's own on a shard, where a name the
        topology lacks is a ``ValueError`` (no shard owns it)."""
        if self.scope is None:
            return True
        try:
            self.topology.kind(name)
        except KeyError:
            raise ValueError(f"no node named {name!r}, so no shard owns "
                             "it") from None
        return self.scope.owns(name)

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def port_toward(self, device: str, neighbor: str) -> int:
        """Local port index on ``device`` facing ``neighbor``."""
        return self.port_map[device][neighbor]

    def uplink_ports(self, leaf: str) -> list[int]:
        """Ports of ``leaf`` that face other switches (the "uplinks" whose
        balance Figure 12 studies)."""
        ports = []
        for neighbor, port in self.port_map[leaf].items():
            if self.topology.kind(neighbor) is NodeKind.SWITCH:
                ports.append(port)
        return sorted(ports)

    def peer_of_port(self, switch_name: str, port: int) -> tuple[str, NodeKind]:
        """Name and kind of the device at the far end of a switch port."""
        for neighbor, p in self.port_map[switch_name].items():
            if p == port:
                return neighbor, self.topology.kind(neighbor)
        raise KeyError(f"{switch_name} has no port {port}")

    # ------------------------------------------------------------------
    # Snapshot-deployment support
    # ------------------------------------------------------------------
    def feasible_channels(self, switch_name: str) -> set[tuple[int, int]]:
        """All (ingress port, egress port) pairs that routing can use.

        A packet arriving at switch ``S`` from neighbor ``X`` is headed
        to some host ``h`` for which ``S`` is on a shortest path from
        ``X``; it leaves via one of ``S``'s ECMP ports for ``h``.  Pairs
        outside this set never carry traffic (e.g. valley paths under
        up-down routing), so snapshot completion must not gate on them —
        the paper's "removal of non-utilized upstream neighbors" (§6),
        derived here from the routing function instead of hand-configured.
        """
        topo = self.topology
        switch = self.switches[switch_name]
        ports = [(neighbor, in_port,
                  topo.kind(neighbor) is NodeKind.SWITCH)
                 for neighbor, in_port in self.port_map[switch_name].items()]
        pairs: set[tuple[int, int]] = set()
        for dst, out_ports in switch.routes.items():
            # A route to a name the topology does not know (an injected
            # misconfiguration) is on no shortest path.
            hops = topo.switch_hops(dst) if dst in self.port_map else {}
            here = hops.get(switch_name)
            for neighbor, in_port, from_switch in ports:
                if neighbor == dst:
                    continue
                if from_switch and (here is None
                                    or hops.get(neighbor) != here + 1):
                    continue  # S is not on a shortest path from X to dst
                for out_port in out_ports:
                    if out_port != in_port:
                        pairs.add((in_port, out_port))
        return pairs

    def refresh_header_stripping(self) -> None:
        """Recompute which egress units must pop the snapshot header.

        An egress unit strips the header when its link peer cannot parse
        it: always for hosts, and for switches whose facing ingress unit
        is not snapshot-enabled (partial deployment, §10).
        """
        for sw_name, switch in self.switches.items():
            for port in switch.ports:
                if port.link is None:
                    port.egress.strip_header_for_peer = True
                    continue
                peer_name, kind = self.peer_of_port(sw_name, port.index)
                if kind is NodeKind.HOST:
                    port.egress.strip_header_for_peer = True
                    continue
                if self.scope is not None and peer_name not in self.switches:
                    # Cut-link peer living in another shard: the scope
                    # knows whether its facing ingress parses the header.
                    port.egress.strip_header_for_peer = (
                        not self.scope.remote_snapshot_enabled(peer_name))
                    continue
                peer_switch = self.switches[peer_name]
                peer_port = self.port_map[peer_name][sw_name]
                peer_ingress = peer_switch.ports[peer_port].ingress
                port.egress.strip_header_for_peer = not peer_ingress.snapshot_enabled

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Convenience passthrough to the simulator."""
        return self.sim.run(until=until, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Network({self.topology.name!r}, "
                f"switches={len(self.switches)}, hosts={len(self.hosts)})")
