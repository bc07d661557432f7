"""Declarative topology description.

A topology is a set of named nodes (switches and hosts) and links with
per-link bandwidth/propagation attributes.  It is a pure description —
no simulator objects — so tests can assert on structure cheaply and the
same topology can be instantiated many times with different seeds.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional


class NodeKind(enum.Enum):
    SWITCH = "switch"
    HOST = "host"


@dataclass(frozen=True)
class LinkSpec:
    """Attributes of one physical link."""

    a: str
    b: str
    bandwidth_bps: int = 25_000_000_000
    propagation_ns: int = 500

    def __post_init__(self) -> None:
        # Imported here: repro.sim imports this module.
        from repro.sim.engine import check_minimums
        check_minimums(self, {"bandwidth_bps": 1, "propagation_ns": 0})

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of {self}")


class Topology:
    """Nodes + links, with shortest-path helpers used for route setup."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._kinds: dict[str, NodeKind] = {}
        self._links: list[LinkSpec] = []
        #: Adjacency: node -> {neighbour: the link between them}, in
        #: insertion order (the searches below expand in that order).
        self._adj: dict[str, dict[str, LinkSpec]] = {}
        #: Derived state, dropped by every mutation (:meth:`_changed`
        #: drops all but the name lists): sorted name lists per kind
        #: (None = all nodes); every host with its search source (see
        #: "Routing" below); per source, its search and every other
        #: switch's sorted next hops toward it.
        self._sorted: dict[Optional[NodeKind], list[str]] = {}
        self._source_of: Optional[dict[str, str]] = None
        self._searched: dict[str, dict[str, int]] = {}
        self._toward_of: dict[str, dict[str, list[str]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, name: str) -> str:
        self._add_node(name, NodeKind.SWITCH)
        return name

    def add_host(self, name: str) -> str:
        self._add_node(name, NodeKind.HOST)
        return name

    def _add_node(self, name: str, kind: NodeKind) -> None:
        if name in self._kinds:
            raise ValueError(f"node {name!r} already exists")
        self._kinds[name] = kind
        self._adj[name] = {}
        self._sorted.clear()
        self._changed()

    def add_link(self, a: str, b: str, bandwidth_bps: int = 25_000_000_000,
                 propagation_ns: int = 500) -> LinkSpec:
        for node in (a, b):
            if node not in self._kinds:
                raise ValueError(f"unknown node {node!r}")
        if self._kinds[a] is NodeKind.HOST and self._kinds[b] is NodeKind.HOST:
            raise ValueError("host-to-host links are not supported")
        if a == b:
            raise ValueError(f"link {a!r}-{b!r} joins a node to itself")
        if b in self._adj[a]:
            raise ValueError(f"link {a!r}-{b!r} already exists")
        spec = LinkSpec(a, b, bandwidth_bps, propagation_ns)
        self._links.append(spec)
        self._adj[a][b] = self._adj[b][a] = spec
        self._changed()
        return spec

    def _changed(self) -> None:
        """Drop the routing state derived from the nodes and links."""
        self._source_of = None
        self._searched.clear()
        self._toward_of.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _names(self, kind: Optional[NodeKind]) -> list[str]:
        names = self._sorted.get(kind)
        if names is None:
            names = self._sorted[kind] = sorted(
                n for n, k in self._kinds.items() if kind is None or k is kind)
        return list(names)

    @property
    def nodes(self) -> list[str]:
        return self._names(None)

    @property
    def switches(self) -> list[str]:
        return self._names(NodeKind.SWITCH)

    @property
    def hosts(self) -> list[str]:
        return self._names(NodeKind.HOST)

    @property
    def links(self) -> list[LinkSpec]:
        return list(self._links)

    def kind(self, name: str) -> NodeKind:
        return self._kinds[name]

    def _links_of(self, name: str) -> dict[str, LinkSpec]:
        links = self._adj.get(name)
        if links is None:
            raise ValueError(f"unknown node {name!r}")
        return links

    def neighbors(self, name: str) -> list[str]:
        return sorted(self._links_of(name))

    def degree(self, name: str) -> int:
        return len(self._links_of(name))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    # A host with exactly one link hangs off that link's switch, its
    # *gateway*.  Its distance table is the gateway's switch-only search,
    # every switch one hop farther, and every other switch reaches it
    # through the gateway; so set-up runs one search per gateway switch,
    # and the next hops toward a gateway serve every host behind it.
    # Any other host (several links, or none) is its own search source.

    def switch_hops(self, host: str) -> Mapping[str, int]:
        """Hop distances that rank the switches toward ``host``,
        read-only: for a host with a gateway, every switch's distance to
        the gateway (one less than to the host); for any other host,
        every switch's distance to the host itself.  A difference
        between two switches is the host's either way, which is all a
        shortest-path test reads, and no per-host table is built."""
        return MappingProxyType(self._searched_from(self._source(host)))

    def _source(self, host: str) -> str:
        """The search ``host``'s distances come from: its gateway, or
        itself when it has none."""
        if self._kinds.get(host) is not NodeKind.HOST:
            raise ValueError(f"{host!r} is not a host")
        return self._sources()[host]

    def _sources(self) -> dict[str, str]:
        """Every host, in :attr:`hosts` order, with its search source."""
        if self._source_of is None:
            adj = self._adj
            self._source_of = {
                host: next(iter(adj[host])) if len(adj[host]) == 1 else host
                for host in self._names(NodeKind.HOST)}
        return self._source_of

    def _searched_from(self, source: str) -> dict[str, int]:
        table = self._searched.get(source)
        if table is None:
            table = self._searched[source] = self._search(source)
        return table

    def _search(self, source: str) -> dict[str, int]:
        """The one graph search: breadth-first from ``source``, expanding
        switches only (tests/topology/test_route_table.py counts calls)."""
        kinds, adj = self._kinds, self._adj
        hops = {source: 0}
        frontier = [source]
        while frontier:
            reached = []
            for node in frontier:
                for neighbor in adj[node]:
                    if neighbor not in hops and kinds[neighbor] is NodeKind.SWITCH:
                        hops[neighbor] = hops[node] + 1
                        reached.append(neighbor)
            frontier = reached
        return hops

    def _toward(self, source: str) -> dict[str, list[str]]:
        """Every switch that reaches ``source`` but is not it, with its
        sorted next hops toward it: one list for all the hosts behind a
        gateway, so read-only."""
        toward = self._toward_of.get(source)
        if toward is None:
            adj, table = self._adj, self._searched_from(source)
            get = table.get
            toward = self._toward_of[source] = {}
            for name, hop in table.items():
                if hop:
                    next_hops = [n for n in adj[name] if get(n) == hop - 1]
                    next_hops.sort()
                    toward[name] = next_hops
        return toward

    def routes_from(self, switch: str) -> dict[str, list[str]]:
        """``{host: the equal-cost next hops from switch toward host}``
        over every host ``switch`` reaches, keyed in :attr:`hosts`
        order: a switch's whole route table in one call.  Hop count is
        the metric (standard for leaf-spine/fat-tree ECMP); each list is
        sorted for determinism, and hosts on one gateway share one list,
        so treat the lists as read-only.
        """
        if self._kinds.get(switch) is not NodeKind.SWITCH:
            raise ValueError(f"{switch!r} is not a switch")
        toward_of = self._toward_of
        routes: dict[str, list[str]] = {}
        for host, source in self._sources().items():
            if source == switch:  # the gateway
                routes[host] = [host]
            elif next_hops := (toward_of.get(source)
                               or self._toward(source)).get(switch):
                routes[host] = next_hops
        return routes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Topology({self.name!r}, switches={len(self.switches)}, "
                f"hosts={len(self.hosts)}, links={len(self._links)})")
