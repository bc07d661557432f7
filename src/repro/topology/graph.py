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
        #: Derived state, dropped by every mutation: sorted name lists
        #: per kind (None = all nodes) and, per destination host, the hop
        #: distance of every switch to it.
        self._sorted: dict[Optional[NodeKind], list[str]] = {}
        self._hops: dict[str, Mapping[str, int]] = {}

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
        self._hops.clear()

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
        self._hops.clear()
        return spec

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

    def link_between(self, a: str, b: str) -> Optional[LinkSpec]:
        return self._adj.get(a, {}).get(b)

    def is_connected(self) -> bool:
        """Whether every node reaches every other (hosts included); an
        empty topology is not connected."""
        if not self._adj:
            return False
        start = next(iter(self._adj))
        seen, stack = {start}, [start]
        while stack:
            for neighbor in self._adj[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self._adj)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def hops_to(self, dst_host: str) -> Mapping[str, int]:
        """Hop distance to ``dst_host`` of every switch that can reach it
        (and 0 for the host itself), read-only.  One search per host,
        from the host, kept until the topology changes.  Only switches
        are expanded: hosts never transit traffic.
        """
        if self._kinds.get(dst_host) is not NodeKind.HOST:
            raise ValueError(f"{dst_host!r} is not a host")
        hops = self._hops.get(dst_host)
        if hops is None:
            hops = self._hops[dst_host] = MappingProxyType(
                self._search(dst_host))
        return hops

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

    def ecmp_next_hops(self, switch: str, dst_host: str) -> list[str]:
        """All equal-cost next hops from ``switch`` toward ``dst_host``.

        Hop count is the metric (standard for leaf-spine/fat-tree ECMP).
        The returned neighbor names are sorted for determinism.
        """
        if self._kinds.get(switch) is not NodeKind.SWITCH:
            raise ValueError(f"{switch!r} is not a switch")
        hops = self.hops_to(dst_host)
        here = hops.get(switch)
        if here is None:
            return []
        return sorted(n for n in self._adj[switch]
                      if hops.get(n) == here - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Topology({self.name!r}, switches={len(self.switches)}, "
                f"hosts={len(self.hosts)}, links={len(self._links)})")
