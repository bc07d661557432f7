"""Topology builders.

A :class:`~repro.topology.graph.Topology` is a declarative description of
devices and links; :class:`repro.sim.network.Network` instantiates it into
a running simulation.  Builders cover the shapes used by the paper:

* :func:`~repro.topology.builders.leaf_spine` — the testbed of Figure 8
  (2 leaves × 2 spines × 6 servers by default);
* :func:`~repro.topology.builders.fat_tree` — k-ary fat-trees for scale
  studies;
* :func:`~repro.topology.builders.single_switch` — the Figure 10 setup;
* :func:`~repro.topology.builders.ring` — rings, for forwarding-loop
  studies (§2.2).
"""

from repro.topology.graph import Topology, NodeKind, LinkSpec
from repro.topology.builders import (
    leaf_spine,
    fat_tree,
    single_switch,
    ring,
)

__all__ = [
    "Topology",
    "NodeKind",
    "LinkSpec",
    "leaf_spine",
    "fat_tree",
    "single_switch",
    "ring",
]
