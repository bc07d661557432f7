"""Discrete-event network simulator substrate.

This package replaces the hardware pieces of the original Speedlight
deployment (Tofino ASIC, switch CPUs, PTP-synchronized clocks, cabling)
with a deterministic discrete-event simulation.  Everything the snapshot
protocol relies on is modelled explicitly:

* linearizable per-port, per-direction processing units (:mod:`.switch`),
* FIFO communication channels with propagation delay (:mod:`.channel`),
* per-device clocks with drift and PTP-style resynchronisation
  (:mod:`.clock`),
* a management plane connecting control planes to observers (:mod:`.mgmt`).

Time is measured in integer nanoseconds throughout.  The helper constants
:data:`~repro.sim.engine.US`, :data:`~repro.sim.engine.MS` and
:data:`~repro.sim.engine.S` convert to microseconds, milliseconds and
seconds respectively.
"""

from repro.sim.engine import Event, Simulator, NS, US, MS, S
from repro.sim.clock import Clock, PTPConfig, PTPService
from repro.sim.packet import Packet, SnapshotHeader, PacketType
from repro.sim.channel import Link, LossModel, BernoulliLoss, NoLoss
from repro.sim.switch import (
    Switch,
    SwitchConfig,
    Port,
    IngressUnit,
    EgressUnit,
    UnitId,
    Direction,
)
from repro.sim.host import Host
from repro.sim.network import Network, NetworkConfig, partition_topology
from repro.sim.mgmt import ManagementPlane
from repro.sim.shard import (
    BoundaryLink,
    ShardPlan,
    ShardRunner,
    ShardScope,
    ShardWorker,
)

__all__ = [
    "Event",
    "Simulator",
    "NS",
    "US",
    "MS",
    "S",
    "Clock",
    "PTPConfig",
    "PTPService",
    "Packet",
    "SnapshotHeader",
    "PacketType",
    "Link",
    "LossModel",
    "BernoulliLoss",
    "NoLoss",
    "Switch",
    "SwitchConfig",
    "Port",
    "IngressUnit",
    "EgressUnit",
    "UnitId",
    "Direction",
    "Host",
    "Network",
    "NetworkConfig",
    "ManagementPlane",
    "partition_topology",
    "BoundaryLink",
    "ShardPlan",
    "ShardRunner",
    "ShardScope",
    "ShardWorker",
]
