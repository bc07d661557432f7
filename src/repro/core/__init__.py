"""The Synchronized Network Snapshot protocol — the paper's contribution.

Layering (mirroring §4–§6 of the paper):

* :mod:`~repro.core.ids` — snapshot-ID arithmetic with wraparound;
* :mod:`~repro.core.ideal` — the idealised per-unit algorithm (Figure 3);
* :mod:`~repro.core.dataplane` — Speedlight's hardware-constrained
  per-unit implementation (Figures 4 & 5);
* :mod:`~repro.core.notifications` — the data-plane → CPU channel;
* :mod:`~repro.core.control_plane` — per-switch coordination (Figure 7,
  §6): initiation, completion/inconsistency detection, liveness;
* :mod:`~repro.core.observer` — the host-side snapshot observer;
* :mod:`~repro.core.snapshot` — global snapshot assembly;
* :mod:`~repro.core.aggregation` — the hierarchical snapshot fabric: a
  spanning relay tree that aggregates unit records and gating-min
  signals in-network so the observer services O(fan-out) messages per
  epoch instead of O(units);
* :mod:`~repro.core.deployment` — one-call wiring of all of the above
  onto a simulated network (including partial deployment, §10) or one
  shard's slice of it;
* :mod:`~repro.core.sharded` — the cross-shard vocabulary: mailbox
  names, the observer's home shard, the remote-control-plane proxy.

A deployment has one constructor, :func:`deploy`; its keywords are the
fields of :class:`DeploymentConfig` (which, like
:class:`SpeedlightDeployment`, is exported as a type only)::

    net = Network(leaf_spine())
    sl = deploy(net, metric="packet_count", channel_state=True)
    epochs = sl.schedule_campaign(count=100, interval_ns=10 * MS)
    net.run(until=2 * S)
    snaps = sl.observer.completed_snapshots(require_consistent=True)
"""

from repro.core.aggregation import (
    AggregateMessage,
    AggregationAgent,
    AggregationConfig,
    AggregationFabric,
    AggregationTree,
    RelayChannel,
)
from repro.core.ids import IdSpace
from repro.core.ideal import IdealUnit, IdealSlot
from repro.core.dataplane import SpeedlightUnit, SnapshotSlot
from repro.core.notifications import Notification
from repro.core.control_plane import (
    ControlPlaneConfig,
    NotificationChannel,
    SwitchControlPlane,
    UnitSnapshotRecord,
)
from repro.core.observer import ObserverConfig, SnapshotObserver
from repro.core.recovery import (
    RECOVERY_PRESETS,
    RecoveryPolicy,
)
from repro.core.snapshot import GlobalSnapshot, SnapshotStatus
from repro.core.deployment import (
    DeploymentConfig,
    SpeedlightDeployment,
)
from repro.core.builder import deploy
from repro.core.sharded import RemoteControlPlane

__all__ = [
    "AggregateMessage",
    "AggregationAgent",
    "AggregationConfig",
    "AggregationFabric",
    "AggregationTree",
    "RelayChannel",
    "IdSpace",
    "IdealUnit",
    "IdealSlot",
    "SpeedlightUnit",
    "SnapshotSlot",
    "Notification",
    "ControlPlaneConfig",
    "NotificationChannel",
    "SwitchControlPlane",
    "UnitSnapshotRecord",
    "ObserverConfig",
    "SnapshotObserver",
    "RECOVERY_PRESETS",
    "RecoveryPolicy",
    "GlobalSnapshot",
    "SnapshotStatus",
    "DeploymentConfig",
    "SpeedlightDeployment",
    "deploy",
    "RemoteControlPlane",
]
