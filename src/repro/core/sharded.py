"""The cross-shard vocabulary of a Speedlight deployment.

The paper's deployment is already space-parallel in spirit — "control
planes are responsible for their own switch" (§8.2) and the observer is
just a host — so there is one deployment class
(:class:`~repro.core.deployment.SpeedlightDeployment`) whether or not the
simulation is sharded; a shard cut only changes which control edges
ride the batch transport.  This module names the far ends of those
edges:

* the **observer lives in shard 0** (:data:`OBSERVER_SHARD`).  Control
  planes in other shards ship their
  :class:`~repro.core.control_plane.UnitSnapshotRecord`\\ s to the
  ``"observer"`` mailbox — the sender samples its usual management-plane
  latency locally, and the transport adds at least the plan's lookahead
  on top, so delivery obeys the conservative horizon bound;
* shard 0 registers every *remote* switch with its observer through a
  :class:`RemoteControlPlane` proxy.  The observer only ever calls
  ``schedule_initiation`` on registered devices
  (:class:`~repro.core.observer.InitiationTarget`), so the proxy simply
  forwards ``(epoch, at_wall_ns)`` to the owning shard's ``cp:<switch>``
  mailbox.  Initiation is wall-clock-addressed ("take the snapshot at
  time T"), so the extra transport latency only consumes lead time — it
  does not skew the snapshot instant;
* aggregation-tree edges crossing the cut use ``agg:<switch>`` (upward
  aggregates into that relay's channel), ``agg-init:<switch>`` (downward
  initiation fan-out) and ``agg-observer`` (the root's messages into
  shard 0's intake).

Every mailbox payload is the receiving handler's argument tuple.
"""

from __future__ import annotations

from repro.sim.shard import ShardWorker

__all__ = ["OBSERVER_SHARD", "RemoteControlPlane"]

#: The shard that hosts the snapshot observer.
OBSERVER_SHARD = 0

#: Unit records from remote control planes (observer shard).
OBSERVER_MAILBOX = "observer"

#: Cross-shard intake for aggregation-root messages (observer shard).
AGG_OBSERVER_MAILBOX = "agg-observer"


def cp_mailbox(switch_name: str) -> str:
    return f"cp:{switch_name}"


def agg_mailbox(switch_name: str) -> str:
    return f"agg:{switch_name}"


def agg_init_mailbox(switch_name: str) -> str:
    return f"agg-init:{switch_name}"


class RemoteControlPlane:
    """Shard-0 proxy for a control plane owned by another shard.

    The observer's ``mgmt.send(cp.schedule_initiation, epoch, at_wall)``
    lands here after the locally sampled management latency; the proxy
    forwards over the batch transport, which reserves the plan's
    lookahead.  Total delivery latency is therefore
    ``mgmt latency + max(0, lookahead)`` — still far below any sane
    observer lead time.
    """

    def __init__(self, switch_name: str, worker: ShardWorker) -> None:
        self.switch_name = switch_name
        self._worker = worker

    def schedule_initiation(self, epoch: int, at_wall_ns: int) -> None:
        self._worker.send_ctrl(cp_mailbox(self.switch_name),
                               (epoch, at_wall_ns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RemoteControlPlane({self.switch_name!r} @ shard "
                f"{self._worker.plan.assignment[self.switch_name]})")
