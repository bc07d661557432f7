"""The snapshot observer — a host process orchestrating global snapshots.

"A Synchronized Network Snapshot begins humbly: with a host acting as a
snapshot observer.  The observer broadcasts a request to every device in
the network to take a snapshot of a given metric at a given time in the
future." (§3)

Responsibilities implemented here (§6):

* allocate snapshot epochs and enforce the **no-lapping window** of the
  wrapped ID space out-of-band (stale pending snapshots are abandoned
  before the window could be violated);
* register each snapshot with every device control plane over the
  management plane, naming a wall-clock initiation instant far enough in
  the future for registrations to arrive;
* assemble per-unit records into :class:`~repro.core.snapshot.GlobalSnapshot`
  objects, compute completion, and execute retries;
* time out and exclude failed devices ("If a device fails, it may
  timeout and be excluded from the global snapshot");
* support node attachment: a device registered after a snapshot was
  initiated is not in that snapshot's expected set, so its spurious
  completions are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Collection
from typing import Optional, Protocol, TYPE_CHECKING

from repro.core.control_plane import UnitSnapshotRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.aggregation import AggregateMessage, AggregationTree
from repro.core.ids import IdSpace
from repro.core.snapshot import GlobalSnapshot, SnapshotStatus, UnitTable
from repro.sim.engine import Simulator, MS, check_minimums
from repro.sim.mgmt import ManagementPlane
from repro.sim.switch import UnitId


@dataclass
class ObserverConfig:
    """Observer timing policy."""

    #: How far in the future snapshots are scheduled — must exceed the
    #: worst-case management-plane delivery latency so every control
    #: plane hears about the snapshot before its initiation instant.
    lead_time_ns: int = 5 * MS
    #: Re-send initiations for snapshots incomplete after this long.
    retry_timeout_ns: int = 50 * MS
    max_retries: int = 2
    #: Give up and exclude silent devices after this long.
    device_timeout_ns: int = 250 * MS

    def __post_init__(self) -> None:
        # A zero retry timeout would spend every retry at the initiation
        # instant itself.
        check_minimums(self, {"lead_time_ns": 0, "retry_timeout_ns": 1,
                              "max_retries": 0, "device_timeout_ns": 0})


class InitiationTarget(Protocol):
    """What the observer requires of a registered device: a way to
    register an initiation.  Satisfied by
    :class:`~repro.core.control_plane.SwitchControlPlane` directly, and
    by :class:`~repro.core.sharded.RemoteControlPlane` proxies that
    forward the call across a shard boundary."""

    def schedule_initiation(self, epoch: int, at_wall_ns: int) -> None:
        ...  # pragma: no cover - protocol definition


class SnapshotObserver:
    """Coordinates network-wide snapshots from a host vantage point."""

    def __init__(self, sim: Simulator, mgmt: ManagementPlane,
                 id_space: IdSpace,
                 config: Optional[ObserverConfig] = None) -> None:
        self.sim = sim
        self.mgmt = mgmt
        self.ids = id_space
        self.config = config or ObserverConfig()
        self.control_planes: dict[str, InitiationTarget] = {}
        self._device_units: dict[str, set[UnitId]] = {}
        #: Union of every registered device's units, shared by the
        #: snapshots taken while the device set is unchanged (nothing
        #: mutates an expected set in place); None = rebuild on next use.
        self._expected_units: Optional[set[UnitId]] = None
        #: Every unit ever registered, numbered once: the index resolved
        #: snapshots keep their records' columns over.
        self.units = UnitTable()
        self.snapshots: dict[int, GlobalSnapshot] = {}
        #: Records that reached a snapshot already COMPLETE or PARTIAL:
        #: counted and dropped, since a resolved snapshot is final.
        self.late_records = 0
        #: Records offered to the intake, alone or in a relay message.
        self.records_in = 0
        self._next_epoch = 1  # epoch 0 is the power-on state, never taken
        #: Every epoch below this has been through no-lapping
        #: enforcement and can never be PENDING again.
        self._settled_below = 1
        self._resolution_callbacks: list[Callable[[GlobalSnapshot], None]] = []
        #: Retry-round accounting (exposed for the tree-aware retry
        #: cost analysis): messages sent per mechanism across all rounds.
        self.retry_rounds = 0
        self.retry_unicasts = 0
        self.retry_fabric_sends = 0
        self.retry_subtree_sends = 0
        #: The aggregation fabric (wired by the deployment when an
        #: aggregation tree is; see :meth:`attach_fabric`).  None means
        #: the flat unicast design — byte-identical event stream to the
        #: pre-aggregation observer.
        self.relay_tree: Optional["AggregationTree"] = None
        self.forward_init: Optional[Callable[[str, int, int], None]] = None
        #: Latest fabric-wide gating-min progress floor (MIN over every
        #: control plane's finalized epoch, reduced bottom-up).
        self.fabric_min_epoch = 0

    # ------------------------------------------------------------------
    # Device registration (including live node attachment, §6)
    # ------------------------------------------------------------------
    def register_device(self, name: str, control_plane: InitiationTarget,
                        units: Collection[UnitId]) -> None:
        """Add a device to the active set.  Devices registered after a
        snapshot was initiated join from the *next* snapshot on.  Units
        not seen before are numbered in the order given."""
        if name in self.control_planes:
            raise ValueError(f"device {name!r} already registered")
        self.control_planes[name] = control_plane
        self._device_units[name] = set(units)
        self._expected_units = None
        self.units.extend(units)

    def on_resolved(self, callback: Callable[[GlobalSnapshot], None]) -> None:
        """Run ``callback`` once per snapshot when it leaves PENDING —
        COMPLETE, PARTIAL, and ABANDONED alike.  This is the streaming
        intake hook: a continuous consumer hears about every epoch's
        final disposition exactly once, in resolution order, without
        polling :attr:`snapshots` at end of run.  The one resolution hook:
        a consumer of COMPLETE snapshots only checks ``status``."""
        self._resolution_callbacks.append(callback)

    def _resolve(self, snapshot: GlobalSnapshot,
                 status: SnapshotStatus) -> None:
        """Move ``snapshot`` to a terminal ``status``, fire hooks, then
        freeze its records into columns (callbacks see the live dict):
        the last write the snapshot takes.

        Pure-Python callbacks: nothing here schedules events, so wiring
        (or not wiring) consumers leaves the event stream byte-identical.
        """
        snapshot.status = status
        for callback in self._resolution_callbacks:
            callback(snapshot)
        snapshot.freeze(self.units)

    def attach_fabric(self, tree: "AggregationTree",
                      forward: Callable[[str, int, int], None]) -> None:
        """Wire the aggregation fabric (deployment-installed).

        ``forward(device, epoch, at_wall_ns)`` initiates ``device``'s
        fabric subtree directly.  Sent to ``tree.root`` it replaces the
        N-unicast initiation loop; sent to a silent relay's children it
        lets retry rounds route around that relay at O(fan-out) cost
        instead of unicasting to O(devices).  ``tree`` also lets the
        timeout path attribute a silent subtree to its silent relay
        ancestor.
        """
        self.relay_tree = tree
        self.forward_init = forward

    # ------------------------------------------------------------------
    # Taking snapshots
    # ------------------------------------------------------------------
    def take_snapshot(self, at_wall_ns: Optional[int] = None,
                      initiators: Optional[list[str]] = None) -> int:
        """Schedule one global snapshot; returns its epoch.

        ``at_wall_ns`` defaults to now + lead time.  Results appear in
        :attr:`snapshots` as the simulation runs.

        ``initiators`` restricts which devices receive the initiation
        (default: all — the paper's multi-initiator design).  With a
        single initiator the snapshot propagates Chandy-Lamport style via
        tagged traffic, which the initiation-strategy ablation uses to
        quantify what multi-initiation buys in synchronization.
        """
        epoch = self._next_epoch
        self._next_epoch += 1
        at_wall = at_wall_ns if at_wall_ns is not None else (
            self.sim.now + self.config.lead_time_ns)
        expected = self._expected_units
        if expected is None:
            expected = self._expected_units = set().union(
                *self._device_units.values())
        snapshot = GlobalSnapshot(epoch=epoch, requested_wall_ns=at_wall,
                                  expected_units=expected)
        self.snapshots[epoch] = snapshot
        tree, forward = self.relay_tree, self.forward_init
        if initiators is None and tree is not None:
            # Aggregation fan-out: one send to the tree root; relays
            # forward down their children.  Explicit initiator subsets
            # (the Chandy-Lamport ablation) keep the unicast path.
            assert forward is not None  # wired with the tree
            forward(tree.root, epoch, at_wall)
        else:
            targets = (self.control_planes if initiators is None
                       else {n: self.control_planes[n] for n in initiators})
            for cp in targets.values():
                self.mgmt.send(cp.schedule_initiation, epoch, at_wall)
        # No-lapping enforcement happens when this epoch actually starts
        # circulating: any snapshot more than a window behind must stop
        # being awaited, since its register slots are about to be reused.
        self.sim.schedule_at(max(at_wall, self.sim.now),
                             self._enforce_window, epoch)
        self.sim.schedule_at(at_wall + self.config.retry_timeout_ns,
                             self._check_progress, epoch)
        return epoch

    def schedule_campaign(self, count: int, interval_ns: int,
                          start_wall_ns: Optional[int] = None) -> list[int]:
        """Schedule ``count`` snapshots at a fixed cadence; returns their
        epochs (the measurement-campaign primitive used throughout §8)."""
        if count < 1:
            raise ValueError("count must be positive")
        start = start_wall_ns if start_wall_ns is not None else (
            self.sim.now + self.config.lead_time_ns)
        epochs = []
        for i in range(count):
            epochs.append(self.take_snapshot(at_wall_ns=start + i * interval_ns))
        return epochs

    def _enforce_window(self, initiating_epoch: int) -> None:
        """Abandon stale pending snapshots so wrapped IDs never lap.

        Runs at each epoch's initiation instant: once ``initiating_epoch``
        starts circulating, any snapshot more than an ID-space window
        behind it can no longer be compared correctly in the data plane
        (§5.3) — the observer stops awaiting it.  Campaigns whose
        completion keeps pace with their cadence are never affected,
        regardless of how many epochs were pre-scheduled.

        Amortised O(1): epochs are allocated in ascending order and a
        resolved snapshot never returns to PENDING, so each epoch is
        inspected once, when the floor first passes it — in ascending
        epoch order even when initiation instants are not monotone.
        """
        floor = initiating_epoch - self.ids.window + 1
        for epoch in range(self._settled_below, floor):
            snapshot = self.snapshots[epoch]
            if snapshot.status is SnapshotStatus.PENDING:
                self._resolve(snapshot, SnapshotStatus.ABANDONED)
        self._settled_below = max(self._settled_below, floor)

    # ------------------------------------------------------------------
    # Record intake
    # ------------------------------------------------------------------
    def on_unit_record(self, record: UnitSnapshotRecord) -> None:
        """Entry point for records shipped by control planes (wired by
        the deployment through the management plane)."""
        self.records_in += 1
        snapshot = self.snapshots.get(record.epoch)
        if snapshot is None:
            return  # epoch predates this observer or was never scheduled
        status = snapshot.status
        if status is SnapshotStatus.PENDING:
            if snapshot.add_record(record) and snapshot.complete:
                self._resolve(snapshot, SnapshotStatus.COMPLETE)
        elif status is not SnapshotStatus.ABANDONED:
            self.late_records += 1  # resolved: final, so counted, not applied

    def on_aggregate(self, message: "AggregateMessage") -> None:
        """Entry point for tree-aggregated messages (the fabric intake's
        handler): take the batched unit records, in one step when
        :meth:`GlobalSnapshot.add_records` can, else one by one, and fold
        the subtree's gating-min progress floor into the fabric-wide view."""
        if message.min_finalized > self.fabric_min_epoch:
            self.fabric_min_epoch = message.min_finalized
        records = message.records
        snapshot = self.snapshots.get(message.epoch)
        if (records and snapshot is not None
                and snapshot.status is SnapshotStatus.PENDING
                and snapshot.add_records(records)):
            self.records_in += len(records)
            if snapshot.complete:
                self._resolve(snapshot, SnapshotStatus.COMPLETE)
            return
        for record in records:
            self.on_unit_record(record)

    # ------------------------------------------------------------------
    # Progress checking, retries, device exclusion
    # ------------------------------------------------------------------
    def _check_progress(self, epoch: int) -> None:
        snapshot = self.snapshots[epoch]
        if snapshot.status is not SnapshotStatus.PENDING:
            return
        if snapshot.retries < self.config.max_retries:
            snapshot.retries += 1
            self.retry_rounds += 1
            # Re-register the initiation: duplicate initiations are
            # ignored by data planes that already advanced, and they
            # recover lost registration/initiation messages.  The loss
            # being recovered may be a dead relay inside the tree, so a
            # retry must never depend on the silent part of the fabric:
            # with a tree wired, healthy subtrees are re-covered by one
            # send to the root and each stranded subtree is rerouted
            # around its silent relay; without one (or when silence
            # gives the tree nothing to route around), every control
            # plane is unicast directly.
            at_wall = self.sim.now + self.config.lead_time_ns
            if not self._retry_around_silence(snapshot, at_wall):
                for cp in self.control_planes.values():
                    self.mgmt.send(cp.schedule_initiation, epoch, at_wall)
                    self.retry_unicasts += 1
            self.sim.schedule(self.config.retry_timeout_ns,
                              self._check_progress, epoch)
            return
        # Out of retries.  "If a device fails, it may timeout and be
        # excluded" (§6) — but only after the full device timeout has
        # elapsed since the snapshot's scheduled instant, so a slow
        # device is not confused with a dead one.  The deadline check
        # runs at most once: when it fires, now >= deadline.
        deadline = snapshot.requested_wall_ns + self.config.device_timeout_ns
        if self.sim.now < deadline:
            self.sim.schedule_at(deadline, self._check_progress, epoch)
            return
        # Exclude devices that never reported anything.  Sorted so the
        # exclusion order (and any log/audit keyed on it) is independent
        # of the hash seed.
        silent = {u.device for u in snapshot.missing_units}
        reported = {u.device for u in snapshot.records}
        silent_devices = sorted(silent - reported)
        silent_set = set(silent_devices)
        for device in silent_devices:
            snapshot.exclude_device(device,
                                    reason=self._silence_reason(device,
                                                                silent_set))
        if snapshot.complete:
            self._resolve(snapshot, SnapshotStatus.COMPLETE)
        else:
            self._resolve(snapshot, SnapshotStatus.PARTIAL)

    def _retry_around_silence(self, snapshot: GlobalSnapshot,
                              at_wall_ns: int) -> bool:
        """Tree-aware retry routing; returns True when it handled the
        round (False falls back to the full unicast sweep).

        One fabric send to the root re-initiates every subtree whose
        relays are alive (duplicate initiations are ignored).  Each
        *highest* silent device — the relay whose silence strands its
        descendants, the same attribution :meth:`_silence_reason` pins
        exclusions on — then gets a direct unicast (it may merely be
        slow) while its children are re-initiated subtree-by-subtree,
        bypassing the dead relay on the way down.  Cost per round is
        1 + culprits x (1 + fan-out) instead of O(devices).
        """
        tree, forward = self.relay_tree, self.forward_init
        if tree is None:
            return False
        assert forward is not None  # wired with the tree
        reported = {u.device for u in snapshot.records}
        silent_devices = sorted({u.device for u in snapshot.missing_units}
                                - reported)
        if not silent_devices or not reported:
            # Nothing attributably silent (records lost from devices
            # that did report), or *everything* silent (the root itself
            # may be down): no subtree to route around — unicast.
            return False
        silent_set = set(silent_devices)
        forward(tree.root, snapshot.epoch, at_wall_ns)
        self.retry_fabric_sends += 1
        for device in silent_devices:
            if any(a in silent_set for a in tree.ancestors(device)):
                continue  # stranded descendant: its culprit's round covers it
            cp = self.control_planes.get(device)
            if cp is not None:
                self.mgmt.send(cp.schedule_initiation,
                               snapshot.epoch, at_wall_ns)
                self.retry_unicasts += 1
            for child in tree.children.get(device, ()):
                forward(child, snapshot.epoch, at_wall_ns)
                self.retry_subtree_sends += 1
        return True

    def _silence_reason(self, device: str, silent_set: set[str]) -> str:
        """Attribute one silent device's exclusion.

        With an aggregation tree, a dead relay silences its entire
        subtree — the descendants' control planes may be perfectly
        healthy, their records merely lost at the relay.  Marking them
        plain ``"silent"`` would blame the wrong devices, so the timeout
        path pins the silence on the highest silent ancestor instead:
        the relay itself stays ``"silent"``, everything beneath it reads
        ``"relay:<ancestor>"``.
        """
        if self.relay_tree is None or device not in self.relay_tree.parent:
            return "silent"
        culprit: Optional[str] = None
        for ancestor in self.relay_tree.ancestors(device):
            if ancestor in silent_set:
                culprit = ancestor  # keep walking: highest wins
        if culprit is None:
            return "silent"
        return f"relay:{culprit}"

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self, epoch: int) -> GlobalSnapshot:
        return self.snapshots[epoch]

    def completed_snapshots(self, require_consistent: bool = False) -> list[GlobalSnapshot]:
        """All COMPLETE snapshots, in epoch order."""
        result = [s for _e, s in sorted(self.snapshots.items())
                  if s.status is SnapshotStatus.COMPLETE]
        if require_consistent:
            result = [s for s in result if s.consistent]
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        done = sum(1 for s in self.snapshots.values()
                   if s.status is SnapshotStatus.COMPLETE)
        return (f"SnapshotObserver(devices={len(self.control_planes)}, "
                f"snapshots={len(self.snapshots)}, complete={done})")
