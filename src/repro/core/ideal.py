"""The idealised network snapshot protocol of Figure 3.

This is the algorithm as specified *before* hardware constraints: on a
forward jump the unit loops over every intermediate snapshot ID saving
local state, and an in-flight packet updates the channel state of every
snapshot between the packet's epoch and the local epoch.  No consistency
loss is possible.

It exists for three reasons:

* **Specification oracle** — property tests run Speedlight and the ideal
  unit side by side: wherever the control plane declares a Speedlight
  snapshot consistent, its value must equal the ideal unit's.
* **Ablation** — the ``ideal-vs-speedlight`` benchmark quantifies what
  the hardware limitations cost (how many snapshots get marked
  inconsistent under ID skips that the ideal protocol would absorb).
* **Readability** — it is the executable form of the paper's pseudocode.

The unit satisfies the same ``SnapshotAgent`` protocol as
:class:`~repro.core.dataplane.SpeedlightUnit`, so it can be dropped into
a simulated switch unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Optional

from repro.core.ids import IdSpace
from repro.core.notifications import Notification
from repro.sim.packet import Packet, PacketType
from repro.sim.switch import UnitId


@dataclass
class IdealSlot:
    """A snapshot record of the idealised protocol (always consistent).

    ``valid`` exists for control-plane register-API compatibility with
    :class:`~repro.core.dataplane.SnapshotSlot`; an ideal slot is valid
    from the moment it is captured.
    """

    value: int = 0
    channel_state: int = 0
    captured_ns: int = 0
    valid: bool = True


class IdealUnit:
    """Figure 3's per-processing-unit protocol, verbatim.

    Snapshot IDs are logical (unwrapped) integers; ``snaps`` holds every
    epoch ever captured.  ``onReceiveCS``/``onReceiveNoCS`` collapse into
    one method parameterised by ``channel_state``.
    """

    def __init__(self, unit_id: UnitId, value_fn: Callable[[], int], *,
                 channel_state: bool = False,
                 notify: Optional[Callable[[Notification], None]] = None,
                 in_flight_value_fn: Optional[Callable[[Packet], int]] = None) -> None:
        self.unit_id = unit_id
        self.ids = IdSpace(None)  # the ideal protocol never wraps
        self.value_fn = value_fn
        self.channel_state = channel_state
        self.notify = notify
        self.in_flight_value_fn = in_flight_value_fn or (lambda pkt: 1)
        self._sid = 0
        #: Follows ``_sid`` without channel state (``SnapshotAgent.quiet_sid``).
        self.quiet_sid: Optional[int] = None if channel_state else 0
        self.snaps: dict[int, IdealSlot] = {}
        self.last_seen: dict[int, int] = {}
        self.packets_seen = 0

    # ------------------------------------------------------------------
    # SnapshotAgent protocol
    # ------------------------------------------------------------------
    @property
    def sid(self) -> int:
        return self._sid

    def process_packet(self, packet: Packet, channel_id: int, now_ns: int) -> int:
        self.packets_seen += 1
        header = packet.snapshot
        assert header is not None, "snapshot unit fed a headerless packet"

        old_sid = self._sid
        if header.sid > self._sid:
            # New snapshot: save state for *every* intermediate epoch
            # (Figure 3 lines 4-5 / 16-17).
            for i in range(self._sid + 1, header.sid + 1):
                self.snaps[i] = IdealSlot(value=self.value_fn(),
                                          captured_ns=now_ns)
            self._sid = header.sid
            if self.quiet_sid is not None:
                self.quiet_sid = header.sid
        elif (header.sid < self._sid and self.channel_state
              and header.packet_type is PacketType.DATA):
            # In-flight packet: update the channel state of every epoch
            # it is in flight with respect to (lines 9-10).
            contribution = self.in_flight_value_fn(packet)
            for i in range(header.sid + 1, self._sid + 1):
                slot = self.snaps.get(i)
                if slot is not None:
                    slot.channel_state += contribution

        ls_changed = False
        old_ls = new_ls = None
        if self.channel_state:
            old_ls = self.last_seen.get(channel_id, 0)
            new_ls = max(old_ls, header.sid)
            if new_ls != old_ls:
                self.last_seen[channel_id] = new_ls
                ls_changed = True

        if old_sid != self._sid or ls_changed:
            if self.notify is not None:
                self.notify(Notification(
                    unit=self.unit_id, old_sid=old_sid, new_sid=self._sid,
                    timestamp_ns=now_ns,
                    channel=channel_id if self.channel_state else None,
                    old_last_seen=old_ls, new_last_seen=new_ls))
        return self._sid

    # ------------------------------------------------------------------
    # Control-plane register API (compatible with SpeedlightUnit, so the
    # same control plane can drive either unit type for the ablation)
    # ------------------------------------------------------------------
    _EMPTY = IdealSlot(valid=False)

    def read_slot(self, epoch: int) -> IdealSlot:
        return self.snaps.get(epoch, self._EMPTY)

    def clear_slot(self, epoch: int) -> None:
        self.snaps.pop(epoch, None)

    def take_slot(self, epoch: int) -> Optional[tuple[int, int]]:
        slot = self.snaps.pop(epoch, None)
        return None if slot is None else (slot.value, slot.captured_ns)

    def read_last_seen(self, channel_id: int) -> int:
        return self.last_seen.get(channel_id, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdealUnit({self.unit_id}, sid={self._sid})"
