"""Speedlight's hardware-constrained data-plane snapshot unit.

This implements the per-processing-unit logic of Figures 4 and 5 with
the Tofino limitations of §5.3 modelled explicitly:

* **No intermediate-ID loops.**  When a packet's snapshot ID is ahead of
  the local ID by more than one, the unit saves local state into the
  *packet's* slot only; skipped slots never receive local state.  The
  control plane detects the skip from the notification and reacts
  (mark-inconsistent with channel state, value inference without).
* **Single-slot channel-state updates.**  An in-flight packet (carried ID
  behind the local ID) credits the channel state of the *current* slot
  only — one stateful-ALU operation.  That credit is exactly right when
  the gap is one (the common case) and leaves the intermediate slots
  wrong when it is larger, which is why the control plane marks those
  slots inconsistent (§6, Figure 7 case 1).
* **Bounded registers.**  Snapshot IDs and the slot array wrap
  (:class:`~repro.core.ids.IdSpace`); the observer enforces the
  no-lapping window out-of-band.
* **Notifications.**  Any change to the local ID or a Last Seen entry
  emits a :class:`~repro.core.notifications.Notification` carrying the
  old and new values of both (§5.3).

The unit is substrate-agnostic: it sees packets through the
``SnapshotAgent`` protocol of :mod:`repro.sim.switch` and reads the
metric through a bound ``value_fn`` (the register the operator chose to
snapshot).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional

from repro.core.ids import IdSpace
from repro.core.notifications import Notification
from repro.sim.packet import Packet, PacketType
from repro.sim.switch import UnitId

#: Cached enum member for identity checks on the per-packet path.
_DATA = PacketType.DATA


class SnapshotSlot:
    """One entry of the Snapshot Value register array, as a register
    read returns it: a copy, so writing to it does not change the
    register.

    ``valid`` models the hardware valid bit: the control plane clears it
    after reading so a slot reused post-wraparound is distinguishable
    from a stale one.  ``channel_state`` accumulates in-flight credits
    (metric-specific; packet counts by default).

    Slotted by hand: ``dataclass(slots=True)`` needs Python 3.10, and a
    dataclass cannot combine ``__slots__`` with defaults.
    """

    __slots__ = ("valid", "value", "channel_state", "captured_ns")

    def __init__(self, valid: bool = False, value: int = 0,
                 channel_state: int = 0, captured_ns: int = 0) -> None:
        self.valid = valid
        self.value = value
        self.channel_state = channel_state
        self.captured_ns = captured_ns


class SpeedlightUnit:
    """The per-unit data-plane snapshot logic (Figures 4 & 5)."""

    def __init__(self, unit_id: UnitId, id_space: IdSpace,
                 value_fn: Callable[[], int], *,
                 channel_state: bool = False,
                 notify: Optional[Callable[[Notification], None]] = None,
                 in_flight_value_fn: Optional[Callable[[Packet], int]] = None) -> None:
        self.unit_id = unit_id
        self.ids = id_space
        self._cmp = id_space.cmp  # bound once; called 1-2x per packet
        self.value_fn = value_fn
        self.channel_state = channel_state
        self.notify = notify
        #: Contribution of one in-flight packet to channel state.  The
        #: default (1 per packet) suits packet counts; byte counts pass
        #: ``lambda pkt: pkt.size_bytes``.
        self.in_flight_value_fn = in_flight_value_fn or (lambda pkt: 1)

        self._sid = 0  # wrapped; registers power up at zero (§6)
        #: Follows ``_sid`` without channel state: a packet carrying the
        #: current ID then changes nothing but ``packets_seen``, so the
        #: switch counts that pass itself (``SnapshotAgent.quiet_sid``).
        self.quiet_sid: Optional[int] = None if channel_state else 0
        self.last_seen: dict[int, int] = {}
        # The Snapshot Value register array, keyed by wrapped ID and
        # filled on first write; a slot is valid iff it has a value.
        # Keep them int-only: CPython never tracks such dicts, so the
        # cyclic collector never walks a unit's registers.
        self._values: dict[int, int] = {}
        self._channel: dict[int, int] = {}
        self._captured_ns: dict[int, int] = {}
        self.packets_seen = 0
        self.notifications_emitted = 0

    # ------------------------------------------------------------------
    # SnapshotAgent protocol
    # ------------------------------------------------------------------
    @property
    def sid(self) -> int:
        """Current (wrapped) snapshot ID register."""
        return self._sid

    def process_packet(self, packet: Packet, channel_id: int, now_ns: int) -> int:
        """One pipeline pass of the snapshot match-action stages."""
        self.packets_seen += 1
        header = packet.snapshot
        assert header is not None, "snapshot unit fed a headerless packet"
        old_sid = self._sid
        header_sid = header.sid
        # The common case — the packet carries the current epoch — skips
        # the circular comparison entirely (cmp == 0 iff the IDs are
        # equal, and ``_sid`` is always in range).
        if header_sid != old_sid:
            if self._cmp(header_sid, old_sid) > 0:
                # New snapshot: save local state into the packet's slot.
                # The hardware cannot loop over skipped intermediate
                # slots.
                self._capture(header_sid, now_ns)
                self._sid = header_sid
                if self.quiet_sid is not None:
                    self.quiet_sid = header_sid
            elif self.channel_state and header.packet_type is _DATA:
                # In-flight packet: one register op credits the current
                # slot.  (Initiations are "never considered an in-flight
                # packet", §6.)
                channel = self._channel
                channel[old_sid] = (channel.get(old_sid, 0)
                                    + self.in_flight_value_fn(packet))

        old_ls: Optional[int] = None
        new_ls: Optional[int] = None
        ls_changed = False
        if self.channel_state:
            old_ls = self.last_seen.get(channel_id, 0)
            new_ls = header_sid
            # Last Seen tracks the most recent epoch observed on the
            # channel; it never moves backwards.
            if new_ls != old_ls and self._cmp(new_ls, old_ls) > 0:
                self.last_seen[channel_id] = new_ls
                ls_changed = True
            else:
                new_ls = old_ls

        if old_sid != self._sid or ls_changed:
            self.notifications_emitted += 1
            if self.notify is not None:
                self.notify(Notification(
                    self.unit_id, old_sid, self._sid, now_ns,
                    channel_id if self.channel_state else None, old_ls, new_ls))
        return self._sid

    # ------------------------------------------------------------------
    # Register plumbing
    # ------------------------------------------------------------------
    def _capture(self, wrapped_sid: int, now_ns: int) -> None:
        self._values[wrapped_sid] = self.value_fn()
        self._channel[wrapped_sid] = 0
        self._captured_ns[wrapped_sid] = now_ns

    # ------------------------------------------------------------------
    # Control-plane register access
    # ------------------------------------------------------------------
    def read_slot(self, wrapped_sid: int) -> SnapshotSlot:
        """Register read of one Snapshot Value entry (PCIe access); a slot
        never written reads as the powered-up zeros."""
        value = self._values.get(wrapped_sid)
        if value is None:  # may still hold an in-flight credit
            return SnapshotSlot(False, 0, self._channel.get(wrapped_sid, 0))
        return SnapshotSlot(True, value, self._channel[wrapped_sid],
                            self._captured_ns[wrapped_sid])

    def take_slot(self, wrapped_sid: int) -> Optional[tuple[int, int]]:
        """:meth:`read_slot` then :meth:`clear_slot` in one call: the
        slot's ``(value, captured_ns)``, or None if it was not valid."""
        value = self._values.pop(wrapped_sid, None)
        self._channel.pop(wrapped_sid, None)
        captured_ns = self._captured_ns.pop(wrapped_sid, 0)
        return None if value is None else (value, captured_ns)

    def clear_slot(self, wrapped_sid: int) -> None:
        """Reset a slot's valid bit after the control plane consumed it,
        making the slot safe for reuse after ID wraparound."""
        self._values.pop(wrapped_sid, None)
        self._channel.pop(wrapped_sid, None)
        self._captured_ns.pop(wrapped_sid, None)

    def read_last_seen(self, channel_id: int) -> int:
        return self.last_seen.get(channel_id, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpeedlightUnit({self.unit_id}, sid={self._sid})"
