"""Snapshot notifications: the data-plane → control-plane channel.

"After any update of either the local Snapshot ID or of any Last Seen
array entry, the data plane exports a notification to the CPU to assist
in determining snapshot progress/completeness.  For an upstream neighbor
n, this notification includes the former value of LastSeen[n] along with
the former and new Snapshot ID." (§5.3)

All four values are needed because notifications can be *dropped* (the
CPU socket buffer overflows under load — the Figure 10 bottleneck): the
old values let the control plane detect that it missed an update and
handle the gap conservatively.

IDs in notifications are **wrapped** (they come from data-plane
registers); the control plane unwraps them against its 64-bit view.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.sim.switch import UnitId


class Notification(NamedTuple):
    """One data-plane progress report.

    ``channel``/``old_last_seen``/``new_last_seen`` are ``None`` for
    deployments without channel state, which do not maintain a Last Seen
    array (Figure 3, onReceiveNoCS).

    A named tuple rather than a frozen dataclass: as immutable and as
    comparable, but one tuple allocation instead of seven
    ``object.__setattr__`` calls per snapshot-ID or Last Seen change.
    """

    unit: UnitId
    old_sid: int
    new_sid: int
    timestamp_ns: int
    channel: Optional[int] = None
    old_last_seen: Optional[int] = None
    new_last_seen: Optional[int] = None
