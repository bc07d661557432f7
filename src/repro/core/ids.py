"""Snapshot-ID arithmetic with wraparound.

The data plane stores snapshot IDs in small registers, so "Speedlight
enables rollover of the snapshot ID to 0 after reaching the maximum ID"
(§5.3) under the assumption that "no ID in the system is ever 'lapped'".
The snapshot observer enforces that assumption out-of-band by bounding
how many snapshots can be outstanding at once.

:class:`IdSpace` centralises every wrapped-ID operation:

* wrapping an unbounded logical epoch into register width,
* circular comparison of two wrapped IDs,
* unwrapping a wrapped ID against an unwrapped reference held by the
  control plane (which tracks 64-bit logical epochs).

Comparison convention: we use the symmetric half-window rule — two
wrapped IDs compare correctly as long as their true (unwrapped) epochs
differ by at most ``window = (N - 1) // 2`` where ``N = max_sid + 1``.
The paper instead leans on the Last Seen array as a rollover reference,
which tolerates a spread up to ``N - 1``; the half-window rule is
simpler, strictly safe, and the observer's outstanding-snapshot bound is
set to ``window`` accordingly (documented deviation; see DESIGN.md).

``max_sid=None`` selects an unbounded ID space (the idealised protocol
of Figure 3, and the "Packet Count" Table 1 variant without wraparound
support, which simply requires the observer to reset before overflow).
"""

from __future__ import annotations

from typing import Optional


class IdSpace:
    """Wrapped snapshot-ID arithmetic."""

    def __init__(self, max_sid: Optional[int] = None) -> None:
        if max_sid is not None and max_sid < 3:
            raise ValueError("max_sid must be >= 3 (window would be empty)")
        self.max_sid = max_sid
        # Computed once: ``cmp`` runs per packet per snapshot unit and
        # ``unwrap_onto`` twice per notification.  The window is
        # (size - 1) // 2, or effectively unbounded.
        self._size = None if max_sid is None else max_sid + 1
        self._window = 2**62 if max_sid is None else max_sid // 2

    @property
    def size(self) -> Optional[int]:
        """Number of distinct wrapped IDs (None when unbounded)."""
        return self._size

    @property
    def window(self) -> int:
        """Largest spread of concurrently live epochs that compares
        correctly.  The observer must not let snapshots outstanding
        exceed this."""
        return self._window

    def wrap(self, unwrapped: int) -> int:
        """Logical epoch -> register value."""
        if unwrapped < 0:
            raise ValueError(f"epochs are non-negative, got {unwrapped}")
        if self._size is None:
            return unwrapped
        return unwrapped % self._size

    def cmp(self, a: int, b: int) -> int:
        """Circular comparison of wrapped IDs ``a`` and ``b``.

        Returns -1, 0 or 1 as ``a`` is before, equal to, or after ``b``.
        Correct when the true epochs differ by at most :attr:`window`.
        """
        max_sid = self.max_sid
        if max_sid is None:
            return (a > b) - (a < b)
        if not (0 <= a <= max_sid and 0 <= b <= max_sid):
            self._check(a)
            self._check(b)
        if a == b:
            return 0
        delta = (a - b) % self._size
        return 1 if delta <= self._window else -1

    def unwrap_onto(self, wrapped: int, reference: int) -> int:
        """Map ``wrapped`` to the unwrapped epoch nearest ``reference``.

        ``reference`` is an unwrapped epoch the caller knows is within
        :attr:`window` of the answer (e.g. the control plane's current
        view of the unit's epoch).  Picks the representative of
        ``wrapped``'s congruence class closest to ``reference``.
        """
        size = self._size
        if size is None:
            return wrapped
        if not 0 <= wrapped < size:
            self._check(wrapped)
        # The class has one member in [reference, reference + size); it
        # or the one a lap behind is nearest, the one behind on a tie.
        ahead = (wrapped - reference) % size
        if 2 * ahead < size:
            return reference + ahead
        return max(reference + ahead - size, 0)

    def _check(self, value: int) -> None:
        if not 0 <= value <= self.max_sid:
            raise ValueError(
                f"wrapped ID {value} out of range [0, {self.max_sid}]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdSpace(max_sid={self.max_sid})"
