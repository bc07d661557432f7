"""Ground-truth causal-consistency checking.

The paper proves (§4.2) that the snapshot cut is causally consistent:
for every pre-snapshot receive, the matching send is pre-snapshot.  For
accumulator metrics this implies a *conservation law* we can check
mechanically against the simulator's ground-truth trace:

With channel state (packet counts), for every unit ``u`` and consistent
epoch ``i``::

    value_u(i) + channel_u(i)  ==  #{DATA packets arriving at u carrying
                                     an epoch < i}

because the right-hand side is exactly the set of packets *sent*
pre-``i`` by upstream units: each is either processed before ``u``'s
local capture (counted in ``value``) or in flight across the cut
(credited to ``channel``).  Without channel state, the local cut
placement is checked instead::

    value_u(i)  ==  #{DATA packets processed at u while u's ID < i}

Any snapshot the control plane reports as consistent must satisfy these
exactly; the checker raises :class:`ConsistencyViolation` otherwise.
Snapshots marked inconsistent are expected to violate the first law —
the checker can confirm that the marking is not overly optimistic.

The checker consumes :class:`~repro.sim.switch.TraceEvent` records
(enable them with ``NetworkConfig(enable_tracing=True)``) and unwraps
the wrapped on-wire IDs by tracking each unit's monotone epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.core.ids import IdSpace
from repro.core.snapshot import GlobalSnapshot
from repro.counters import METRICS
from repro.sim.switch import TraceEvent, UnitId


class ConsistencyViolation(AssertionError):
    """A snapshot declared consistent fails the conservation law."""


@dataclass
class ConsistencyAudit:
    """Outcome of :meth:`ConsistencyChecker.audit` over a campaign."""

    snapshots_checked: int = 0
    incomplete: int = 0
    records_checked: int = 0
    records_flagged: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff no consistent-claimed record was silently wrong."""
        return not self.violations

    def __str__(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (f"checked {self.snapshots_checked} snapshots "
                f"({self.records_checked} records, "
                f"{self.records_flagged} flagged inconsistent, "
                f"{self.incomplete} incomplete) -> {verdict}")


@dataclass
class _UnitHistory:
    """Per-unit arrival history in unwrapped epochs."""

    #: Unwrapped carried epoch of each DATA arrival, in time order.
    carried: list[int] = field(default_factory=list)
    #: Unwrapped unit epoch after processing each DATA arrival.
    after: list[int] = field(default_factory=list)
    #: Contribution of each arrival (1 for packet counts, size for bytes).
    weight: list[int] = field(default_factory=list)
    #: Running unwrapped epoch (for unwrap references).
    current_epoch: int = 0


class ConsistencyChecker:
    """Replays trace events and validates snapshot cuts."""

    def __init__(self, id_space: IdSpace, metric: str = "packet_count") -> None:
        in_flight = METRICS[metric].in_flight if metric in METRICS else None
        if in_flight is None:
            raise ValueError(
                "conservation checking only applies to accumulator metrics")
        self.ids = id_space
        self.metric = metric
        self._weight = in_flight
        self._history: dict[UnitId, _UnitHistory] = {}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[TraceEvent]) -> None:
        """Add trace events (must be fed in simulation-time order)."""
        for event in events:
            history = self._history.setdefault(event.unit, _UnitHistory())
            after = self.ids.unwrap_onto(event.unit_sid_after,
                                         history.current_epoch)
            after = max(after, history.current_epoch)  # epochs never regress
            history.current_epoch = after
            if not event.is_data:
                continue
            carried = self.ids.unwrap_onto(event.carried_sid, after)
            carried = min(carried, after)  # a send epoch never exceeds ours
            history.carried.append(carried)
            history.after.append(after)
            history.weight.append(self._weight(event))

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def expected_with_channel_state(self, unit: UnitId, epoch: int) -> int:
        """Ground-truth value+channel total for ``epoch`` at ``unit``."""
        history = self._history.get(unit)
        if history is None:
            return 0
        return sum(w for c, w in zip(history.carried, history.weight)
                   if c < epoch)

    def expected_without_channel_state(self, unit: UnitId, epoch: int) -> int:
        """Ground-truth local value for ``epoch`` at ``unit``."""
        history = self._history.get(unit)
        if history is None:
            return 0
        return sum(w for a, w in zip(history.after, history.weight)
                   if a < epoch)

    def violations_of(self, snapshot: GlobalSnapshot,
                      channel_state: bool) -> list[str]:
        """Conservation-law violations of one snapshot, as messages.

        Only consistent records are held to the conservation law;
        records the control plane flagged inconsistent are exempt (that
        is the flag's purpose).  Non-raising so fault experiments can
        audit whole campaigns and report, not abort.
        """
        return self._check(snapshot, channel_state)[1]

    def _check(self, snapshot: GlobalSnapshot,
               channel_state: bool) -> tuple[int, list[str]]:
        """One walk over the rows: (records flagged, violations)."""
        epoch = snapshot.epoch
        flagged = 0
        problems: list[str] = []
        for unit, value, state, consistent, *_ in sorted(
                snapshot.rows(), key=lambda row: str(row[0])):
            if not consistent:
                flagged += 1
                continue
            if channel_state:
                expected = self.expected_with_channel_state(unit, epoch)
                actual = value + (state or 0)
                law = "value+channel == pre-epoch sends"
            else:
                expected = self.expected_without_channel_state(unit, epoch)
                actual = value
                law = "value == pre-capture arrivals"
            if actual != expected:
                problems.append(
                    f"epoch {epoch} at {unit}: {law} violated "
                    f"(snapshot says {actual}, ground truth {expected})")
        return flagged, problems

    def check_all(self, snapshots: Sequence[GlobalSnapshot],
                  channel_state: bool) -> int:
        """Check a batch; returns the number of records validated."""
        checked = 0
        for snapshot in snapshots:
            flagged, problems = self._check(snapshot, channel_state)
            if problems:
                raise ConsistencyViolation(problems[0])
            checked += snapshot.record_count - flagged
        return checked

    def audit(self, snapshots: Sequence[GlobalSnapshot],
              channel_state: bool) -> "ConsistencyAudit":
        """Audit a whole campaign (the fault-experiment verification pass).

        Complete snapshots are checked record-by-record against the
        ground-truth conservation law; violations are collected, never
        raised.  The report distinguishes records *flagged* inconsistent
        (protocol honesty — expected under faults) from records claimed
        consistent yet wrong (a real bug — never acceptable).
        """
        report = ConsistencyAudit()
        for snapshot in snapshots:
            if not snapshot.complete:
                report.incomplete += 1
                continue
            report.snapshots_checked += 1
            flagged, problems = self._check(snapshot, channel_state)
            report.records_flagged += flagged
            report.records_checked += snapshot.record_count - flagged
            report.violations.extend(problems)
        return report
