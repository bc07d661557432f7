"""Snapshot-based verdicts on coordinated updates.

The verifier answers the §8 question — "is my network update
consistent?" — from synchronized snapshots instead of trust:

* **Atomicity** — one ``fib_version`` snapshot straddles each wave's
  generation-bumping instant (:attr:`UpdateWave.verdict_at_ns`); the
  verdict reads, per device, the *minimum* captured **ingress**
  ``last_matched_version`` register.  The atomicity score is the
  fraction of the wave's updated devices whose minimum is at least the
  expected generation in one causally consistent cut.

  Why a straddling snapshot can catch a skewed swap even though the
  snapshot rides the *same* local clocks (naively the errors cancel):
  snapshot IDs propagate in-band.  A fast-clocked neighbor enters the
  new epoch early and its tagged data packets pull a slow device's
  ingress units into the epoch **before that device's local swap** —
  so those registers are captured still holding the old generation.
  The cancellation breaks exactly where mixed forwarding state is
  observable, which is the point.

* **Transient loops** — with sender TTLs armed, a forwarding loop turns
  into ``ttl_expired`` drops; the verdict counts the drops inside each
  wave's command window (± a margin) and attributes them to the wave.

* **Black holes** — ``unroutable`` drops inside the window, attributed
  to devices whose wave includes a route withdrawal (a drain that beat
  its redirect is *attributed*; drops elsewhere are collateral).

A wave whose straddling snapshot is incomplete or inconsistent renders
an **inconclusive** verdict (``atomicity=None``) rather than a guess.
Conservation/`LinkAudit` cross-checks run on a separate
``packet_count``-metric pass (see :mod:`repro.experiments.updates`) —
gauge snapshots carry no conserved quantity to audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from typing import Optional

from repro.core.snapshot import GlobalSnapshot
from repro.sim.engine import MS
from repro.sim.switch import Direction
from repro.updates.driver import DropRecord
from repro.updates.plan import UpdateSchedule, UpdateWave

__all__ = ["UpdateVerifier", "WaveVerdict"]


@dataclass(frozen=True)
class WaveVerdict:
    """The snapshot verdict on one update wave."""

    wave: int
    strategy: str
    label: str
    #: Epoch of the straddling snapshot (None if never taken/usable).
    epoch: Optional[int]
    #: False when the straddling cut was unusable — atomicity is then
    #: None, never a guess.  Drop counts stay valid regardless.
    conclusive: bool
    atomicity: Optional[float]
    devices_on_new: int
    devices_total: int
    #: Updated devices whose captured minimum generation was old.
    stale_devices: tuple[str, ...]
    #: TTL-expiry drops inside the wave window (loop signature).
    loop_drops: int
    #: Unroutable drops inside the wave window (black-hole signature).
    blackhole_drops: int
    #: Devices where unroutable drops landed.
    blackhole_devices: tuple[str, ...]
    #: Black-hole drops at devices whose wave withdrew a route.
    attributed_blackholes: int


class UpdateVerifier:
    """Renders per-wave verdicts from snapshots plus the drop log."""

    def __init__(self, schedule: UpdateSchedule, *,
                 margin_ns: int = 1 * MS) -> None:
        if margin_ns < 0:
            raise ValueError(f"margin_ns must be >= 0, got {margin_ns}")
        self.schedule = schedule
        self.margin_ns = margin_ns

    # ------------------------------------------------------------------
    # What to snapshot
    # ------------------------------------------------------------------
    def snapshot_instants(self) -> dict[int, int]:
        """Wave index -> the wall instant its verdict snapshot must
        straddle (the wave's generation-bumping instant)."""
        return {w.index: w.verdict_at_ns for w in self.schedule.waves}

    # ------------------------------------------------------------------
    # Reading the cut
    # ------------------------------------------------------------------
    @staticmethod
    def device_generations(snapshot: GlobalSnapshot) -> dict[str, int]:
        """Per device, the minimum captured **ingress**
        ``last_matched_version`` register — the device's generation as
        witnessed by the cut.  Egress rows are excluded: forwarding
        decisions happen at ingress only, so the egress ``fib_version``
        rows are constant zero by construction."""
        gens: dict[str, int] = {}
        for unit, value, *_ in snapshot.rows():
            if unit.direction != Direction.INGRESS:
                continue
            current = gens.get(unit.device)
            if current is None or value < current:
                gens[unit.device] = value
        return gens

    def expected_generations(self, wave_index: int) -> dict[str, int]:
        """Per device, the generation it should be on once every swap
        up to and including ``wave_index`` has applied (the built table is
        generation 0; each swap bumps exactly once)."""
        counts: dict[str, int] = {}
        for cmd in self.schedule.commands:
            if cmd.op == "swap" and cmd.wave <= wave_index:
                counts[cmd.device] = counts.get(cmd.device, 0) + 1
        return counts

    def wave_devices(self, wave_index: int) -> tuple[str, ...]:
        """Devices updated (swapped) in one wave — the atomicity
        denominator; devices the wave never touches cannot witness it."""
        return tuple(sorted({c.device for c in
                             self.schedule.swap_commands(wave=wave_index)}))

    def _removal_devices(self, wave_index: int) -> set[str]:
        return {c.device for c in self.schedule.swap_commands(wave=wave_index)
                if any(not via for _dst, via in c.changes)}

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def verdict(self, wave: UpdateWave,
                snapshot: Optional[GlobalSnapshot],
                drops: Iterable[DropRecord]) -> WaveVerdict:
        epoch = snapshot.epoch if snapshot is not None else None
        usable = snapshot is not None and snapshot.usable
        gens = self.device_generations(snapshot) if usable else None
        return self.verdict_data(wave, gens, epoch, drops)

    def verdict_data(self, wave: UpdateWave,
                     gens: Optional[Mapping[str, int]],
                     epoch: Optional[int],
                     drops: Iterable[DropRecord]) -> WaveVerdict:
        """Render a verdict from pre-extracted per-device generations
        (``gens`` None = the straddling cut was unusable).  The sharded
        path ships these plain mappings across the worker pipe instead
        of whole :class:`GlobalSnapshot` objects."""
        start = wave.window_start_ns - self.margin_ns
        end = wave.window_end_ns + self.margin_ns
        loop_drops = 0
        blackhole_drops = 0
        blackhole_devices: set[str] = set()
        removal_devices = self._removal_devices(wave.index)
        attributed = 0
        for drop in drops:
            if not start <= drop.time_ns <= end:
                continue
            if drop.kind == "ttl_expired":
                loop_drops += 1
            elif drop.kind == "unroutable":
                blackhole_drops += 1
                blackhole_devices.add(drop.device)
                if drop.device in removal_devices:
                    attributed += 1
        devices = self.wave_devices(wave.index)
        if gens is None:
            return WaveVerdict(
                wave=wave.index, strategy=wave.strategy, label=wave.label,
                epoch=epoch, conclusive=False, atomicity=None,
                devices_on_new=0, devices_total=len(devices),
                stale_devices=(), loop_drops=loop_drops,
                blackhole_drops=blackhole_drops,
                blackhole_devices=tuple(sorted(blackhole_devices)),
                attributed_blackholes=attributed)
        expected = self.expected_generations(wave.index)
        witnessed = [d for d in devices if d in gens]
        stale = tuple(d for d in witnessed if gens[d] < expected.get(d, 0))
        on_new = len(witnessed) - len(stale)
        atomicity = (on_new / len(witnessed)) if witnessed else None
        return WaveVerdict(
            wave=wave.index, strategy=wave.strategy, label=wave.label,
            epoch=epoch, conclusive=bool(witnessed), atomicity=atomicity,
            devices_on_new=on_new, devices_total=len(witnessed),
            stale_devices=stale, loop_drops=loop_drops,
            blackhole_drops=blackhole_drops,
            blackhole_devices=tuple(sorted(blackhole_devices)),
            attributed_blackholes=attributed)

    def verdicts(self, snapshots_by_wave: Mapping[int, Optional[GlobalSnapshot]],
                 drops: Iterable[DropRecord]) -> list[WaveVerdict]:
        """One verdict per wave, in wave order.  ``snapshots_by_wave``
        maps wave index to its straddling snapshot (missing/None waves
        render inconclusive)."""
        drop_list = list(drops)
        return [self.verdict(wave, snapshots_by_wave.get(wave.index),
                             drop_list)
                for wave in self.schedule.waves]
