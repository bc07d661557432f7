"""Per-device clocks with drift and PTP-style synchronisation.

Speedlight's synchronized initiation rests on the control planes of all
devices sharing an approximately common notion of time (the paper uses
``ptp4l``/``phc2sys``).  We model:

* **Frequency drift.**  Each clock runs at ``1 + drift_ppb * 1e-9`` times
  true (simulator) time; drift is drawn once per clock from a configurable
  range typical of crystal oscillators (tens of ppm at the extreme, a few
  ppm when disciplined).
* **Offset.**  The difference between local and true time at the moment of
  the last synchronisation.
* **PTP resync.**  A :class:`PTPService` periodically snaps every clock's
  offset to a fresh residual error sampled from a configurable
  distribution.  Good datacenter PTP leaves single-digit microsecond
  residuals; NTP leaves ~1 ms (the paper's §2.1 contrast).

The conversion methods are exact inverses of each other so that a device
scheduling an action "at local time L" lands at a well-defined true time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Simulator, S, check_minimums


class Clock:
    """A local clock with frequency drift and settable offset.

    ``local = true + offset + drift_ppb * (true - sync_point) / 1e9``

    where ``sync_point`` is the true time of the last resynchronisation.
    """

    def __init__(self, drift_ppb: int = 0, offset_ns: int = 0) -> None:
        self.drift_ppb = int(drift_ppb)
        self.offset_ns = int(offset_ns)
        self.sync_point_ns = 0

    def local_time(self, true_ns: int) -> int:
        """Convert true (simulator) time to this clock's local time."""
        drift = self.drift_ppb
        if not drift:  # identity fast path: a disciplined, drift-free clock
            return true_ns + self.offset_ns
        elapsed = true_ns - self.sync_point_ns
        return true_ns + self.offset_ns + (drift * elapsed) // 1_000_000_000

    def true_time(self, local_ns: int) -> int:
        """Convert a local timestamp back to true time.

        Exact inverse of :meth:`local_time` on its image: returns the
        greatest true time ``t`` with ``local_time(t) <= local_ns``, so
        ``local_time(true_time(L)) == L`` whenever ``L`` is a reading
        the clock can actually produce.  (The naive algebraic inverse
        floor-divides with a different denominator than the forward
        map and lands 1 ns off for some negative drifts.)
        """
        drift = self.drift_ppb
        if not drift:
            return local_ns - self.offset_ns
        # local = true + offset + floor(drift*(true - sp)/1e9); start from
        # the real-valued inverse, then correct the floor asymmetry.
        numer = ((local_ns - self.offset_ns) * 1_000_000_000
                 + drift * self.sync_point_ns)
        t = numer // (1_000_000_000 + drift)
        while self.local_time(t) > local_ns:
            t -= 1
        while self.local_time(t + 1) <= local_ns:
            t += 1
        return t

    def resync(self, true_ns: int, residual_error_ns: int) -> None:
        """Discipline the clock at ``true_ns``, leaving ``residual_error_ns``
        of offset (positive means the local clock reads ahead of true time).
        """
        self.sync_point_ns = true_ns
        self.offset_ns = int(residual_error_ns)

    def step(self, delta_ns: int) -> None:
        """Instantaneously step the clock by ``delta_ns`` (fault injection:
        a GPS glitch, a bad servo correction, an operator ``date -s``).
        The next PTP resync removes it; until then every local-time
        conversion — including initiation scheduling — is skewed."""
        self.offset_ns += int(delta_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(drift={self.drift_ppb}ppb, offset={self.offset_ns}ns)"


@dataclass
class PTPConfig:
    """Parameters of the PTP synchronisation model.

    Defaults are shaped to reproduce the paper's testbed numbers: residual
    offsets of a few microseconds with occasional heavier-tailed samples
    ("randomness in PTP, queuing, and scheduling", §8.1).
    """

    #: Interval between synchronisation rounds.
    sync_interval_ns: int = 1 * S
    #: Standard deviation of the Gaussian residual offset after a sync.
    residual_sigma_ns: int = 1_500
    #: Hard clamp on the residual magnitude (PTP servo never lets the
    #: offset run away on a healthy network).
    residual_max_ns: int = 8_000
    #: Probability that a sync round produces a heavy-tail residual
    #: (uniform in [residual_sigma, residual_max]) — models occasional
    #: delayed sync messages.
    tail_probability: float = 0.05
    #: Range of per-clock frequency drift assigned at attach time.
    drift_ppb_min: int = -40_000
    drift_ppb_max: int = 40_000

    def __post_init__(self) -> None:
        # A drift of -1e9 ppb stops the clock (Clock.true_time divides by
        # its rate).
        check_minimums(self, {
            "sync_interval_ns": 1, "residual_sigma_ns": 0, "residual_max_ns": 0,
            "tail_probability": (0.0, 1.0), "drift_ppb_min": 1 - 10**9,
            "drift_ppb_max": 1 - 10**9})
        if self.drift_ppb_min > self.drift_ppb_max:
            raise ValueError(
                f"PTPConfig.drift_ppb_min ({self.drift_ppb_min}) must be <= "
                f"PTPConfig.drift_ppb_max ({self.drift_ppb_max})")


class PTPService:
    """Periodically disciplines a set of clocks.

    Each clock attached to the service gets a drift drawn from the config
    range and is resynchronised every ``sync_interval_ns`` with a fresh
    residual offset.  ``start()`` performs an initial sync at the current
    simulation time so clocks are disciplined from the outset.
    """

    def __init__(self, sim: Simulator, rng: random.Random,
                 config: Optional[PTPConfig] = None) -> None:
        self.sim = sim
        self.rng = rng
        self.config = config or PTPConfig()
        self.clocks: dict[str, Clock] = {}
        self._started = False
        #: Clocks in holdover (fault injection): sync rounds skip them, so
        #: their drift accumulates undisciplined — the "PTP daemon died /
        #: grandmaster unreachable" failure mode.
        self._holdover: set[str] = set()

    def attach(self, name: str, clock: Optional[Clock] = None) -> Clock:
        """Register a clock under ``name``; creates one if not given."""
        if name in self.clocks:
            raise ValueError(f"clock {name!r} already attached")
        if clock is None:
            drift = self.rng.randint(self.config.drift_ppb_min,
                                     self.config.drift_ppb_max)
            clock = Clock(drift_ppb=drift)
        self.clocks[name] = clock
        if self._started:
            self._discipline(clock)
        return clock

    def start(self) -> None:
        """Perform the initial sync and schedule periodic resyncs."""
        if self._started:
            return
        self._started = True
        self._sync_round()

    def sample_residual(self) -> int:
        """Draw one residual offset error (signed, ns)."""
        cfg = self.config
        if self.rng.random() < cfg.tail_probability:
            magnitude = self.rng.uniform(cfg.residual_sigma_ns, cfg.residual_max_ns)
        else:
            magnitude = abs(self.rng.gauss(0.0, cfg.residual_sigma_ns))
            magnitude = min(magnitude, cfg.residual_max_ns)
        sign = 1 if self.rng.random() < 0.5 else -1
        return sign * int(magnitude)

    def _discipline(self, clock: Clock) -> None:
        clock.resync(self.sim.now, self.sample_residual())

    def _sync_round(self) -> None:
        if self._holdover:
            for name, clock in self.clocks.items():
                if name not in self._holdover:
                    self._discipline(clock)
        else:
            for clock in self.clocks.values():
                self._discipline(clock)
        self.sim.schedule(self.config.sync_interval_ns, self._sync_round)

    # ------------------------------------------------------------------
    # Fault injection (see :mod:`repro.faults`)
    # ------------------------------------------------------------------
    def hold(self, name: str) -> None:
        """Put a clock into holdover: stop disciplining it, letting its
        frequency drift accumulate until :meth:`release`."""
        if name not in self.clocks:
            raise KeyError(f"no clock named {name!r}")
        self._holdover.add(name)

    def release(self, name: str) -> None:
        """End holdover for a clock and immediately re-discipline it."""
        self._holdover.discard(name)
        if self._started:
            self._discipline(self.clocks[name])
