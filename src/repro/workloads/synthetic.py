"""The generic traffic generator: Poisson.

The building block for tests and for custom measurement campaigns; the
application-shaped workloads in this package compose the same
primitives with application-specific structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import check_minimums
from repro.workloads.base import Workload, WorkloadConfig


@dataclass
class PoissonConfig(WorkloadConfig):
    """Every (src, dst) pair exchanges Poisson traffic."""

    #: Mean per-pair packet rate, packets/second.
    rate_pps: float = 10_000.0
    size_bytes: int = 1000
    #: Explicit pairs; None means all-to-all among participating hosts.
    pairs: Optional[list[tuple[str, str]]] = None
    #: Draw a fresh source port for every packet, so the ECMP hash
    #: spreads each pair's traffic over all equal-cost members (models
    #: connection churn; without it each pair pins one member).
    sport_churn: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        # At 1e-9 pps the mean gap, 1e18 ns, still fits a signed 64-bit
        # nanosecond count.
        check_minimums(self, {"rate_pps": 1e-9, "size_bytes": 1})


class PoissonWorkload(Workload):
    """Independent Poisson packet processes per host pair.

    Memoryless and smooth — the "null" traffic texture against which the
    bursty workloads are contrasted.
    """

    def __init__(self, network, config: Optional[PoissonConfig] = None) -> None:
        super().__init__(network, config or PoissonConfig())
        self.config: PoissonConfig

    def _pairs(self) -> list[tuple[str, str]]:
        if self.config.pairs is not None:
            return list(self.config.pairs)
        hosts = self.hosts
        return [(a, b) for a in hosts for b in hosts if a != b]

    def _begin(self) -> None:
        mean_gap = 1e9 / self.config.rate_pps
        for src, dst in self._pairs():
            sport = self.next_sport()
            self.sim.schedule(self.exp_delay(mean_gap), self._tick,
                              src, dst, sport, mean_gap)

    def _tick(self, src: str, dst: str, sport: int, mean_gap: float) -> None:
        if not self.active:
            return
        if self.config.sport_churn:
            sport = self.next_sport()
        self.emit(src, dst, sport=sport, dport=9000,
                  size_bytes=self.config.size_bytes)
        # exp_delay is a positive int, and nothing cancels a tick.
        self.sim.schedule_fast(self.exp_delay(mean_gap), self._tick,
                               src, dst, sport, mean_gap)
