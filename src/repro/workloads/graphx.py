"""GraphX-PageRank-shaped traffic: bulk-synchronous supersteps.

The paper runs Spark GraphX's synthetic PageRank benchmark (100 000
vertices, 5 workers) (§8).  Pregel-style PageRank is bulk-synchronous:
each iteration, every worker exchanges rank updates with every other
worker in a near-simultaneous wave, then the cluster quiets until the
next iteration.  Three properties of this traffic carry the paper's
Figure 13 analysis, and all three are modelled explicitly:

* **Synchronized intensity.**  Within an exchange wave, the *rate* at
  which rank updates flow fluctuates at sub-millisecond scale — vertex
  partitions complete in sub-waves, serialization stalls hit all streams
  together — and these fluctuations are **common across workers**
  (they are phases of one distributed computation).  We model this with
  a shared piecewise-constant intensity process ``I(t)`` (resampled
  every ``MODULATION_PERIOD_NS``) that scales every sender's packet gap.
  Simultaneous measurements of two ports see the same ``I(t)`` and are
  therefore positively correlated; measurements a few hundred µs apart
  see independent draws — exactly the signal snapshots preserve and
  polling's read smear destroys.
* **A silent master.**  The driver (``server0`` by default) coordinates
  with tiny control RPCs but moves no bulk data, so its access port must
  show no significant rate correlation with any worker port (Figure 13's
  first ground truth).
* **Background chatter.**  Executor heartbeats and block-manager ACKs
  trickle constantly, keeping the rate-EWMA registers time-sensitive:
  an idle-phase read shows the chatter floor rather than a frozen burst
  value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import MS, US, check_minimums
from repro.workloads.base import Workload, WorkloadConfig

#: Iteration period of the bulk-synchronous loop.
ITERATION_NS = 10 * MS
#: Straggler jitter on each worker's wave start.
MAX_JITTER_NS = 300_000
#: The shared intensity process: resample period and lognormal sigma.
#: All senders share each draw, so port rates co-move within a wave.
MODULATION_PERIOD_NS = 300 * US
INTENSITY_SIGMA = 0.6
#: Size of the master's control messages (task scheduling RPCs).
CONTROL_SIZE_BYTES = 200
#: Rank-update packets per worker->worker stream per iteration.
BURST_PACKETS = 180
#: Base packet gap within a stream (scaled by the intensity process);
#: 40 µs x 180 packets ≈ a 7 ms exchange window per 10 ms iteration.
BURST_GAP_NS = 40 * US
#: Background chatter rate per host pair (packets/second): shuffle
#: ACKs, block-manager heartbeats, executor liveness.
CHATTER_PPS = 300.0
#: Size of a background chatter packet.
CHATTER_SIZE_BYTES = 150


@dataclass
class GraphXConfig(WorkloadConfig):
    #: The driver host (excluded from bulk exchanges).
    master: str = "server0"
    size_bytes: int = 1200

    def __post_init__(self) -> None:
        super().__post_init__()
        check_minimums(self, {"size_bytes": 1})


class GraphXPageRankWorkload(Workload):
    """Synchronized superstep traffic of a Pregel-style PageRank."""

    def __init__(self, network, config: Optional[GraphXConfig] = None) -> None:
        super().__init__(network, config or GraphXConfig())
        self.config: GraphXConfig
        self.iterations_run = 0
        self._intensity = 1.0

    @property
    def workers(self) -> list[str]:
        return [h for h in self.hosts if h != self.config.master]

    def _begin(self) -> None:
        if self.config.master not in self.network.hosts:
            raise ValueError(f"master {self.config.master!r} not in network")
        mean_gap = 1e9 / CHATTER_PPS
        for src in self.hosts:
            for dst in self.hosts:
                if src != dst:
                    self.sim.schedule(self.exp_delay(mean_gap),
                                      self._chatter, src, dst, mean_gap)
        self._modulate()
        self._iteration()

    # ------------------------------------------------------------------
    # Background processes
    # ------------------------------------------------------------------
    def _chatter(self, src: str, dst: str, mean_gap: float) -> None:
        if not self.active:
            return
        self.emit(src, dst, sport=self.next_sport(), dport=7078,
                  size_bytes=CHATTER_SIZE_BYTES)
        self.sim.schedule(self.exp_delay(mean_gap), self._chatter,
                          src, dst, mean_gap)

    def _modulate(self) -> None:
        """Resample the shared intensity factor (one draw for everyone)."""
        if not self.active:
            return
        self._intensity = self.rng.lognormvariate(0.0, INTENSITY_SIGMA)
        self.sim.schedule(MODULATION_PERIOD_NS, self._modulate)

    def _current_gap_ns(self) -> int:
        return max(1, int(BURST_GAP_NS * self._intensity))

    # ------------------------------------------------------------------
    # Supersteps
    # ------------------------------------------------------------------
    def _iteration(self) -> None:
        if not self.active:
            return
        self.iterations_run += 1
        workers = self.workers
        for src in workers:
            jitter = self.rng.randint(0, MAX_JITTER_NS)
            self.sim.schedule(jitter, self._worker_wave, src, workers)
        # The master sends only small control messages, one per worker.
        for dst in workers:
            self.emit(self.config.master, dst, sport=self.next_sport(),
                      dport=7077, size_bytes=CONTROL_SIZE_BYTES)
        self.sim.schedule(ITERATION_NS, self._iteration)

    def _worker_wave(self, src: str, workers: list[str]) -> None:
        if not self.active:
            return
        for dst in workers:
            if dst == src:
                continue
            self._stream(src, dst, self.next_sport(), BURST_PACKETS, 0)

    def _stream(self, src: str, dst: str, sport: int, remaining: int,
                seq: int) -> None:
        """Emit one rank-update stream, paced by the shared intensity."""
        if not self.active or remaining <= 0:
            return
        self.emit(src, dst, sport=sport, dport=7337,
                  size_bytes=self.config.size_bytes, seq=seq)
        self.sim.schedule(self._current_gap_ns(), self._stream,
                          src, dst, sport, remaining - 1, seq + 1)
