"""Hadoop-Terasort-shaped traffic: heavy, bursty shuffle flows.

The paper's instance: Terasort over 5 B rows, 10 mappers and 8 reducers
on six servers (§8).  The network-relevant phase is the **shuffle**: every
mapper streams its partitioned output to every reducer in long, bursty
transfers.  Flow-level characteristics we reproduce:

* a modest number of *elephant* flows (mapper × reducer pairs), each a
  distinct 5-tuple, long-lived enough for ECMP hash collisions to create
  persistent imbalance;
* bursty service: map output becomes available in waves, so each transfer
  alternates multi-millisecond bursts with pauses — imbalance fluctuates
  at millisecond scale, matching Figure 12a's ms-scale x-axis.

Mapper and reducer roles are assigned round-robin over the participating
hosts (several logical tasks share a server, as in the testbed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import MS, US, check_minimums
from repro.workloads.base import Workload, WorkloadConfig

#: Map and reduce tasks of the job; every mapper sends to every reducer.
NUM_MAPPERS = 10
NUM_REDUCERS = 8


@dataclass
class HadoopConfig(WorkloadConfig):
    #: Mean burst length of a shuffle wave.
    mean_burst_ns: int = 2 * MS
    #: Mean pause between waves of one mapper→reducer transfer.
    mean_pause_ns: int = 6 * MS
    #: Packet gap inside a burst (per-flow burst rate ≈ 1.2 Gbps at
    #: 1500 B / 10 µs).
    burst_gap_ns: int = 10 * US
    size_bytes: int = 1500

    def __post_init__(self) -> None:
        super().__post_init__()
        check_minimums(self, {
            "mean_burst_ns": 1, "mean_pause_ns": 1, "burst_gap_ns": 0,
            "size_bytes": 1})


class HadoopTerasortWorkload(Workload):
    """Shuffle-phase traffic of a Terasort job."""

    def __init__(self, network, config: Optional[HadoopConfig] = None) -> None:
        super().__init__(network, config or HadoopConfig())
        self.config: HadoopConfig
        self.transfers: list[tuple[str, str, int]] = []

    def _assign_tasks(self) -> None:
        hosts = self.hosts
        mappers = [hosts[i % len(hosts)] for i in range(NUM_MAPPERS)]
        reducers = [hosts[(i + 1) % len(hosts)] for i in range(NUM_REDUCERS)]
        self.transfers = []
        for m in mappers:
            for r in reducers:
                if m == r:
                    continue  # local shuffle segments never hit the network
                self.transfers.append((m, r, self.next_sport()))

    def _begin(self) -> None:
        self._assign_tasks()
        for src, dst, sport in self.transfers:
            # Stagger transfer starts: map tasks finish at different times.
            self.sim.schedule(self.exp_delay(self.config.mean_pause_ns),
                              self._shuffle_wave, src, dst, sport)

    def _shuffle_wave(self, src: str, dst: str, sport: int) -> None:
        if not self.active:
            return
        burst_ns = self.exp_delay(self.config.mean_burst_ns)
        num = max(1, burst_ns // max(self.config.burst_gap_ns, 1))
        self.emit_burst(src, dst, sport=sport, dport=13562,  # Hadoop shuffle port
                        num_packets=num, size_bytes=self.config.size_bytes,
                        gap_ns=self.config.burst_gap_ns)
        self.sim.schedule(burst_ns + self.exp_delay(self.config.mean_pause_ns),
                          self._shuffle_wave, src, dst, sport)
