"""Synthetic traffic generators with the temporal texture of the paper's
three testbed applications.

The paper runs Hadoop Terasort, Spark GraphX PageRank, and memcached
(mc-crusher multi-get) on six servers (§8, "Workload").  We cannot run
those applications, but the measurement results depend on the *shape* of
the traffic they emit, not on the computation:

* **Hadoop Terasort** (:class:`HadoopTerasortWorkload`) — long shuffle
  flows between mappers and reducers; heavy, bursty, ms-scale on/off
  structure.  Imbalance shows at ms scale (Figure 12a's x-axis).
* **GraphX PageRank** (:class:`GraphXPageRankWorkload`) — bulk-synchronous
  supersteps: all workers exchange messages in near-simultaneous bursts
  once per iteration; the master coordinates but moves no bulk data
  (Figure 13's ground truth: the master's port is uncorrelated).
* **memcache** (:class:`MemcacheWorkload`) — a closed-loop stream of
  multi-get requests fanned out to many servers returning small values:
  smooth, evenly distributed, µs-scale traffic (Figure 12c's x-axis is in
  µs, two orders finer than Hadoop's).

The generic :class:`PoissonWorkload` supports tests and custom
experiments.
"""

from repro.workloads.base import Workload, WorkloadConfig
from repro.workloads.synthetic import PoissonWorkload
from repro.workloads.hadoop import HadoopTerasortWorkload
from repro.workloads.graphx import GraphXPageRankWorkload
from repro.workloads.memcache import MemcacheWorkload

__all__ = [
    "Workload",
    "WorkloadConfig",
    "PoissonWorkload",
    "HadoopTerasortWorkload",
    "GraphXPageRankWorkload",
    "MemcacheWorkload",
]
