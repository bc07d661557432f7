"""Snapshottable data-plane counters.

Speedlight is metric-agnostic: "any value accessible at line rate in the
data plane can be snapshotted" (§3).  This package provides the metrics
used by the paper's evaluation:

* :class:`PacketCounter` / :class:`ByteCounter` — per-port counts;
* :class:`QueueDepthCounter` — instantaneous egress queue depth;
* :class:`EwmaInterarrival` — the exponentially-weighted moving average
  of packet interarrival time from §8, implemented register-for-register
  the way the paper's two-phase Tofino program does it (decay 0.5);
* :class:`EwmaPacketRate` — the packet-rate EWMA used in Figure 13;
* :class:`FibVersionCounter` — forwarding-state version tags (§10).

Counters model *stateful registers*: they are updated inline by the
processing unit for every data packet and read either by the snapshot
logic (at snapshot time) or by the control plane (the polling baseline).

:data:`METRICS` is the one place a metric name is decided: which counter
each processing unit runs, whether the metric is a gauge, and what an
in-flight packet adds to its channel state.  The deployment, the CLI and
the consistency checker all read it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional, Protocol, Union

from repro.counters.basic import PacketCounter, ByteCounter
from repro.counters.queue_depth import QueueDepthCounter
from repro.counters.ewma import EwmaInterarrival, EwmaPacketRate
from repro.counters.fib_version import FibVersionCounter
from repro.counters.advanced import ActiveFlowEstimator, QueueHighWatermark
from repro.counters.heavy_hitter import CountMinSketch, HeavyHitterCounter
from repro.sim.switch import CounterLike, EgressUnit, IngressUnit

#: The processing unit a counter is built for.
_Unit = Union[IngressUnit, EgressUnit]


class _Sized(Protocol):
    """What an in-flight rule reads: a packet, or its trace event."""

    @property
    def size_bytes(self) -> int: ...


@dataclass(frozen=True)
class Metric:
    """One deployable metric."""

    #: The counter one processing unit runs, built from that unit.
    counter: Callable[[_Unit], CounterLike]
    #: A gauge (a level, not a running count): channel state has no
    #: meaning for it (§4.2), so the deployment refuses the combination.
    gauge: bool = False
    #: What one in-flight packet adds to channel state; None when the
    #: metric has no rule, so it cannot be deployed with channel state.
    in_flight: Optional[Callable[[_Sized], int]] = None


def _queue(unit: _Unit) -> Callable[[], int]:
    """The unit's output-queue depth.  Ingress units have no queue; a
    constant zero keeps the record schema uniform across directions."""
    if isinstance(unit, EgressUnit):
        egress = unit
        return lambda: egress.queue_depth_packets
    return lambda: 0


def _fib_version(unit: _Unit) -> Callable[[], int]:
    """The unit's last-matched FIB version register (forwarding decisions
    happen at ingress only)."""
    if isinstance(unit, IngressUnit):
        switch, port = unit.switch, unit.port_index
        return lambda: switch.last_matched_version[port]
    return lambda: 0


#: Every deployable metric, by the name snapshot requests use.
METRICS: dict[str, Metric] = {
    "packet_count": Metric(lambda unit: PacketCounter(),
                           in_flight=lambda pkt: 1),
    "byte_count": Metric(lambda unit: ByteCounter(),
                         in_flight=lambda pkt: pkt.size_bytes),
    "active_flows": Metric(lambda unit: ActiveFlowEstimator()),
    "heavy_hitter": Metric(lambda unit: HeavyHitterCounter()),
    "ewma_interarrival": Metric(lambda unit: EwmaInterarrival(), gauge=True),
    "ewma_packet_rate": Metric(lambda unit: EwmaPacketRate(), gauge=True),
    "queue_depth": Metric(lambda unit: QueueDepthCounter(_queue(unit)),
                          gauge=True),
    "queue_watermark": Metric(lambda unit: QueueHighWatermark(_queue(unit)),
                              gauge=True),
    "fib_version": Metric(
        lambda unit: FibVersionCounter(_fib_version(unit)), gauge=True),
}


def metric(name: str) -> Metric:
    """The :data:`METRICS` entry for ``name``; a ``KeyError`` naming
    every metric when there is none."""
    try:
        return METRICS[name]
    except KeyError:
        known = ", ".join(sorted(METRICS))
        raise KeyError(f"unknown metric {name!r}; known metrics: {known}") from None


__all__ = [
    "ActiveFlowEstimator",
    "QueueHighWatermark",
    "CountMinSketch",
    "HeavyHitterCounter",
    "METRICS",
    "Metric",
    "metric",
    "PacketCounter",
    "ByteCounter",
    "QueueDepthCounter",
    "EwmaInterarrival",
    "EwmaPacketRate",
    "FibVersionCounter",
]
