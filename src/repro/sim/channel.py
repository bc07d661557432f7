"""Communication channels: physical links and loss models.

The snapshot algorithm's system model (paper §4.1) is a graph of
processing units connected by unidirectional FIFO channels.  Two channel
flavours exist in the simulator:

* **Physical links** (:class:`Link`) connect an egress unit of one device
  to an ingress unit of another.  They are full duplex (modelled as two
  independent unidirectional directions), have a fixed propagation delay
  and an optional loss model.  Because the delay is constant and senders
  serialise departures, each direction is FIFO.
* **Fabric channels** (inside :mod:`repro.sim.switch`) connect every
  ingress unit to every egress unit of the same device with a constant
  pipeline latency — also FIFO per (ingress, egress) pair.

Packet loss is the one non-ideality the protocol must tolerate (§6
"Ensuring liveness"); :class:`BernoulliLoss` provides seeded random drops
and a test subclasses :class:`LossModel` to drop specific packets.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import partial
from typing import Any, Optional, Protocol

from repro.sim.engine import Simulator
from repro.sim.packet import Packet


class LossModel:
    """Decides whether a given transmission is dropped."""

    def should_drop(self, packet: Packet) -> bool:
        raise NotImplementedError


class NoLoss(LossModel):
    """A lossless channel (the default)."""

    def should_drop(self, packet: Packet) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Independent per-packet drops with fixed probability."""

    def __init__(self, probability: float, rng: random.Random) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability
        self.rng = rng
        self._random = rng.random  # bound once; the per-packet hot path
        self.dropped = 0

    def should_drop(self, packet: Packet) -> bool:
        if self._random() < self.probability:
            self.dropped += 1
            return True
        return False


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss (the Gilbert–Elliott channel model).

    The channel alternates between a GOOD state (loss probability
    ``p_loss_good``, typically ~0) and a BAD state (loss probability
    ``p_loss_bad``, typically high); per-packet transition probabilities
    ``p_good_to_bad`` / ``p_bad_to_good`` control burst frequency and
    mean burst length (``1 / p_bad_to_good`` packets).  Unlike
    :class:`BernoulliLoss`, drops cluster — the pattern that stresses
    the snapshot protocol's liveness machinery hardest, because a burst
    can swallow an initiation *and* its immediate retries.
    """

    def __init__(self, rng: random.Random, *,
                 p_good_to_bad: float = 0.001,
                 p_bad_to_good: float = 0.05,
                 p_loss_good: float = 0.0,
                 p_loss_bad: float = 0.5) -> None:
        for name, p in (("p_good_to_bad", p_good_to_bad),
                        ("p_bad_to_good", p_bad_to_good),
                        ("p_loss_good", p_loss_good),
                        ("p_loss_bad", p_loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.rng = rng
        self._random = rng.random
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.p_loss_good = p_loss_good
        self.p_loss_bad = p_loss_bad
        self.in_bad_state = False
        self.dropped = 0
        self.bursts_entered = 0

    def should_drop(self, packet: Packet) -> bool:
        rand = self._random
        if self.in_bad_state:
            if rand() < self.p_bad_to_good:
                self.in_bad_state = False
        elif rand() < self.p_good_to_bad:
            self.in_bad_state = True
            self.bursts_entered += 1
        p_loss = self.p_loss_bad if self.in_bad_state else self.p_loss_good
        if p_loss and rand() < p_loss:
            self.dropped += 1
            return True
        return False


class LinkEndpoint(Protocol):
    """Anything that can sit at the end of a link (switch port or host)."""

    def receive_from_link(self, packet: Packet, link: "Link") -> None:
        ...  # pragma: no cover - protocol definition

    @property
    def endpoint_name(self) -> str:
        ...  # pragma: no cover - protocol definition


def _state_attribute(slot: str, doc: str) -> property:
    """A :class:`Link` attribute whose every assignment is a state change."""
    def assign(link: "Link", value: Any) -> None:
        setattr(link, slot, value)
        link._state_changed()
    return property(lambda link: getattr(link, slot), assign, doc=doc)


class Link:
    """A full-duplex point-to-point link.

    Endpoints are attached with :meth:`attach`; :meth:`transmit` delivers a
    packet from one endpoint to the other after the propagation delay.
    Serialisation delay is the sender's responsibility (the egress queue
    model in :mod:`repro.sim.switch` / :mod:`repro.sim.host`), which keeps
    each direction strictly FIFO.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: int = 25_000_000_000,
                 propagation_ns: int = 500,
                 loss: Optional[LossModel] = None,
                 name: str = "", fused: bool = True) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self.name = name
        #: Decided at wiring, never by a user: boundary stubs and scoped
        #: networks keep an event per finish instant (docs/SHARDING.md).
        self._fusable = fused
        self._loss = loss or NoLoss()
        self._up = True
        self._extra_delay_ns = 0
        #: receiving side -> earliest allowed delivery time for the next
        #: packet in that direction (only populated during/after spikes).
        self._fifo_floor: dict[int, int] = {}
        self._endpoints: list[Optional[LinkEndpoint]] = [None, None]
        #: Per side, the endpoint's pre-bound receive callable: its
        #: ``rx`` attribute, else ``receive_from_link`` bound to this link.
        self._rx: list[Optional[Callable[[Packet], None]]] = [None, None]
        #: The attached senders' egress lanes, un-fused on state changes.
        self._lanes: list[Any] = []
        #: size_bytes -> serialization ns (traffic uses a handful of
        #: fixed sizes, so this is effectively a precomputed multiplier).
        self._ser_cache: dict[int, int] = {}
        self.packets_delivered = 0
        self.packets_dropped = 0
        self._state_changed()

    def _state_changed(self) -> None:
        """Recompute ``_plain`` — on a plain link a lane schedules
        :meth:`_deliver` itself as serialisation starts (the fused hop,
        docs/PERF.md) — and un-fuse packets still being serialised: they
        meet the new state in :meth:`transmit` at their finish instant."""
        #: Fast-path flag: a NoLoss link skips the loss-model call.
        self._lossless = isinstance(self._loss, NoLoss)
        self._plain = (self._fusable and self._up and self._lossless
                       and not self._extra_delay_ns and not self._fifo_floor)
        for lane in self._lanes:
            lane.unfuse()

    loss = _state_attribute("_loss", "The loss model in force.")
    up = _state_attribute("_up", """
        Administrative / physical link state.  A down link drops every
        transmission (counted in ``packets_dropped``); flapped by the
        fault injector (:mod:`repro.faults`).""")
    extra_delay_ns = _state_attribute("_extra_delay_ns", """
        Extra one-way delay (latency-spike faults).  While non-zero —
        and until in-flight spiked packets have drained — delivery times
        are clamped monotone per direction, preserving the FIFO channel
        property the snapshot algorithm requires (§4.1).""")

    def attach(self, endpoint: LinkEndpoint, lane: Any = None) -> int:
        """Attach an endpoint (and the egress lane it sends through, if
        it has one); returns its side index (0 or 1)."""
        for side in (0, 1):
            if self._endpoints[side] is None:
                self._endpoints[side] = endpoint
                self._rx[side] = getattr(endpoint, "rx", None) or partial(
                    endpoint.receive_from_link, link=self)
                if lane is not None:
                    self._lanes.append(lane)
                return side
        raise RuntimeError(f"link {self.name!r} already has two endpoints")

    def _peer_side(self, endpoint: LinkEndpoint) -> int:
        side = 1 if endpoint is self._endpoints[0] else 0
        if endpoint is not self._endpoints[1 - side]:
            raise ValueError(f"{endpoint!r} is not attached to link {self.name!r}")
        if self._endpoints[side] is None:
            raise RuntimeError(f"link {self.name!r} has only one endpoint")
        return side

    def serialization_ns(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto the wire at link rate
        (memoized per size: an egress lane reads the memo itself and
        calls this only on a miss)."""
        ns = self._ser_cache.get(size_bytes)
        if ns is None:
            if size_bytes < 0:
                raise ValueError(
                    f"link {self.name!r}: packet size {size_bytes} B is "
                    "negative")
            ns = (size_bytes * 8 * 1_000_000_000) // self.bandwidth_bps
            self._ser_cache[size_bytes] = ns
        return ns

    def transmit(self, sender: LinkEndpoint, packet: Packet,
                 seq: Optional[float] = None) -> bool:
        """Send ``packet`` from ``sender`` to the peer endpoint.

        Returns False if the loss model dropped the packet.  Delivery is
        scheduled ``propagation_ns`` in the future; the caller has already
        accounted for serialisation time.  An egress lane passes ``seq``,
        the tie-break position the delivery would have on a fused hop
        (as if scheduled when serialisation began), so deliveries order
        alike whichever path sent them.
        """
        side = self._peer_side(sender)
        if not self._up:
            self.packets_dropped += 1
            return False
        if not self._lossless and self._loss.should_drop(packet):
            self.packets_dropped += 1
            return False
        delay = self.propagation_ns
        if self._extra_delay_ns or self._fifo_floor:
            delay = self._spiked_delay(side)
        if seq is None:
            self.sim.schedule_fast(delay, self._deliver, side, packet)
        else:
            self.sim.schedule_fast_at(seq, delay, self._deliver, side, packet)
        return True

    def _spiked_delay(self, side: int) -> int:
        """Delivery delay under (or draining from) a latency spike.

        Clamps each delivery to be no earlier than the previous one in
        the same direction: a spike that ends (``extra_delay_ns`` back
        to 0) must not let later packets overtake slower in-flight ones,
        which would break the FIFO-channel assumption.  Equal delivery
        times are fine — the engine's tie-break preserves send order.
        """
        at = self.sim.now + self.propagation_ns + self._extra_delay_ns
        floor = self._fifo_floor.get(side, 0)
        if self._extra_delay_ns:
            if at < floor:
                at = floor
            self._fifo_floor[side] = at
        elif at >= floor:
            if self._fifo_floor.pop(side, None) is not None:
                self._state_changed()  # natural timing caught up
        else:
            # Still draining: clamp to the last spiked delivery and keep
            # the floor until un-spiked deliveries naturally pass it.
            at = floor
        return at - self.sim.now

    def _deliver(self, side: int, packet: Packet) -> None:
        self.packets_delivered += 1
        # statics: allow[SIM003] this IS the modeled delivery site every other path must route through
        self._rx[side](packet)  # type: ignore[misc]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [e.endpoint_name if e else "?" for e in self._endpoints]
        return f"Link({names[0]} <-> {names[1]}, {self.bandwidth_bps // 10**9}Gbps)"
