"""The per-switch snapshot control plane (§6 of the paper).

Speedlight is "a two-tier, mutualistic system in which each [plane] is
responsible for masking the limitations of the other".  The control
plane's jobs, all implemented here:

* **Synchronized initiation** — at a wall-clock instant agreed with the
  observer (interpreted on the *local*, PTP-disciplined clock), inject an
  initiation message into every ingress unit; the message traverses
  CPU → ingress → egress of each port (Figure 6, path 3).
* **Progress tracking** (Figure 7) — consume data-plane notifications,
  maintain an unwrapped-epoch view of every unit's snapshot ID and Last
  Seen array, detect completion, and mark snapshots **inconsistent**
  when the hardware's single-slot updates could not keep intermediate
  epochs correct.
* **Reading and shipping values** — on completion, read the snapshot
  value registers, clear them for wraparound reuse, and ship per-unit
  records to the observer over the management plane.
* **Liveness** — re-send initiations for incomplete snapshots after a
  timeout, optionally poll data-plane registers to recover from dropped
  notifications, and inject probe packets that force snapshot-ID
  propagation across idle switch-to-switch links.

Performance model: notifications arrive over the ASIC→CPU channel into a
bounded receive buffer and are serviced *serially*, each read costing
:attr:`ControlPlaneConfig.notification_service_ns` of CPU time.  This
serial service is the bottleneck behind Figure 10 ("the bottleneck is in
our unoptimized control plane processing latency"); overflowing the
buffer drops notifications, which the Figure 7 logic then handles
conservatively.

Inconsistency marking rule (with channel state).  Our data plane credits
an in-flight packet to the *current* slot (one stateful-ALU op), which is
correct exactly when the packet's epoch is one behind.  Hence, when a
unit's ID advances to ``s``, every epoch in ``(done, s)`` — where
``done`` is the minimum gating Last Seen in the control plane's view —
may have missed channel-state credits or local state and is marked
inconsistent; epoch ``s`` itself stays consistent because subsequent
in-flight credits land in its slot.  If the notification stream shows a
gap (a drop), the marking conservatively extends through ``s``.  This
realises the paper's guarantee: a snapshot is complete and consistent
iff all upstream-neighbor IDs and the local ID differ by at most 1.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Mapping
from typing import Optional, Union

from repro.core.dataplane import SpeedlightUnit
from repro.core.ids import IdSpace
from repro.core.notifications import Notification
from repro.sim.clock import Clock
from repro.sim.engine import Simulator, US, MS, check_minimums
from repro.sim.packet import Packet, PacketType, SnapshotHeader, FlowKey, make_initiation_packet
from repro.sim.server import SerialServer
from repro.sim.switch import ASIC_CPU_LATENCY_NS, BROADCAST_DST, Switch, UnitId


def uniform_jitter(rng: random.Random, jitter_ns: int) -> Callable[[], int]:
    """A sampler of ``rng.randint(-jitter_ns, jitter_ns)``: the same
    values and the same RNG state after every draw, without the three
    library frames per draw.  It is CPython's own rejection loop over
    ``getrandbits`` with the bit count worked out once
    (docs/DETERMINISM.md).  A negative ``jitter_ns`` is refused, as
    ``randint`` refuses the empty range."""
    if jitter_ns < 0:
        raise ValueError(f"jitter_ns must be >= 0, got {jitter_ns!r}")
    span = 2 * jitter_ns + 1
    bits = span.bit_length()
    getrandbits = rng.getrandbits

    def draw() -> int:
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        return r - jitter_ns
    return draw


#: Uniform jitter on the notification service cost (±).
NOTIFICATION_JITTER_NS = 15 * US
#: Socket receive buffer capacity (notifications); overflow drops.  A
#: fault or a test shrinks one channel's ``capacity``.
NOTIFICATION_BUFFER_CAPACITY = 4096
#: The P4 digest-stream transport §7.2 mentions and rejects: the ASIC
#: batches up to ``DIGEST_BATCH`` notifications (or flushes after
#: ``DIGEST_TIMEOUT_NS``), amortising per-wakeup cost at the price of
#: added latency.
DIGEST_BATCH = 16
DIGEST_TIMEOUT_NS = 500 * US
#: CPU cost per digest wakeup, plus per-record decode+handling.  The
#: Figure 7 handler work dominates either transport, so the per-record
#: cost is only modestly below the socket's 110 µs; the digest's saving
#: is the amortised wakeup, its price the flush wait.
DIGEST_SERVICE_NS = 150 * US
DIGEST_PER_RECORD_NS = 85 * US
#: CPU cost of injecting one initiation message (per port, serial).
#: Sub-microsecond: the CP writes one descriptor per port into a batched
#: DMA ring, so a 64-port sweep completes in ~10 µs.
INITIATION_CPU_NS = 150
#: Uniform jitter on each injection (±).
INITIATION_JITTER_NS = 100
#: The OS scheduler's wake-up latency when the initiation timer fires,
#: the "OpenNetworkLinux scheduling effects" of §8.2: lognormal around
#: the median with the body's sigma, with probability
#: ``WAKEUP_TAIL_PROBABILITY`` a heavy tail instead (drawn uniform over
#: the upper two thirds of its top), and the clamp on any draw.
WAKEUP_MEDIAN_NS = 1_500
WAKEUP_SIGMA = 0.6
WAKEUP_TAIL_PROBABILITY = 0.02
WAKEUP_TAIL_MAX_NS = 15_000
WAKEUP_MAX_NS = 50_000
#: Seeds every control plane's RNG as ``f"{CONTROL_PLANE_SEED}/{switch}"``,
#: so the notification jitter, initiation jitter and wake-up draws are
#: the same under every ``NetworkConfig.seed``: trials repeated over
#: seeds never vary them.  Deriving them from the network seed would
#: move every golden trace.
CONTROL_PLANE_SEED = 11


def sample_wakeup_ns(rng: random.Random) -> int:
    """The OS scheduler's wake-up latency when an initiation timer
    fires: lognormal around the median, with an occasional heavy tail."""
    if rng.random() < WAKEUP_TAIL_PROBABILITY:
        value = rng.uniform(WAKEUP_TAIL_MAX_NS / 3, WAKEUP_TAIL_MAX_NS)
    else:
        value = rng.lognormvariate(math.log(WAKEUP_MEDIAN_NS), WAKEUP_SIGMA)
    return min(int(value), WAKEUP_MAX_NS)


@dataclass
class UnitSnapshotRecord:
    """One unit's contribution to a global snapshot, as read by the CP."""

    # ``dataclass(slots=True)`` spelled out: the project floor is 3.9.
    __slots__ = ("unit", "epoch", "value", "channel_state", "consistent",
                 "captured_ns", "read_ns")

    unit: UnitId
    epoch: int  # unwrapped
    value: int
    channel_state: Optional[int]
    consistent: bool
    captured_ns: int
    read_ns: int

    @property
    def total_value(self) -> int:
        """Local value plus in-flight channel credits (the network-wide
        conserved quantity for accumulator metrics)."""
        if self.channel_state is None:
            return self.value
        return self.value + self.channel_state


@dataclass
class ControlPlaneConfig:
    """Latency and liveness model of the switch control plane."""

    #: Serial CPU cost of servicing one notification (Thrift/driver).
    notification_service_ns: int = 110 * US
    #: Notification transport: "socket" is the paper's raw-socket DMA
    #: driver (one CPU wakeup per notification); "digest" models the P4
    #: digest-stream alternative §7.2 mentions and rejects
    #: (:class:`DigestChannel`).
    notification_transport: str = "socket"
    #: Re-send initiations for epochs not locally complete after this.
    reinitiation_timeout_ns: int = 20 * MS
    max_reinitiations: int = 3
    #: With channel state, inject propagation probes this long after each
    #: initiation so structurally idle channels still advance their Last
    #: Seen entries promptly (0 disables; liveness then relies on the
    #: re-initiation path).
    probe_delay_ns: int = 2 * MS
    #: Proactively poll the data-plane registers at this cadence,
    #: recovering from dropped notifications without waiting for any
    #: timeout (§6; 0 disables — the paper's default).  Tuned via
    #: :class:`~repro.core.recovery.RecoveryPolicy`.
    register_poll_interval_ns: int = 0

    def __post_init__(self) -> None:
        if self.notification_transport not in ("socket", "digest"):
            raise ValueError(
                f"ControlPlaneConfig.notification_transport: unknown "
                f"transport {self.notification_transport!r} (use 'socket' "
                "or 'digest')")
        check_minimums(self, {
            "notification_service_ns": 0, "reinitiation_timeout_ns": 0,
            "max_reinitiations": 0, "probe_delay_ns": 0,
            "register_poll_interval_ns": 0})


class NotificationChannel(SerialServer[Notification]):
    """The bounded, serially-serviced CPU notification queue; the jitter
    is drawn as a read starts (docs/PERF.md "Three dead ends")."""

    def __init__(self, sim: Simulator, rng: random.Random,
                 config: ControlPlaneConfig,
                 handler: Callable[[Notification], None]) -> None:
        super().__init__(sim, NOTIFICATION_BUFFER_CAPACITY, handler)
        self.config = config
        self._jitter = uniform_jitter(rng, NOTIFICATION_JITTER_NS)

    # Spelled out here: the benchmark's tracer resolves span points by vars().
    deliver = SerialServer.deliver
    _finish = SerialServer._finish

    def _begin(self, notification: Notification) -> int:
        return max(1, self.config.notification_service_ns + self._jitter())


class DigestChannel(SerialServer[list[Notification]]):
    """The P4 digest-stream notification transport (§7.2's alternative).

    The ASIC accumulates notifications into a digest buffer that is
    shipped to the CPU when ``DIGEST_BATCH`` records are pending or a
    flush timer fires.  The CPU pays one wakeup per digest plus a small
    per-record decode cost — cheaper per notification under load, but
    every record is delayed by up to the batching window, which is why
    the paper found raw sockets "offered significantly better
    performance" for snapshot progress tracking.  The server's items
    are digests; its counters and ``capacity`` count notifications.
    """

    def __init__(self, sim: Simulator,
                 handler: Callable[[Notification], None]) -> None:
        super().__init__(sim, NOTIFICATION_BUFFER_CAPACITY, self._read_digest)
        self._read_notification = handler
        self._pending: list[Notification] = []
        #: Notifications in ``_queue``'s batches, kept as a running count
        #: so :attr:`backlog` does not walk the queue on every arrival.
        self._queued = 0
        self._flush_event = None
        self.digests_shipped = 0

    @property
    def backlog(self) -> int:
        return len(self._pending) + self._queued + self._busy

    def deliver(self, notification: Notification) -> bool:  # type: ignore[override]
        self.received += 1
        backlog = self.backlog
        if not self._online or backlog >= self.capacity:
            self.dropped += 1
            return False
        self._pending.append(notification)
        if backlog >= self.max_backlog:
            self.max_backlog = backlog + 1
        if len(self._pending) >= DIGEST_BATCH:
            self._ship()
        elif self._flush_event is None:
            self._flush_event = self.sim.schedule(DIGEST_TIMEOUT_NS,
                                                  self._flush)
        return True

    def _flush(self) -> None:
        self._flush_event = None
        if self._pending:
            self._ship()

    def _ship(self) -> None:
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self._queue.append(self._pending)
        self._queued += len(self._pending)
        self._pending = []
        self.digests_shipped += 1
        if not self._busy:
            self._service_next()

    def flush_queued(self) -> list[Notification]:  # type: ignore[override]
        """Discard pending and queued digests (crash injection); returns
        the notifications lost."""
        lost = [n for batch in super().flush_queued() for n in batch]
        lost += self._pending
        self._pending = []
        self._queued = 0
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        return lost

    def _begin(self, batch: list[Notification]) -> int:
        self._queued -= len(batch)
        return max(1, DIGEST_SERVICE_NS + len(batch) * DIGEST_PER_RECORD_NS)

    def _read_digest(self, batch: list[Notification]) -> None:
        # The server counted the digest once; count its notifications.
        self.processed += len(batch) - 1
        for notification in batch:
            self._read_notification(notification)

    def _lose(self, batch: list[Notification]) -> None:
        self.dropped += len(batch)


class EpochProgress(Mapping[int, list[int]]):
    """epoch -> ``[earliest, latest, count]`` of the data-plane timestamps
    on the processed notifications carrying that epoch.

    Three int64 columns indexed by epoch (a count of 0 is an epoch never
    seen), so a run's history costs 24 bytes per epoch, not a list and
    its ints.  Read as a mapping; a looked-up span is a fresh list.
    """

    __slots__ = ("_earliest", "_latest", "_count")

    def __init__(self) -> None:
        self._earliest = array("q")
        self._latest = array("q")
        self._count = array("q")

    def note(self, epoch: int, timestamp: int) -> None:
        """Fold one notification's timestamp into ``epoch``'s span."""
        count = self._count
        if epoch >= len(count):
            self._grow(epoch)
        seen = count[epoch]
        if not seen:
            self._earliest[epoch] = self._latest[epoch] = timestamp
        elif timestamp < self._earliest[epoch]:
            self._earliest[epoch] = timestamp
        elif timestamp > self._latest[epoch]:
            self._latest[epoch] = timestamp
        count[epoch] = seen + 1

    def _grow(self, epoch: int) -> None:
        size = len(self._count)
        zeros = bytes(8 * max(epoch + 1 - size, size // 2, 64))
        for column in (self._earliest, self._latest, self._count):
            column.frombytes(zeros)

    def __getitem__(self, epoch: int) -> list[int]:
        if 0 <= epoch < len(self._count) and self._count[epoch]:
            return [self._earliest[epoch], self._latest[epoch],
                    self._count[epoch]]
        raise KeyError(epoch)

    def __contains__(self, epoch: object) -> bool:
        return (isinstance(epoch, int) and 0 <= epoch < len(self._count)
                and self._count[epoch] > 0)

    def __iter__(self) -> Iterator[int]:
        return (epoch for epoch, seen in enumerate(self._count) if seen)

    def __len__(self) -> int:
        return len(self._count) - self._count.count(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EpochProgress({dict(self.items())!r})"


class _UnitTracker:
    """Control-plane view of one data-plane unit (Figure 7 state)."""

    __slots__ = ("agent", "gating", "ctrl_sid", "ctrl_last_seen",
                 "last_read", "inconsistent")

    def __init__(self, agent: SpeedlightUnit, gating: list[int]) -> None:
        self.agent = agent
        self.gating = list(gating)
        self.ctrl_sid = 0            # unwrapped view of the unit's ID
        self.ctrl_last_seen: dict[int, int] = {c: 0 for c in gating}
        self.last_read = 0           # latest finalized epoch
        self.inconsistent: set[int] = set()

    def gating_min(self) -> int:
        if not self.gating:
            return self.ctrl_sid
        return min(self.ctrl_last_seen.get(c, 0) for c in self.gating)


class SwitchControlPlane:
    """One switch's snapshot control plane."""

    def __init__(self, switch: Switch, clock: Clock, id_space: IdSpace, *,
                 channel_state: bool,
                 config: Optional[ControlPlaneConfig] = None,
                 ship: Optional[Callable[[UnitSnapshotRecord], None]] = None,
                 ideal_dataplane: bool = False) -> None:
        self.switch = switch
        self.sim = switch.sim
        self.clock = clock
        self.ids = id_space
        self._id_size = id_space.size
        self.channel_state = channel_state
        #: True when driving the idealised Figure 3 units, which loop over
        #: skipped epochs in the data plane — no inconsistency marking is
        #: needed (ablation support).
        self.ideal_dataplane = ideal_dataplane
        self.config = config or ControlPlaneConfig()
        self.rng = random.Random(f"{CONTROL_PLANE_SEED}/{switch.name}")
        self._initiation_jitter = uniform_jitter(self.rng,
                                                 INITIATION_JITTER_NS)
        #: Callback shipping finalized records toward the observer
        #: (installed by the deployment; routed over the mgmt plane).
        self.ship = ship
        self.trackers: dict[UnitId, _UnitTracker] = {}
        self.channel: Union[NotificationChannel, DigestChannel]
        if self.config.notification_transport == "digest":
            self.channel = DigestChannel(self.sim, self._on_notification)
        else:
            self.channel = NotificationChannel(self.sim, self.rng, self.config,
                                               self._on_notification)
        switch.notification_sink = self.channel.deliver
        #: epoch -> [earliest, latest, count] of the data-plane timestamps
        #: on the processed notifications carrying that epoch — the
        #: synchronization measurements of Figure 9, folded as they arrive.
        self.progress = EpochProgress()
        #: Ports with a registered unit, sorted (None = recompute).
        self._ports: Optional[list[int]] = None
        #: Epochs initiated locally, with remaining retry budget (kept only
        #: while re-initiation is on); an epoch goes when its retry check
        #: finds it locally complete.
        self._initiated: dict[int, int] = {}
        self.initiations_sent = 0
        self.reinitiations_sent = 0
        #: Recovery-overhead telemetry (probe packets injected, register
        #: polls performed) — the cost side of the recovery frontier.
        self.probes_sent = 0
        self.polls_performed = 0
        #: Co-resident aggregation-tree relay, when the deployment wires
        #: one (repro.core.aggregation).  It shares this CP's CPU, so
        #: crash/restart toggles it too.
        self.agg_agent = None
        #: Crash-fault state (see :meth:`crash` / :meth:`restart`).
        self._crashed = False
        self.crashes = 0
        self.notifications_lost_to_crash = 0
        if self.config.register_poll_interval_ns > 0:
            # Periodic proactive polls (RecoveryPolicy-driven): strictly
            # opt-in, so the default configuration schedules nothing.
            self.sim.schedule(self.config.register_poll_interval_ns,
                              self._periodic_poll)

    # ------------------------------------------------------------------
    # Registration (deployment wiring)
    # ------------------------------------------------------------------
    def register_unit(self, agent: SpeedlightUnit,
                      gating_channels: list[int]) -> None:
        """Track a data-plane unit.  ``gating_channels`` are the upstream
        channels whose Last Seen gates completion (empty without channel
        state; the CPU channel is never gating, §6)."""
        if agent.unit_id in self.trackers:
            raise ValueError(f"unit {agent.unit_id} already registered")
        self.trackers[agent.unit_id] = _UnitTracker(agent, gating_channels)
        self._ports = None

    # ------------------------------------------------------------------
    # Synchronized initiation
    # ------------------------------------------------------------------
    def schedule_initiation(self, epoch: int, at_wall_ns: int) -> None:
        """Register snapshot ``epoch`` to start at wall-clock time
        ``at_wall_ns`` *as read on this switch's local clock* — the clock
        error between switches is precisely the initiation skew that PTP
        bounds."""
        true_ns = self.clock.true_time(at_wall_ns)
        if self.config.reinitiation_timeout_ns > 0:
            self._initiated.setdefault(epoch, self.config.max_reinitiations)
        self.sim.schedule_at(max(true_ns, self.sim.now),
                             self._fire_initiation, epoch)

    def _fire_initiation(self, epoch: int) -> None:
        if self._crashed:
            return  # a dead CP fires nothing; observer retries cover it
        # OS wake-up jitter before the initiation loop runs.
        wakeup = sample_wakeup_ns(self.rng)
        ports = self._snapshot_ports()
        jitter = self._initiation_jitter
        for k, port in enumerate(ports):
            delay = wakeup + (k + 1) * INITIATION_CPU_NS + jitter()
            self.sim.schedule_fast(max(delay, 1), self._inject_initiation,
                                   port, epoch)
        self.initiations_sent += 1
        if self.channel_state and self.config.probe_delay_ns > 0:
            self.sim.schedule_fast(self.config.probe_delay_ns,
                                   self.inject_probes)
        if self.config.reinitiation_timeout_ns > 0:
            self.sim.schedule_fast(self.config.reinitiation_timeout_ns,
                                   self._maybe_reinitiate, epoch)

    def _snapshot_ports(self) -> list[int]:
        if self._ports is None:
            self._ports = sorted({uid.port for uid in self.trackers})
        return self._ports

    def _inject_initiation(self, port: int, epoch: int) -> None:
        packet = make_initiation_packet(self.ids.wrap(epoch),
                                        created_ns=self.sim.now)
        # The message crosses the CPU→ASIC channel, then enters the
        # ingress unit like any packet (Figure 6, path 3).
        # statics: allow[SIM003] models the switch-internal CPU port: the CPU→ASIC channel is inside one switch, not a network link
        self.sim.schedule_fast(ASIC_CPU_LATENCY_NS,
                               self.switch.ports[port].ingress.handle_packet,
                               packet)

    def _maybe_reinitiate(self, epoch: int) -> None:
        if self._crashed:
            return
        initiated = self._initiated
        if self.local_epoch_complete(epoch):
            # Done for good: ``last_read`` never falls.
            initiated.pop(epoch, None)
            return
        retries = initiated.get(epoch, 0)
        if retries <= 0:
            return
        initiated[epoch] = retries - 1
        self.reinitiations_sent += 1
        # "Speedlight control planes will resend initiations for
        # incomplete snapshots after a timeout.  This is safe as
        # duplicate and outdated control plane initiations are ignored
        # by the data plane" (§6).
        self._fire_initiation(epoch)
        if self.channel_state:
            # The usual reason a channel-state snapshot stalls is an idle
            # upstream channel; probes force ID propagation across them.
            self.inject_probes()

    # ------------------------------------------------------------------
    # Liveness helpers
    # ------------------------------------------------------------------
    def inject_probes(self, ttl: int = 1) -> None:
        """Inject snapshot-propagation broadcasts (§6, "Ensuring
        liveness").

        One probe enters each connected ingress unit, tagged with that
        unit's current snapshot ID; the switch floods it to every other
        egress (covering intra-switch channels that the traffic pattern
        leaves idle) and, while ``ttl`` wire hops remain, forwards it to
        snapshot-enabled neighbors (covering idle external channels).

        Safety: a probe enters an ingress via the CPU channel, so it
        never spoofs the external neighbor's Last Seen entry; every Last
        Seen update it causes downstream happens on a channel the probe
        physically traversed behind any in-flight packets.
        """
        if self._crashed:
            return
        for port_index in self._snapshot_ports():
            port = self.switch.ports[port_index]
            agent = port.ingress.snapshot_agent
            if agent is None:
                continue
            flow = FlowKey(src=f"{self.switch.name}-cpu",
                           dst=BROADCAST_DST, sport=0, dport=0, proto=255)
            probe = Packet(flow=flow, size_bytes=64,
                           created_ns=self.sim.now, payload=ttl)
            probe.snapshot = SnapshotHeader(sid=agent.sid,
                                            packet_type=PacketType.PROBE)
            self.probes_sent += 1
            # statics: allow[SIM003] probes enter via the switch-internal CPU port, same modeled path as initiations
            self.sim.schedule(ASIC_CPU_LATENCY_NS,
                              port.ingress.handle_packet, probe)

    def _periodic_poll(self) -> None:
        """Recurring register poll at the RecoveryPolicy's cadence.  A
        crashed CP skips the poll but keeps the timer running — the
        process that restarts it re-inherits the cadence."""
        self.poll_registers()
        self.sim.schedule(self.config.register_poll_interval_ns,
                          self._periodic_poll)

    def poll_registers(self) -> None:
        """Proactively resync the control-plane view from the data plane,
        recovering from dropped notifications (§6)."""
        if self._crashed:
            return
        self.polls_performed += 1
        for tracker in self.trackers.values():
            agent = tracker.agent
            now = self.sim.now
            sid_unwrapped = self.ids.unwrap_onto(agent.sid, tracker.ctrl_sid)
            if sid_unwrapped > tracker.ctrl_sid:
                self._advance_sid(tracker, sid_unwrapped, drop_suspected=True)
            for channel in tracker.gating:
                seen = self.ids.unwrap_onto(agent.read_last_seen(channel),
                                            tracker.ctrl_last_seen.get(channel, 0))
                if seen > tracker.ctrl_last_seen.get(channel, 0):
                    tracker.ctrl_last_seen[channel] = seen
            self._finalize_ready(tracker, read_ns=now)

    # ------------------------------------------------------------------
    # Crash faults (see :mod:`repro.faults`)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the control-plane process.

        The notification queue and the control plane's *volatile* view of
        every unit (unwrapped ID, Last Seen) are lost; already-finalized
        epochs (``last_read``) and the inconsistent-epoch markings survive
        — they were shipped / would be re-derived conservatively, and
        clearing :attr:`_UnitTracker.inconsistent` could silently launder
        a bad epoch.  Data-plane registers are unaffected (the ASIC keeps
        snapshotting; only the CPU side dies).
        """
        if self._crashed:
            return
        self._crashed = True
        self.crashes += 1
        self.channel.online = False
        self.notifications_lost_to_crash += len(self.channel.flush_queued())
        if self.agg_agent is not None:
            # The aggregation relay runs in the same CPU process: its
            # queue and in-progress combines die with the CP.
            self.agg_agent.set_online(False)
        for tracker in self.trackers.values():
            # Register-view loss: restart from the last finalized epoch;
            # the no-lapping window bounds how far the data plane can run
            # ahead, so unwrap_onto recovers the true epochs on restart.
            tracker.ctrl_sid = tracker.last_read
            for channel in tracker.ctrl_last_seen:
                tracker.ctrl_last_seen[channel] = tracker.last_read

    def restart(self) -> None:
        """Bring the control plane back up.

        Recovery is the §6 notification-drop path: one register poll with
        ``drop_suspected`` marking, so every epoch the data plane crossed
        while the CP was dead is flagged inconsistent rather than
        reported with silently-wrong channel state.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.channel.online = True
        if self.agg_agent is not None:
            # Relay back up (empty) before the poll re-finalizes epochs,
            # so the recovered records have somewhere to go.
            self.agg_agent.set_online(True)
        self.poll_registers()

    # ------------------------------------------------------------------
    # Notification handling (Figure 7)
    # ------------------------------------------------------------------
    def _on_notification(self, n: Notification) -> None:
        tracker = self.trackers.get(n.unit)
        if tracker is None:
            return  # unit not under snapshot management
        ctrl_sid = tracker.ctrl_sid
        new_sid = n.new_sid
        size = self._id_size
        if size is not None:
            # Both range-checked whichever branch follows (the method
            # raises), then ``IdSpace.unwrap_onto(new_sid, ctrl_sid)``
            # inlined: a call per notification (docs/PERF.md).
            if not (0 <= new_sid < size and 0 <= n.old_sid < size):
                for wrapped in (new_sid, n.old_sid):
                    self.ids.unwrap_onto(wrapped, ctrl_sid)  # raises
            ahead = (new_sid - ctrl_sid) % size
            new_sid = (ctrl_sid + ahead if 2 * ahead < size
                       else max(ctrl_sid + ahead - size, 0))
        if new_sid > ctrl_sid:
            if self.channel_state:
                # A dropped notification shows as old_sid ahead of our view.
                old_sid = self.ids.unwrap_onto(n.old_sid, ctrl_sid)
                self._advance_sid(tracker, new_sid,
                                  drop_suspected=old_sid != ctrl_sid)
            else:
                tracker.ctrl_sid = new_sid
            ctrl_sid = new_sid
        self.progress.note(ctrl_sid, n.timestamp_ns)
        if self.channel_state and n.channel is not None:
            if n.channel in tracker.ctrl_last_seen or n.channel in tracker.gating:
                current = tracker.ctrl_last_seen.get(n.channel, 0)
                seen = self.ids.unwrap_onto(n.new_last_seen, current)
                if seen > current:
                    tracker.ctrl_last_seen[n.channel] = seen
        self._finalize_ready(tracker)

    def _advance_sid(self, tracker: _UnitTracker, new_sid: int, *,
                     drop_suspected: bool) -> None:
        if self.channel_state and not self.ideal_dataplane:
            done = tracker.gating_min()
            # Epochs that can no longer accumulate complete channel state
            # (see module docstring for the derivation of the bounds).
            upper = new_sid + 1 if drop_suspected else new_sid
            for epoch in range(done + 1, upper):
                if epoch > tracker.last_read:
                    tracker.inconsistent.add(epoch)
        tracker.ctrl_sid = new_sid

    def _finalize_ready(self, tracker: _UnitTracker,
                        read_ns: Optional[int] = None) -> None:
        now = self.sim.now if read_ns is None else read_ns
        if self.channel_state:
            to_read = min(tracker.gating_min(), tracker.ctrl_sid)
        else:
            to_read = tracker.ctrl_sid
        last_read = tracker.last_read
        if to_read <= last_read:
            return
        agent = tracker.agent
        if self.channel_state:
            for epoch in range(last_read + 1, to_read + 1):
                slot = agent.read_slot(self.ids.wrap(epoch))
                consistent = (epoch not in tracker.inconsistent) and slot.valid
                record = UnitSnapshotRecord(
                    unit=agent.unit_id, epoch=epoch,
                    value=slot.value if slot.valid else 0,
                    channel_state=slot.channel_state if slot.valid else 0,
                    consistent=consistent,
                    captured_ns=slot.captured_ns, read_ns=now)
                agent.clear_slot(self.ids.wrap(epoch))
                tracker.inconsistent.discard(epoch)
                self._ship(record)
        elif to_read == last_read + 1:
            # The campaign keeps up: one epoch, one register, and the
            # downward scan below has nothing to infer.
            size = self._id_size
            taken = agent.take_slot(to_read if size is None else to_read % size)
            if taken is not None and self.ship is not None:
                # Positional: keywords would build a dict per record.
                self.ship(UnitSnapshotRecord(
                    agent.unit_id, to_read, taken[0], None, True, taken[1], now))
        else:
            # Figure 7, OnNotifyNoCS lines 17-22: scan downward, filling
            # skipped (uninitialized) slots from the nearest valid value
            # above — the unit processed no packets in between, so the
            # state is identical.
            records: list[UnitSnapshotRecord] = []
            valid_value: Optional[int] = None
            valid_captured = now
            for epoch in range(to_read, last_read, -1):
                slot = agent.read_slot(self.ids.wrap(epoch))
                if slot.valid:
                    valid_value = slot.value
                    valid_captured = slot.captured_ns
                agent.clear_slot(self.ids.wrap(epoch))
                if valid_value is None:
                    # Every slot from the top down should be initialized
                    # unless notifications raced a wraparound clear; skip
                    # conservatively (observer retry will cover it).
                    continue
                records.append(UnitSnapshotRecord(
                    unit=agent.unit_id, epoch=epoch, value=valid_value,
                    channel_state=None, consistent=True,
                    captured_ns=valid_captured, read_ns=now))
            for record in reversed(records):
                self._ship(record)
        tracker.last_read = to_read

    def _ship(self, record: UnitSnapshotRecord) -> None:
        if self.ship is not None:
            self.ship(record)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def local_epoch_complete(self, epoch: int) -> bool:
        """Every registered unit has finalized ``epoch``."""
        return all(t.last_read >= epoch for t in self.trackers.values())

    def min_finalized_epoch(self) -> int:
        if not self.trackers:
            return 0
        return min(t.last_read for t in self.trackers.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SwitchControlPlane({self.switch.name}, "
                f"units={len(self.trackers)}, cs={self.channel_state})")
