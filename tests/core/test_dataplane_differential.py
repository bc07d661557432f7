"""Register differential: the data-plane unit against the one it replaced.

The replaced unit kept its Snapshot Value register as one
``SnapshotSlot`` object per wrapped ID, all built up front.  It is kept
here verbatim (only the class names differ) as the oracle.  Drawn packet
sequences on small, wrapping ID spaces drive both units side by side,
with register reads and clears interleaved: every return, every
notification and every slot read must be equal.  End to end, a
wraparound campaign on a fat-tree must decode to the same epoch records
with either unit deployed.  Two pins ride along: the register dicts stay
invisible to the cyclic collector, and deployment cost does not grow
with ``max_sid``.
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.deployment as deployment_module
from repro.analysis.report import epoch_record
from repro.core import ControlPlaneConfig, deploy
from repro.core.dataplane import SpeedlightUnit
from repro.core.ids import IdSpace
from repro.core.notifications import Notification
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet, PacketType, SnapshotHeader
from repro.sim.switch import Direction, UnitId
from repro.topology import fat_tree
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

UNIT = UnitId("sw0", 0, Direction.INGRESS)
_DATA = PacketType.DATA


class _ReplacedSlot:
    __slots__ = ("valid", "value", "channel_state", "captured_ns")

    def __init__(self, valid: bool = False, value: int = 0,
                 channel_state: int = 0, captured_ns: int = 0) -> None:
        self.valid = valid
        self.value = value
        self.channel_state = channel_state
        self.captured_ns = captured_ns

    def clear(self) -> None:
        self.valid = False
        self.value = 0
        self.channel_state = 0
        self.captured_ns = 0


class _ReplacedUnit:
    """The per-unit data-plane snapshot logic (Figures 4 & 5)."""

    def __init__(self, unit_id: UnitId, id_space: IdSpace,
                 value_fn: Callable[[], int], *,
                 channel_state: bool = False,
                 notify: Optional[Callable[[Notification], None]] = None,
                 in_flight_value_fn: Optional[Callable[[Packet], int]] = None) -> None:
        self.unit_id = unit_id
        self.ids = id_space
        self._cmp = id_space.cmp  # bound once; called 1-2x per packet
        self.value_fn = value_fn
        self.channel_state = channel_state
        self.notify = notify
        #: Contribution of one in-flight packet to channel state.  The
        #: default (1 per packet) suits packet counts; byte counts pass
        #: ``lambda pkt: pkt.size_bytes``.
        self.in_flight_value_fn = in_flight_value_fn or (lambda pkt: 1)

        self._sid = 0  # wrapped; registers power up at zero (§6)
        #: Never quiet: the switch hands this unit every packet, so the
        #: campaign below compares the quiet pass against a full one.
        self.quiet_sid: Optional[int] = None
        self.last_seen: dict[int, int] = {}
        if id_space.size is not None:
            self._slots: dict[int, _ReplacedSlot] = {
                i: _ReplacedSlot() for i in range(id_space.size)}
        else:
            self._slots = {}
        self.packets_seen = 0
        self.notifications_emitted = 0

    # ------------------------------------------------------------------
    # SnapshotAgent protocol
    # ------------------------------------------------------------------
    @property
    def sid(self) -> int:
        """Current (wrapped) snapshot ID register."""
        return self._sid

    def process_packet(self, packet: Packet, channel_id: int, now_ns: int) -> int:
        """One pipeline pass of the snapshot match-action stages."""
        self.packets_seen += 1
        header = packet.snapshot
        assert header is not None, "snapshot unit fed a headerless packet"
        old_sid = self._sid
        header_sid = header.sid
        # The common case — the packet carries the current epoch — skips
        # the circular comparison entirely (cmp == 0 iff the IDs are
        # equal, and ``_sid`` is always in range).
        if header_sid != old_sid:
            if self._cmp(header_sid, old_sid) > 0:
                # New snapshot: save local state into the packet's slot.
                # The hardware cannot loop over skipped intermediate
                # slots.
                self._capture(header_sid, now_ns)
                self._sid = header_sid
            elif self.channel_state and header.packet_type is _DATA:
                # In-flight packet: one register op credits the current
                # slot.  (Initiations are "never considered an in-flight
                # packet", §6.)
                slot = self._slot(old_sid)
                slot.channel_state += self.in_flight_value_fn(packet)

        old_ls: Optional[int] = None
        new_ls: Optional[int] = None
        ls_changed = False
        if self.channel_state:
            old_ls = self.last_seen.get(channel_id, 0)
            new_ls = header_sid
            # Last Seen tracks the most recent epoch observed on the
            # channel; it never moves backwards.
            if new_ls != old_ls and self._cmp(new_ls, old_ls) > 0:
                self.last_seen[channel_id] = new_ls
                ls_changed = True
            else:
                new_ls = old_ls

        if old_sid != self._sid or ls_changed:
            self._emit(Notification(
                self.unit_id, old_sid, self._sid, now_ns,
                channel_id if self.channel_state else None, old_ls, new_ls))
        return self._sid

    # ------------------------------------------------------------------
    # Register plumbing
    # ------------------------------------------------------------------
    def _slot(self, wrapped_sid: int) -> _ReplacedSlot:
        slot = self._slots.get(wrapped_sid)
        if slot is None:  # unbounded spaces allocate lazily
            slot = self._slots[wrapped_sid] = _ReplacedSlot()
        return slot

    def _capture(self, wrapped_sid: int, now_ns: int) -> None:
        slot = self._slot(wrapped_sid)
        slot.valid = True
        slot.value = self.value_fn()
        slot.channel_state = 0
        slot.captured_ns = now_ns

    def _emit(self, notification: Notification) -> None:
        self.notifications_emitted += 1
        if self.notify is not None:
            self.notify(notification)

    # ------------------------------------------------------------------
    # Control-plane register access
    # ------------------------------------------------------------------
    def read_slot(self, wrapped_sid: int) -> _ReplacedSlot:
        """Register read of one Snapshot Value entry (PCIe access)."""
        return self._slot(wrapped_sid)

    def clear_slot(self, wrapped_sid: int) -> None:
        """Reset a slot's valid bit after the control plane consumed it,
        making the slot safe for reuse after ID wraparound."""
        self._slot(wrapped_sid).clear()

    def take_slot(self, wrapped_sid: int) -> Optional[tuple[int, int]]:
        """The control plane's one-call read and clear, composed from the
        two calls above (the register API grew it after this unit was
        replaced)."""
        slot = self.read_slot(wrapped_sid)
        taken = (slot.value, slot.captured_ns) if slot.valid else None
        self.clear_slot(wrapped_sid)
        return taken

    def read_last_seen(self, channel_id: int) -> int:
        return self.last_seen.get(channel_id, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpeedlightUnit({self.unit_id}, sid={self._sid})"


def _packet(sid: int, packet_type: PacketType = _DATA,
            size_bytes: int = 1000) -> Packet:
    packet = Packet(flow=FlowKey("a", "b", 1, 2), size_bytes=size_bytes)
    packet.snapshot = SnapshotHeader(sid=sid, packet_type=packet_type)
    return packet


def _registers(unit, size: int) -> list[tuple]:
    """Every slot of the register file, as a read returns it."""
    return [(slot.valid, slot.value, slot.channel_state, slot.captured_ns)
            for slot in map(unit.read_slot, range(size))]


# Offsets from the unit's current ID: 0 is the common case, positive
# values advance (by more than one: a skip), negative ones are packets
# of older epochs (in flight).  Wrapped, they also lap the window.
_OFFSETS = st.sampled_from([0, 0, 0, 1, 1, 1, 2, 3, 5, -1, -1, -2, -3, -6])


@st.composite
def _scripts(draw):
    max_sid = draw(st.integers(min_value=3, max_value=15))
    channel_state = draw(st.booleans())
    packet = st.tuples(st.just("packet"), _OFFSETS, st.integers(0, 2),
                       st.sampled_from([PacketType.DATA] * 4
                                       + [PacketType.INITIATION]),
                       st.integers(1, 1500))
    # Mostly packets, so that IDs lap the register file between clears.
    ops = draw(st.lists(st.one_of(
        packet, packet, packet, packet, packet, packet,
        st.tuples(st.just("read"), _OFFSETS),
        st.tuples(st.just("clear"), _OFFSETS)),
        min_size=30, max_size=150))
    return max_sid, channel_state, ops


@settings(max_examples=150, deadline=None)
@given(_scripts())
def test_unit_equals_the_one_it_replaced(script):
    max_sid, channel_state, ops = script
    size = max_sid + 1
    counter = [0]
    logs: tuple[list, list] = ([], [])
    new, old = (
        cls(UNIT, IdSpace(max_sid), lambda: counter[0],
            channel_state=channel_state, notify=log.append,
            in_flight_value_fn=lambda pkt: pkt.size_bytes)
        for cls, log in zip((SpeedlightUnit, _ReplacedUnit), logs))
    for now, op in enumerate(ops):
        assert new.sid == old.sid
        wrapped = (new.sid + op[1]) % size
        if op[0] == "packet":
            _, _, channel, packet_type, size_bytes = op
            returns = [unit.process_packet(
                _packet(wrapped, packet_type, size_bytes), channel, now)
                for unit in (new, old)]
            assert returns[0] == returns[1], op
            counter[0] += 1
        elif op[0] == "read":
            a, b = new.read_slot(wrapped), old.read_slot(wrapped)
            assert ((a.valid, a.value, a.channel_state, a.captured_ns)
                    == (b.valid, b.value, b.channel_state, b.captured_ns)), op
        else:
            new.clear_slot(wrapped)
            old.clear_slot(wrapped)
        # Slots never written and slots credited before any capture
        # included: the whole register file reads the same.
        assert _registers(new, size) == _registers(old, size), op
        assert logs[0] == logs[1], op
        assert (new.sid, new.last_seen) == (old.sid, old.last_seen)
        # The quiet ID is the current one, unless Last Seen can move.
        assert new.quiet_sid == (None if channel_state else new.sid)
    assert (new.packets_seen, new.notifications_emitted) == \
        (old.packets_seen, old.notifications_emitted)


def test_credit_before_any_capture_reads_invalid_with_channel_state():
    """A slot credited in flight before it was ever captured: not valid,
    yet its channel state reads back, as the replaced unit's did."""
    units = [cls(UNIT, IdSpace(7), lambda: 5, channel_state=True)
             for cls in (SpeedlightUnit, _ReplacedUnit)]
    for unit in units:
        unit.process_packet(_packet(7), 0, 1)  # 0 -> 7 is behind: in flight
        unit.process_packet(_packet(7), 0, 2)
    assert [_registers(unit, 8)[0] for unit in units] == [(False, 0, 2, 0)] * 2
    for unit in units:
        unit.clear_slot(0)
    assert _registers(units[0], 8) == _registers(units[1], 8) == \
        [(False, 0, 0, 0)] * 8


def test_capture_over_an_uncleared_credit_resets_it():
    """Slot 0 is credited, never cleared, and captured again one lap
    later: the capture zeroes its channel state."""
    units = [cls(UNIT, IdSpace(3), lambda: 5, channel_state=True)
             for cls in (SpeedlightUnit, _ReplacedUnit)]
    for unit in units:
        unit.process_packet(_packet(3), 0, 1)  # behind 0: credits slot 0
        for now, sid in enumerate((1, 2, 3, 0), start=2):
            unit.process_packet(_packet(sid), 0, now)
    assert [_registers(unit, 4)[0] for unit in units] == [(True, 5, 0, 5)] * 2


def _campaign(channel_state: bool, *,
              pin: bool = False) -> tuple[list[dict], tuple[int, int]]:
    """A wraparound campaign: 24 epochs over an 8-entry register file.
    Returns the epoch records and the units' summed ``packets_seen`` and
    ``notifications_emitted``.  With ``pin``, the collector pin is
    checked midway (registers hold entries) and at the end (the control
    plane has cleared them)."""
    net = Network(fat_tree(k=4), NetworkConfig(seed=21))
    PoissonWorkload(net, PoissonConfig(
        seed=22, rate_pps=150, stop_ns=150 * MS, sport_churn=True)).start()
    deployment = deploy(net, metric="packet_count", max_sid=7,
                        channel_state=channel_state,
                        control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
    epochs = deployment.schedule_campaign(count=24, interval_ns=5 * MS)
    # Midway: a quarter of a millisecond after epoch 12 (wrapped: 4) was
    # initiated, while captured slots wait for the control plane.
    net.run(until=60 * MS + 250 * US)
    if pin:
        registers = _registers_untracked(deployment)
        assert sum(map(len, registers)) >= 3 * 80
    net.run(until=200 * MS)
    if pin:
        _registers_untracked(deployment)
    agents = deployment.agents.values()
    return ([epoch_record(deployment.observer.snapshot(epoch))
             for epoch in epochs],
            (sum(agent.packets_seen for agent in agents),
             sum(agent.notifications_emitted for agent in agents)))


def _registers_untracked(deployment) -> list[dict]:
    """Collector pin: the register dicts hold only ints, so the cyclic
    collector never tracks them; an object stored in one would put every
    register back into every full collection."""
    agents = list(deployment.agents.values())
    assert len(agents) == 160
    assert all(isinstance(agent, SpeedlightUnit) for agent in agents)
    registers = [d for agent in agents
                 for d in (agent._values, agent._channel, agent._captured_ns)]
    assert not any(map(gc.is_tracked, registers))
    return registers


@pytest.mark.parametrize("channel_state", [False, True])
def test_wraparound_campaign_equals_the_replaced_unit(channel_state,
                                                      monkeypatch):
    records, counts = _campaign(channel_state, pin=True)
    assert sum(record["status"] == "complete" for record in records) > 8
    assert all(len(record["records"]) == 160
               for record in records if record["status"] == "complete")
    if channel_state:
        assert any(row["channel_state"]
                   for record in records for row in record["records"])

    # Without channel state the new unit is quiet on most passes, so the
    # switch skips it and counts them; the replaced unit processes all.
    monkeypatch.setattr(deployment_module, "SpeedlightUnit", _ReplacedUnit)
    assert _campaign(channel_state) == (records, counts)


def test_deploy_cost_does_not_grow_with_max_sid():
    """Deploying at ``max_sid=4095`` builds a few GC-tracked objects per
    unit (the replaced unit built 4 108: one slot per wrapped ID)."""
    net = Network(fat_tree(k=4), NetworkConfig(seed=1))
    gc.collect()
    before = len(gc.get_objects())
    deployment = deploy(net, metric="packet_count", max_sid=4095)
    gc.collect()
    added = len(gc.get_objects()) - before
    units = len(deployment.agents)
    assert units == 160
    assert added <= 16 * units, added / units
