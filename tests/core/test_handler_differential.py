"""Figure 7 handler differential: the control plane's notification
handler against a transcription of the handler it replaced.

The replaced bodies (``_on_notification`` / ``_advance_sid`` /
``_finalize_ready`` as they stood before the straight-line branches) are
kept here verbatim as the oracle.  One drawn sequence of data-plane
activity — single steps, skips, in-flight packets, dropped, duplicated
and stale notifications, wraparound, register polls, a crash and a
restart — drives two identical stacks, one per handler; every shipped
record and every tracker must come out equal.
"""

from dataclasses import astuple
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import control_plane
from repro.core.control_plane import (ControlPlaneConfig, SwitchControlPlane,
                                      UnitSnapshotRecord)
from repro.core.dataplane import SpeedlightUnit
from repro.core.ids import IdSpace
from repro.sim.clock import Clock
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet, SnapshotHeader
from repro.sim.switch import Direction, UnitId
from repro.topology import single_switch

UNITS = (UnitId("sw0", 0, Direction.INGRESS), UnitId("sw0", 1, Direction.EGRESS))
CHANNELS = (0, 1)


@pytest.fixture(autouse=True, scope="module")
def _short_service_jitter():
    """±200 ns on a 1 µs service, so arrivals interleave with service
    ends in varied orders."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(control_plane, "NOTIFICATION_JITTER_NS", 200)
        yield


class _ReplacedHandler(SwitchControlPlane):
    """``SwitchControlPlane`` with the handler bodies of the parent
    commit (they kept ``progress_log``, one tuple per notification)."""

    def __init__(self, *args, **kwargs) -> None:
        self.progress_log: list = []
        super().__init__(*args, **kwargs)

    def _on_notification(self, n) -> None:
        tracker = self.trackers.get(n.unit)
        if tracker is None:
            return  # unit not under snapshot management
        new_sid = self.ids.unwrap_onto(n.new_sid, tracker.ctrl_sid)
        old_sid = self.ids.unwrap_onto(n.old_sid, tracker.ctrl_sid)
        if new_sid > tracker.ctrl_sid:
            # A dropped notification shows as old_sid ahead of our view.
            drop_suspected = old_sid != tracker.ctrl_sid
            self._advance_sid(tracker, new_sid, drop_suspected=drop_suspected)
        self.progress_log.append((max(new_sid, tracker.ctrl_sid), n.unit,
                                  n.timestamp_ns))
        if self.channel_state and n.channel is not None:
            if n.channel in tracker.ctrl_last_seen or n.channel in tracker.gating:
                current = tracker.ctrl_last_seen.get(n.channel, 0)
                seen = self.ids.unwrap_onto(n.new_last_seen, current)
                if seen > current:
                    tracker.ctrl_last_seen[n.channel] = seen
        self._finalize_ready(tracker)

    def _advance_sid(self, tracker, new_sid: int, *,
                     drop_suspected: bool) -> None:
        if self.channel_state and not self.ideal_dataplane:
            done = tracker.gating_min()
            upper = new_sid + 1 if drop_suspected else new_sid
            for epoch in range(done + 1, upper):
                if epoch > tracker.last_read:
                    tracker.inconsistent.add(epoch)
        tracker.ctrl_sid = new_sid

    def _finalize_ready(self, tracker, read_ns: Optional[int] = None) -> None:
        now = self.sim.now if read_ns is None else read_ns
        if self.channel_state:
            to_read = min(tracker.gating_min(), tracker.ctrl_sid)
        else:
            to_read = tracker.ctrl_sid
        if to_read <= tracker.last_read:
            return
        agent = tracker.agent
        if self.channel_state:
            for epoch in range(tracker.last_read + 1, to_read + 1):
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
        else:
            records: list[UnitSnapshotRecord] = []
            valid_value: Optional[int] = None
            valid_captured = now
            for epoch in range(to_read, tracker.last_read, -1):
                slot = agent.read_slot(self.ids.wrap(epoch))
                if slot.valid:
                    valid_value = slot.value
                    valid_captured = slot.captured_ns
                agent.clear_slot(self.ids.wrap(epoch))
                if valid_value is None:
                    continue
                records.append(UnitSnapshotRecord(
                    unit=agent.unit_id, epoch=epoch, value=valid_value,
                    channel_state=None, consistent=True,
                    captured_ns=valid_captured, read_ns=now))
            for record in reversed(records):
                self._ship(record)
        tracker.last_read = to_read


class _Stack:
    """One control plane over a single-switch network with two units
    registered by hand; notifications pass through ``self.emitted`` so
    the driver decides which reach the CPU, and how often."""

    def __init__(self, handler_cls, max_sid: int, channel_state: bool) -> None:
        self.net = Network(single_switch(num_hosts=2), NetworkConfig(seed=1))
        self.shipped: list[UnitSnapshotRecord] = []
        #: The progress floor a relay beside this CP would read while
        #: each record is being shipped (``last_read`` moves after).
        self.floor_at_ship: list[int] = []
        self.cp = handler_cls(
            self.net.switch("sw0"), Clock(), IdSpace(max_sid),
            channel_state=channel_state,
            config=ControlPlaneConfig(
                notification_service_ns=1000, reinitiation_timeout_ns=0,
                probe_delay_ns=0),
            ship=self._ship)
        self.emitted: list = []
        self.counter = 0
        self.agents = []
        for unit in UNITS:
            agent = SpeedlightUnit(unit, self.cp.ids, self._read_counter,
                                   channel_state=channel_state,
                                   notify=self.emitted.append)
            self.cp.register_unit(
                agent, gating_channels=list(CHANNELS) if channel_state else [])
            self.agents.append(agent)

    def _ship(self, record: UnitSnapshotRecord) -> None:
        self.shipped.append(record)
        self.floor_at_ship.append(self.cp.min_finalized_epoch())

    def _read_counter(self) -> int:
        return self.counter

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "packet":
            _, unit, channel, sid, drop, copies = op
            self.counter += 1
            before = len(self.emitted)
            packet = Packet(flow=FlowKey("a", "b", 1, 2))
            packet.snapshot = SnapshotHeader(sid=sid)
            self.agents[unit].process_packet(packet, channel, self.net.sim.now)
            if not drop:
                for notification in self.emitted[before:]:
                    for _ in range(copies):
                        self.cp.channel.deliver(notification)
        elif kind == "stale":
            if self.emitted:
                self.cp.channel.deliver(self.emitted[op[1] % len(self.emitted)])
        elif kind == "poll":
            self.cp.poll_registers()
        elif kind == "crash":
            self.cp.crash()
        elif kind == "restart":
            self.cp.restart()
        else:
            assert kind == "run"
            self.net.run(until=self.net.sim.now + op[1])

    def state(self) -> dict:
        return {
            "shipped": [astuple(record) for record in self.shipped],
            "floor_at_ship": self.floor_at_ship,
            "trackers": {
                str(unit): (t.ctrl_sid, t.last_read, sorted(t.inconsistent),
                            sorted(t.ctrl_last_seen.items()))
                for unit, t in self.cp.trackers.items()},
            "channel": (self.cp.channel.received, self.cp.channel.processed,
                        self.cp.channel.dropped, self.cp.channel.max_backlog),
        }


def _fold(progress_log: list) -> dict:
    """What ``SwitchControlPlane.progress`` keeps of the old log."""
    folded: dict = {}
    for epoch, _unit, stamp in progress_log:
        span = folded.setdefault(epoch, [stamp, stamp, 0])
        span[0] = min(span[0], stamp)
        span[1] = max(span[1], stamp)
        span[2] += 1
    return folded


@st.composite
def _scenarios(draw):
    max_sid = draw(st.sampled_from([3, 7]))
    channel_state = draw(st.booleans())
    ops: list[tuple] = []
    # The epoch each unit's traffic carries; steps of 2-5 skip, 0 and -1
    # are packets of the current or the previous epoch (in flight).
    epochs = [0, 0]
    for _ in range(draw(st.integers(min_value=5, max_value=40))):
        kind = draw(st.sampled_from(
            ["packet"] * 10 + ["run"] * 5
            + ["stale", "poll", "crash", "restart"]))
        if kind == "packet":
            unit = draw(st.integers(0, 1))
            step = draw(st.sampled_from([1] * 6 + [2, 3, 4, 5, 0, -1]))
            carried = max(0, epochs[unit] + step)
            epochs[unit] = max(epochs[unit], carried)
            ops.append(("packet", unit, draw(st.sampled_from(CHANNELS)),
                        carried % (max_sid + 1),
                        draw(st.sampled_from([False] * 5 + [True])),
                        draw(st.sampled_from([1] * 5 + [2]))))
        elif kind == "stale":
            ops.append(("stale", draw(st.integers(0, 1000))))
        elif kind == "run":
            ops.append(("run", draw(st.sampled_from([0, 300, 900, 2500,
                                                     20_000]))))
        else:
            ops.append((kind,))
    ops += [("restart",), ("run", 1_000_000)]
    return max_sid, channel_state, ops


def _run_both(max_sid: int, channel_state: bool, ops: list) -> _Stack:
    new = _Stack(SwitchControlPlane, max_sid, channel_state)
    old = _Stack(_ReplacedHandler, max_sid, channel_state)
    for op in ops:
        new.apply(op)
        old.apply(op)
        assert new.state() == old.state(), op
    assert new.cp.progress == _fold(old.cp.progress_log)
    return new


@settings(max_examples=60, deadline=None)
@given(_scenarios())
def test_handler_equals_the_one_it_replaced(scenario):
    _run_both(*scenario)


@pytest.mark.parametrize("channel_state", [False, True])
def test_every_branch_ships_in_a_fixed_scenario(channel_state):
    """The drawn scenarios may ship little (a gating channel that stays
    idle finalizes nothing); this one walks each branch on purpose."""
    max_sid = 7

    def packet(unit, epoch, channel=0, drop=False, copies=1):
        return ("packet", unit, channel, epoch % (max_sid + 1), drop, copies)

    ops = [packet(0, 1), packet(0, 1, channel=1), ("run", 5000),  # one step
           packet(1, 1), packet(1, 1, channel=1), ("run", 300),
           packet(0, 2, copies=2), packet(0, 2, channel=1),       # duplicate
           ("crash",), packet(1, 2), ("run", 900), ("restart",),  # mid-service
           packet(1, 2, channel=1), ("run", 5000),
           packet(0, 3, drop=True), packet(0, 3, channel=1),      # a drop
           packet(0, 4), packet(0, 4, channel=1), ("stale", 0), ("run", 5000),
           packet(0, 7), packet(0, 7, channel=1),                 # a skip of 3
           packet(0, 6), ("poll",), ("run", 5000),                # in flight
           packet(0, 8), packet(0, 8, channel=1), ("run", 5000)]  # wraps
    stack = _run_both(max_sid, channel_state, ops)
    epochs = [record.epoch for record in stack.shipped
              if record.unit == UNITS[0]]
    assert epochs[:4] == [1, 2, 3, 4] and len(epochs) > 4
    if channel_state:
        assert not all(record.consistent for record in stack.shipped)
