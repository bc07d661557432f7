"""Tests for the switch control plane (Figure 7 + liveness)."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SnapshotStatus, control_plane, deploy
from repro.core.control_plane import (ControlPlaneConfig, NotificationChannel,
                                      SwitchControlPlane, uniform_jitter)
from repro.core.dataplane import SpeedlightUnit
from repro.core.ids import IdSpace
from repro.core.notifications import Notification
from repro.sim.clock import Clock
from repro.sim.engine import MS, Simulator, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet, SnapshotHeader
from repro.sim.switch import Direction, UnitId
from repro.topology import single_switch
from tests.conftest import linear

UNIT_A = UnitId("sw0", 0, Direction.INGRESS)

#: Examples for the jitter-draw differential (``make draw-diff-deep``
#: sets ``REPRO_DRAW_DIFF_EXAMPLES=5000``).
DRAW_DIFF_EXAMPLES = int(os.environ.get("REPRO_DRAW_DIFF_EXAMPLES", "100"))


def _pkt(sid):
    pkt = Packet(flow=FlowKey("a", "b", 1, 2))
    pkt.snapshot = SnapshotHeader(sid=sid)
    return pkt


@pytest.fixture
def fast_cp(monkeypatch):
    """A quick, jitter-free control plane CPU: no service or injection
    jitter, a 100 ns wake-up with no tail."""
    for name, value in (("NOTIFICATION_JITTER_NS", 0),
                        ("INITIATION_CPU_NS", 100),
                        ("INITIATION_JITTER_NS", 0),
                        ("WAKEUP_MEDIAN_NS", 100),
                        ("WAKEUP_TAIL_PROBABILITY", 0.0)):
        monkeypatch.setattr(control_plane, name, value)


def _fast_cp_config(**overrides):
    defaults = dict(notification_service_ns=1000,
                    reinitiation_timeout_ns=0, probe_delay_ns=0)
    defaults.update(overrides)
    return ControlPlaneConfig(**defaults)


def _bench(channel_state=False, max_sid=255, cp_config=None, ship=None):
    """A control plane over a real single-switch network, with one unit
    registered manually for white-box driving."""
    net = Network(single_switch(num_hosts=2), NetworkConfig(seed=1))
    switch = net.switch("sw0")
    shipped = []
    cp = SwitchControlPlane(switch, Clock(), IdSpace(max_sid),
                            channel_state=channel_state,
                            config=cp_config or _fast_cp_config(),
                            ship=ship or shipped.append)
    agent = SpeedlightUnit(UNIT_A, cp.ids, lambda: 7,
                           channel_state=channel_state,
                           notify=switch.send_notification)
    switch.ports[0].ingress.snapshot_agent = agent
    cp.register_unit(agent, gating_channels=[0] if channel_state else [])
    return net, cp, agent, shipped


@pytest.mark.usefixtures("fast_cp")
class TestNotificationChannel:
    def _channel(self, capacity=4, service=1000):
        sim = Simulator()
        handled = []
        channel = NotificationChannel(
            sim, random.Random(1),
            _fast_cp_config(notification_service_ns=service),
            handled.append)
        channel.capacity = capacity
        return sim, channel, handled

    def _notification(self, i=0):
        return Notification(unit=UNIT_A, old_sid=i, new_sid=i + 1,
                            timestamp_ns=i)

    def test_serial_service(self):
        sim, channel, handled = self._channel()
        channel.deliver(self._notification(0))
        channel.deliver(self._notification(1))
        sim.run(until=1500)
        assert len(handled) == 1  # second still queued behind the first
        sim.run()
        assert len(handled) == 2

    def test_overflow_drops(self):
        sim, channel, handled = self._channel(capacity=2)
        for i in range(5):
            channel.deliver(self._notification(i))
        sim.run()
        # One in service + two buffered; the rest dropped.
        assert channel.dropped == 2
        assert len(handled) == 3

    def test_backlog_tracking(self):
        sim, channel, _handled = self._channel(capacity=100)
        for i in range(10):
            channel.deliver(self._notification(i))
        assert channel.backlog == 10
        sim.run()
        assert channel.backlog == 0
        assert channel.max_backlog == 10


@pytest.mark.usefixtures("fast_cp")
class TestNoChannelState:
    def test_record_shipped_on_advance(self):
        net, cp, agent, shipped = _bench()
        agent.process_packet(_pkt(1), 0, now_ns=5)
        net.run(until=1 * MS)
        assert len(shipped) == 1
        record = shipped[0]
        assert record.epoch == 1
        assert record.value == 7
        assert record.consistent
        assert record.channel_state is None

    def test_skipped_epochs_inferred_from_above(self):
        net, cp, agent, shipped = _bench()
        agent.process_packet(_pkt(3), 0, now_ns=5)  # jump 0 -> 3
        net.run(until=1 * MS)
        assert [r.epoch for r in shipped] == [1, 2, 3]
        # Figure 7 lines 19-21: uninitialized slots take the value of the
        # nearest initialized slot above.
        assert all(r.value == 7 for r in shipped)
        assert all(r.consistent for r in shipped)

    def test_progress_folded_per_epoch(self):
        net, cp, agent, _ = _bench()
        agent.process_packet(_pkt(1), 0, now_ns=5)
        net.run(until=1 * MS)
        assert cp.progress == {1: [5, 5, 1]}
        # Earliest, latest and count per epoch, whatever the arrival
        # order: that is all sync_spread_ns and the shard merge read.
        for stamp in (9, 2, 4):
            cp.channel.deliver(Notification(UNIT_A, 1, 2, stamp))
        net.run(until=2 * MS)
        assert cp.progress == {1: [5, 5, 1], 2: [2, 9, 3]}

    def test_rollover_handled_via_unwrap(self):
        net, cp, agent, shipped = _bench(max_sid=7)
        for epoch in range(1, 12):  # crosses the wrap at 8
            agent.process_packet(_pkt(epoch % 8), 0, now_ns=net.sim.now + 1)
            # Let the CP digest each epoch: the no-lapping window (the
            # observer's out-of-band duty) caps how far the data plane
            # may run ahead of the control plane's reads.
            net.run(until=net.sim.now + 1 * MS)
        assert [r.epoch for r in shipped] == list(range(1, 12))

    def test_lapping_loses_epochs_as_documented(self):
        # Anti-test: if the data plane races a full wrap ahead of the CP
        # (violating the observer-enforced window), register reuse makes
        # old epochs unrecoverable.  This pins the documented failure
        # mode rather than silently relying on it.
        net, cp, agent, shipped = _bench(max_sid=7)
        for epoch in range(1, 12):
            agent.process_packet(_pkt(epoch % 8), 0, now_ns=epoch)
        net.run(until=5 * MS)
        assert len(shipped) < 11


@pytest.mark.usefixtures("fast_cp")
class TestChannelState:
    def test_completion_gated_on_last_seen(self):
        net, cp, agent, shipped = _bench(channel_state=True)
        agent.process_packet(_pkt(1), channel_id=0, now_ns=5)
        net.run(until=1 * MS)
        # Advance and last-seen move together on a single channel, so the
        # epoch finalizes immediately.
        assert [r.epoch for r in shipped] == [1]
        assert shipped[0].channel_state == 0

    def test_in_flight_credit_included(self):
        net, cp, agent, shipped = _bench(channel_state=True)
        agent.process_packet(_pkt(1), 0, 5)
        agent.process_packet(_pkt(0), 0, 6)   # in-flight for epoch 1
        agent.process_packet(_pkt(2), 0, 7)
        net.run(until=1 * MS)
        by_epoch = {r.epoch: r for r in shipped}
        assert by_epoch[2].consistent
        # The credit was folded into epoch... the credit lands in the
        # current slot at arrival time, which was epoch 1.
        assert by_epoch[1].channel_state == 1

    def test_skip_marks_intermediate_epochs_inconsistent(self):
        net, cp, agent, shipped = _bench(channel_state=True)
        agent.process_packet(_pkt(4), 0, 5)  # jump 0 -> 4
        net.run(until=1 * MS)
        by_epoch = {r.epoch: r for r in shipped}
        assert set(by_epoch) == {1, 2, 3, 4}
        assert not by_epoch[1].consistent
        assert not by_epoch[2].consistent
        assert not by_epoch[3].consistent
        assert by_epoch[4].consistent  # the landing epoch keeps its state

    def test_exclude_channel_unblocks_completion(self):
        # The §6 removal of non-utilized upstream neighbours is derived
        # at deploy time: no host channel gates an ingress unit, so a
        # snapshot completes while every host is idle.
        net = Network(single_switch(num_hosts=3), NetworkConfig(seed=1))
        deployment = deploy(net, channel_state=True)
        trackers = deployment.control_planes["sw0"].trackers
        assert all(not tracker.gating for unit, tracker in trackers.items()
                   if unit.direction == Direction.INGRESS)
        epoch = deployment.take_snapshot()
        net.run(until=200 * MS)
        snapshot = deployment.observer.snapshot(epoch)
        assert snapshot.status is SnapshotStatus.COMPLETE

    def test_multiple_gating_channels_gate_on_minimum(self):
        net = Network(single_switch(num_hosts=3), NetworkConfig(seed=1))
        switch = net.switch("sw0")
        shipped = []
        cp = SwitchControlPlane(switch, Clock(), IdSpace(255),
                                channel_state=True,
                                config=_fast_cp_config(),
                                ship=shipped.append)
        agent = SpeedlightUnit(UNIT_A, cp.ids, lambda: 7, channel_state=True,
                               notify=switch.send_notification)
        switch.ports[0].ingress.snapshot_agent = agent
        cp.register_unit(agent, gating_channels=[0, 1])
        agent.process_packet(_pkt(1), channel_id=0, now_ns=5)
        net.run(until=1 * MS)
        assert shipped == []  # channel 1 still at 0
        agent.process_packet(_pkt(1), channel_id=1, now_ns=10)
        net.run(until=2 * MS)
        assert [r.epoch for r in shipped] == [1]


@pytest.mark.usefixtures("fast_cp")
class TestDropRecovery:
    def test_poll_registers_recovers_lost_notifications(self):
        # Tiny buffer: most notifications drop.
        net, cp, agent, shipped = _bench(
            cp_config=_fast_cp_config(notification_service_ns=500 * US))
        cp.channel.capacity = 1
        for epoch in range(1, 6):
            agent.process_packet(_pkt(epoch), 0, now_ns=epoch)
        net.run(until=10 * MS)
        assert cp.channel.dropped > 0
        assert len(shipped) < 5
        cp.poll_registers()
        assert {r.epoch for r in shipped} == {1, 2, 3, 4, 5}

    def test_notification_gap_marks_conservatively(self):
        net, cp, agent, shipped = _bench(channel_state=True)
        # Simulate a dropped notification by delivering epoch 2's
        # notification with old values claiming a prior unseen advance.
        cp.channel.deliver(Notification(unit=UNIT_A, old_sid=1, new_sid=2,
                                        timestamp_ns=5, channel=0,
                                        old_last_seen=1, new_last_seen=2))
        net.run(until=1 * MS)
        by_epoch = {r.epoch: r for r in shipped}
        # Epochs 1 and 2 are suspect: the CP missed epoch 1's notification
        # (and the data-plane state backing it), so both ship inconsistent.
        assert not by_epoch[1].consistent
        assert not by_epoch[2].consistent


class TestInitiation:
    def test_initiation_reaches_units_and_ships_records(self):
        net = Network(single_switch(num_hosts=2), NetworkConfig(seed=1))
        from repro.core import deploy
        deployment = deploy(net, metric="packet_count", channel_state=False)
        cp = deployment.control_planes["sw0"]
        cp.schedule_initiation(epoch=1, at_wall_ns=1 * MS)
        net.run(until=50 * MS)
        assert cp.local_epoch_complete(1)
        assert cp.initiations_sent == 1

    @pytest.mark.usefixtures("fast_cp")
    def test_initiation_at_local_clock_time(self):
        net = Network(single_switch(num_hosts=2), NetworkConfig(seed=1))
        switch = net.switch("sw0")
        clock = Clock(offset_ns=-2 * MS)  # local clock runs behind
        cp = SwitchControlPlane(switch, clock, IdSpace(255),
                                channel_state=False,
                                config=_fast_cp_config())
        agent = SpeedlightUnit(UNIT_A, cp.ids, lambda: 0,
                               notify=switch.send_notification)
        switch.ports[0].ingress.snapshot_agent = agent
        switch.ports[0].egress.snapshot_agent = SpeedlightUnit(
            UnitId("sw0", 0, Direction.EGRESS), cp.ids, lambda: 0)
        cp.register_unit(agent, [])
        cp.schedule_initiation(epoch=1, at_wall_ns=5 * MS)
        net.run(until=4 * MS)
        assert agent.sid == 0  # local clock hasn't reached 5 ms yet
        net.run(until=10 * MS)
        assert agent.sid == 1  # fires at true time 7 ms (5 ms local)

    def test_reinitiation_after_timeout(self):
        net = Network(single_switch(num_hosts=2), NetworkConfig(seed=1))
        from repro.core import deploy
        from repro.core import ControlPlaneConfig
        deployment = deploy(
            net, metric="packet_count", channel_state=False,
            control_plane=ControlPlaneConfig(
                reinitiation_timeout_ns=5 * MS, max_reinitiations=2))
        cp = deployment.control_planes["sw0"]
        # Sabotage: disconnect the notification sink so completion is
        # never observed locally -> retries must fire.
        net.switch("sw0").notification_sink = lambda n: None
        cp.schedule_initiation(epoch=1, at_wall_ns=1 * MS)
        net.run(until=100 * MS)
        assert cp.reinitiations_sent == 2

    @pytest.mark.usefixtures("fast_cp")
    def test_duplicate_registration_rejected(self):
        net, cp, agent, _ = _bench()
        with pytest.raises(ValueError):
            cp.register_unit(agent, [])


def _port_facing(net, switch_name, peer_name):
    """Index of ``switch_name``'s port whose link peer is ``peer_name``."""
    switch = net.switch(switch_name)
    for port_index in switch.connected_ports():
        peer, _kind = net.peer_of_port(switch_name, port_index)
        if peer == peer_name:
            return port_index
    raise AssertionError(f"{switch_name} has no port facing {peer_name}")


class TestCrashRecovery:
    """Crash/restart semantics used by the fault injector (repro.faults)."""

    def _two_switch(self, channel_state=True):
        from repro.core import deploy
        net = Network(linear(num_switches=2, hosts_per_switch=1),
                      NetworkConfig(seed=5))
        deployment = deploy(
            net, metric="packet_count", channel_state=channel_state)
        return net, deployment

    def test_crash_is_idempotent_and_goes_offline(self):
        net, deployment = self._two_switch()
        cp = deployment.control_planes["sw0"]
        cp.crash()
        cp.crash()
        assert cp.crashes == 1
        assert not cp.channel.online

    def test_crash_flushes_queued_notifications(self):
        net, deployment = self._two_switch()
        cp = deployment.control_planes["sw0"]
        deployment.schedule_campaign(count=1, interval_ns=5 * MS)
        # Stop just after the initiation fires, while notifications from
        # the data plane are still queued for CPU service.
        net.run(until=int(1.05 * MS))
        queued = len(cp.channel._queue) + (1 if cp.channel._busy else 0)
        cp.crash()
        assert cp.notifications_lost_to_crash >= queued
        assert not cp.channel._queue

    def test_epochs_crossed_while_dead_ship_inconsistent(self):
        net, deployment = self._two_switch()
        cp = deployment.control_planes["sw0"]
        epochs = deployment.schedule_campaign(count=3, interval_ns=5 * MS)
        # Dead from before the first initiation until after the last.
        net.sim.schedule_at(MS // 2, cp.crash)
        net.sim.schedule_at(20 * MS, cp.restart)
        net.run(until=60 * MS)
        for epoch in epochs:
            snap = deployment.observer.snapshot(epoch)
            records = [r for unit, r in snap.records.items()
                       if unit.device == "sw0"]
            assert records, "restart recovery must still ship the epochs"
            assert not any(r.consistent for r in records)
        # The peer switch was healthy the whole time.
        healthy = [r for r in deployment.observer.snapshot(epochs[0])
                   .records.values() if r.unit.device == "sw1"]
        assert healthy and all(r.consistent for r in healthy)

    def test_restart_without_crash_is_a_noop(self):
        net, deployment = self._two_switch()
        cp = deployment.control_planes["sw0"]
        cp.restart()
        assert cp.crashes == 0
        assert cp.channel.online


class TestProbeLiveness:
    """§6 "Ensuring liveness": probes must complete snapshots on idle
    links — without spoofing the external channel's Last Seen."""

    def _idle_two_switch(self):
        from repro.core import deploy
        net = Network(linear(num_switches=2, hosts_per_switch=1),
                      NetworkConfig(seed=5))
        deployment = deploy(net, metric="packet_count", channel_state=True)
        return net, deployment

    def test_idle_link_snapshot_completes_via_probes(self):
        net, deployment = self._idle_two_switch()  # zero traffic
        epoch = deployment.take_snapshot(at_wall_ns=1 * MS)
        net.run(until=50 * MS)
        snap = deployment.observer.snapshot(epoch)
        assert snap.complete
        assert snap.consistent

    def test_local_probe_never_spoofs_external_last_seen(self):
        net, deployment = self._idle_two_switch()
        # Stall the sw0 -> sw1 direction: nothing (not even sw0's wire
        # probes) crosses, so sw1's external Last Seen must stay put even
        # though sw1's own CPU injects probes into that very ingress.
        sw0_egress = net.switch("sw0").ports[
            _port_facing(net, "sw0", "sw1")].egress
        sw0_egress.queue.pause()
        agent = net.switch("sw1").ports[
            _port_facing(net, "sw1", "sw0")].ingress.snapshot_agent
        epoch = deployment.take_snapshot(at_wall_ns=1 * MS)
        net.run(until=10 * MS)
        assert agent.sid == 1                     # CPU initiation arrived
        assert agent.read_last_seen(0) == 0       # wire saw nothing: no spoof
        assert not deployment.observer.snapshot(epoch).complete
        # Un-stall: the queued probe crosses and completion follows.
        sw0_egress.queue.resume()
        net.run(until=60 * MS)
        snap = deployment.observer.snapshot(epoch)
        assert agent.read_last_seen(0) >= 1
        assert snap.complete


class TestUniformJitter:
    """The jitter sampler against the library draw it replaced: the same
    values, and the RNG left in the same state (docs/DETERMINISM.md)."""

    @settings(max_examples=DRAW_DIFF_EXAMPLES, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           jitter_ns=st.one_of(st.sampled_from([0, 1, 100, 15_000]),
                               st.integers(0, 2**20)),
           draws=st.integers(1, 64))
    def test_draws_equal_randint(self, seed, jitter_ns, draws):
        ours, theirs = random.Random(seed), random.Random(seed)
        draw = uniform_jitter(ours, jitter_ns)
        assert ([draw() for _ in range(draws)] ==
                [theirs.randint(-jitter_ns, jitter_ns) for _ in range(draws)])
        assert ours.getstate() == theirs.getstate()

    def test_negative_jitter_raises(self):
        # ``randint(1, -1)`` is an empty range; the sampler refuses it
        # when built rather than looping on a span that never accepts.
        with pytest.raises(ValueError, match="jitter_ns"):
            uniform_jitter(random.Random(0), -1)
