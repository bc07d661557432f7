"""Tests for binding fault schedules to a live network."""

import pytest

from repro.core import deploy
from repro.faults import FaultInjector, FaultSchedule
from repro.sim.channel import GilbertElliottLoss, NoLoss
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.shard import ShardRunner
from repro.topology import leaf_spine
from tests.conftest import linear
from repro.updates import TimedSwap, UpdateContext, UpdateDriver


def _network(seed=3):
    return Network(linear(num_switches=2, hosts_per_switch=1),
                   NetworkConfig(seed=seed))


def _link(network, name="sw0-sw1"):
    return next(l for l in network.links if l.name == name)


def _armed(network, schedule, deployment=None):
    injector = FaultInjector(network, schedule, deployment=deployment)
    injector.arm()
    return injector


class TestArming:
    def test_empty_schedule_is_a_strict_noop(self):
        network = _network()
        injector = FaultInjector(network, FaultSchedule())
        before = len(network.sim._heap)
        assert injector.arm() == 0
        assert injector.rng is None               # no RNG stream constructed
        assert len(network.sim._heap) == before   # nothing scheduled

    def test_a_shard_whose_share_is_empty_is_a_strict_noop(self):
        # leaf0, spine0 and server0 all live on shard 0, so shard 1's
        # injector and driver own nothing of either schedule.
        faults = FaultSchedule()
        faults.add("link_loss", MS, target="leaf0-spine0")
        faults.add("cp_crash", MS, target="leaf0", duration_ns=MS)
        updates = TimedSwap(at_ns=MS, routes=(
            ("leaf0", "server1", ("spine1",)),
            ("spine0", "server1", ("leaf0",)))).compile(
                UpdateContext.for_topology(leaf_spine(hosts_per_leaf=1),
                                           horizon_ns=10 * MS))
        armed = {}

        def setup(worker):
            deployment = deploy(worker, metric="fib_version")
            heap = len(worker.sim._heap)
            injector = FaultInjector(worker.network, faults,
                                     deployment=deployment)
            driver = UpdateDriver(worker.network, updates)
            armed[worker.shard_id] = (injector.arm(), driver.arm(),
                                      injector.rng is None,
                                      len(worker.sim._heap) - heap,
                                      [switch.drop_monitor is None for switch
                                       in worker.network.switches.values()])

        ShardRunner(leaf_spine(hosts_per_leaf=1), shards=2, setup=setup)
        assert armed[0][:4] == (2, 2, False, 4)  # 2 applies, 2 swaps
        assert armed[1] == (0, 0, True, 0, [True, True])

    def test_double_arm_rejected(self):
        network = _network()
        injector = FaultInjector(network, FaultSchedule())
        injector.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()

    def test_unknown_link_rejected_at_arm_time(self):
        schedule = FaultSchedule()
        schedule.add("link_down", 0, target="sw0-sw9")
        with pytest.raises(ValueError, match="no link named"):
            _armed(_network(), schedule)

    def test_unknown_switch_and_clock_rejected(self):
        for kind, match in (("queue_squeeze", "no switch"),
                            ("clock_step", "no clock")):
            schedule = FaultSchedule()
            schedule.add(kind, 0, target="nope")
            with pytest.raises(ValueError, match=match):
                _armed(_network(), schedule)

    def test_cp_faults_require_deployment(self):
        schedule = FaultSchedule()
        schedule.add("cp_crash", 0, target="sw0")
        with pytest.raises(ValueError, match="deployment"):
            _armed(_network(), schedule)

    def test_link_target_accepts_either_orientation(self):
        schedule = FaultSchedule()
        schedule.add("link_down", 0, target="sw1-sw0")
        network = _network()
        _armed(network, schedule)
        network.run(until=1)
        assert not _link(network).up


class TestLinkFaults:
    def test_link_down_applies_and_reverts(self):
        schedule = FaultSchedule()
        schedule.add("link_down", 1 * MS, target="sw0-sw1",
                     duration_ns=2 * MS)
        network = _network()
        injector = _armed(network, schedule)
        link = _link(network)
        network.run(until=2 * MS)
        assert not link.up
        network.run(until=4 * MS)
        assert link.up
        assert injector.applied == 1 and injector.reverted == 1
        assert [(r.action, r.kind) for r in injector.log] == [
            ("apply", "link_down"), ("revert", "link_down")]

    def test_link_loss_swaps_model_and_restores_previous(self):
        schedule = FaultSchedule()
        schedule.add("link_loss", 1 * MS, target="sw0-sw1",
                     duration_ns=1 * MS, model="gilbert_elliott",
                     p_loss_bad=0.9)
        network = _network()
        _armed(network, schedule)
        link = _link(network)
        network.run(until=1 * MS + 1)
        assert isinstance(link.loss, GilbertElliottLoss)
        assert link.loss.p_loss_bad == 0.9
        network.run(until=3 * MS)
        assert isinstance(link.loss, NoLoss)

    def test_link_loss_unknown_model_rejected(self):
        schedule = FaultSchedule()
        schedule.add("link_loss", 0, target="sw0-sw1", model="quantum")
        network = _network()
        _armed(network, schedule)
        with pytest.raises(ValueError, match="unknown model"):
            network.run(until=1 * MS)

    def test_link_delay_spike_applies_and_clears(self):
        schedule = FaultSchedule()
        schedule.add("link_delay", 1 * MS, target="sw0-sw1",
                     duration_ns=1 * MS, extra_ns=250_000)
        network = _network()
        _armed(network, schedule)
        link = _link(network)
        network.run(until=1 * MS + 1)
        assert link.extra_delay_ns == 250_000
        network.run(until=3 * MS)
        assert link.extra_delay_ns == 0

    def test_wildcard_hits_every_link(self):
        schedule = FaultSchedule()
        schedule.add("link_down", 0, target="*", duration_ns=0)
        network = _network()
        _armed(network, schedule)
        network.run(until=1)
        assert all(not l.up for l in network.links)  # permanent: no revert


class TestSwitchFaults:
    def test_queue_squeeze_shrinks_and_restores_capacity(self):
        schedule = FaultSchedule()
        schedule.add("queue_squeeze", 1 * MS, target="sw0",
                     duration_ns=1 * MS, capacity=4)
        network = _network()
        _armed(network, schedule)
        switch = network.switch("sw0")
        queues = [switch.ports[p].egress.queue
                  for p in switch.connected_ports()]
        originals = [q.capacity_packets for q in queues]
        network.run(until=1 * MS + 1)
        assert all(q.capacity_packets == 4 for q in queues)
        network.run(until=3 * MS)
        assert [q.capacity_packets for q in queues] == originals

    def test_unit_stall_pauses_and_resumes_egress(self):
        schedule = FaultSchedule()
        schedule.add("unit_stall", 1 * MS, target="sw0", duration_ns=1 * MS)
        network = _network()
        _armed(network, schedule)
        switch = network.switch("sw0")
        queues = [switch.ports[p].egress.queue
                  for p in switch.connected_ports()]
        network.run(until=1 * MS + 1)
        assert all(q.paused for q in queues)
        network.run(until=3 * MS)
        assert not any(q.paused for q in queues)


class TestControlPlaneAndClockFaults:
    def _deployed(self, schedule):
        network = _network()
        deployment = deploy(network, metric="packet_count")
        injector = _armed(network, schedule, deployment=deployment)
        return network, deployment, injector

    def test_cp_crash_and_restart(self):
        schedule = FaultSchedule()
        schedule.add("cp_crash", 1 * MS, target="sw0", duration_ns=2 * MS)
        network, deployment, _ = self._deployed(schedule)
        cp = deployment.control_planes["sw0"]
        network.run(until=2 * MS)
        assert cp.crashes == 1
        assert not cp.channel.online
        network.run(until=4 * MS)
        assert cp.channel.online  # restarted (and re-polled its registers)

    def test_cp_overflow_and_slow_tweak_channel(self):
        schedule = FaultSchedule()
        schedule.add("cp_overflow", 1 * MS, target="sw1",
                     duration_ns=1 * MS, capacity=5)
        schedule.add("cp_slow", 1 * MS, target="sw1",
                     duration_ns=1 * MS, scale=4.0)
        network, deployment, _ = self._deployed(schedule)
        channel = deployment.control_planes["sw1"].channel
        original = channel.capacity
        network.run(until=1 * MS + 1)
        assert channel.capacity == 5 and channel.service_scale == 4.0
        network.run(until=3 * MS)
        assert channel.capacity == original and channel.service_scale == 1.0

    def test_clock_holdover_suspends_ptp_discipline(self):
        schedule = FaultSchedule()
        schedule.add("clock_holdover", 1 * MS, target="sw0",
                     duration_ns=2 * MS)
        network = _network()
        _armed(network, schedule)
        network.run(until=2 * MS)
        assert "sw0" in network.ptp._holdover
        network.run(until=4 * MS)
        assert not network.ptp._holdover

    def test_clock_step_applies_instant_offset(self):
        schedule = FaultSchedule()
        schedule.add("clock_step", 1 * MS, target="sw1", delta_ns=50_000)
        network = _network()
        injector = _armed(network, schedule)
        clock = network.ptp.clocks["sw1"]
        before = clock.offset_ns
        network.run(until=1 * MS + 1)
        assert clock.offset_ns == before + 50_000
        assert injector.applied == 1 and injector.reverted == 0


class TestOverlappingWindowsNest:
    """Two windows of one kind on one target: the inner one's revert
    must not end the outer one, and the later one's revert must not
    re-install the earlier one's override (docs/FAULTS.md)."""

    def test_link_down_stays_down_until_the_outer_window_closes(self):
        schedule = FaultSchedule()
        schedule.add("link_down", 10 * MS, target="sw0-sw1",
                     duration_ns=20 * MS)
        schedule.add("link_down", 20 * MS, target="sw0-sw1",
                     duration_ns=5 * MS)
        network = _network()
        _armed(network, schedule)
        link = _link(network)
        network.run(until=27 * MS)          # the inner window has closed
        assert not link.up
        network.run(until=31 * MS)
        assert link.up

    def test_link_loss_ends_with_the_last_window_not_the_first_model(self):
        schedule = FaultSchedule()
        schedule.add("link_loss", 40 * MS, target="sw0-sw1",
                     duration_ns=20 * MS, model="bernoulli", p=0.5)
        schedule.add("link_loss", 50 * MS, target="sw0-sw1",
                     duration_ns=20 * MS, model="bernoulli", p=0.9)
        network = _network()
        _armed(network, schedule)
        link = _link(network)
        network.run(until=55 * MS)
        assert link.loss.probability == 0.9
        network.run(until=65 * MS)          # the first window has closed
        assert link.loss.probability == 0.9
        network.run(until=75 * MS)
        assert isinstance(link.loss, NoLoss)

    def test_queue_squeeze_restores_the_original_capacity(self):
        schedule = FaultSchedule()
        schedule.add("queue_squeeze", 80 * MS, target="sw0",
                     duration_ns=20 * MS, capacity=8)
        schedule.add("queue_squeeze", 90 * MS, target="sw0",
                     duration_ns=20 * MS, capacity=4)
        network = _network()
        _armed(network, schedule)
        switch = network.switch("sw0")
        queues = [switch.ports[p].egress.queue
                  for p in switch.connected_ports()]
        originals = [q.capacity_packets for q in queues]
        network.run(until=95 * MS)
        assert all(q.capacity_packets == 4 for q in queues)
        network.run(until=105 * MS)         # the first window has closed
        assert all(q.capacity_packets == 4 for q in queues)
        network.run(until=120 * MS)
        assert [q.capacity_packets for q in queues] == originals

    def test_inner_window_falls_back_to_the_outer_override(self):
        schedule = FaultSchedule()
        schedule.add("link_delay", 1 * MS, target="sw0-sw1",
                     duration_ns=10 * MS, extra_ns=1_000)
        schedule.add("link_delay", 2 * MS, target="sw0-sw1",
                     duration_ns=2 * MS, extra_ns=9_000)
        schedule.add("unit_stall", 1 * MS, target="sw0", duration_ns=10 * MS)
        schedule.add("unit_stall", 2 * MS, target="sw0", duration_ns=2 * MS,
                     port=0)
        network = _network()
        injector = _armed(network, schedule)
        link = _link(network)
        queue = network.switch("sw0").ports[0].egress.queue
        network.run(until=3 * MS)
        assert link.extra_delay_ns == 9_000 and queue.paused
        network.run(until=5 * MS)
        assert link.extra_delay_ns == 1_000 and queue.paused
        network.run(until=12 * MS)
        assert link.extra_delay_ns == 0 and not queue.paused
        assert injector.applied == 4 and injector.reverted == 4

    def test_window_over_a_permanent_fault_leaves_it_in_force(self):
        schedule = FaultSchedule()
        schedule.add("link_down", 1 * MS, target="sw0-sw1")     # permanent
        schedule.add("link_down", 2 * MS, target="sw0-sw1",
                     duration_ns=1 * MS)
        network = _network()
        _armed(network, schedule)
        network.run(until=5 * MS)
        assert not _link(network).up
