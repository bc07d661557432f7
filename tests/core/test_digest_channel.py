"""Tests for the digest notification transport."""

import random

import pytest

from repro.core import ControlPlaneConfig, control_plane, deploy
from repro.core.control_plane import DigestChannel
from repro.core.notifications import Notification
from repro.sim.engine import MS, Simulator, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction, UnitId
from repro.topology import single_switch

UNIT = UnitId("sw0", 0, Direction.INGRESS)


@pytest.fixture
def small_digests(monkeypatch):
    """Batches of 4, a 200 us flush timer, 50 us a wakeup plus 10 us a
    record."""
    for name, value in (("DIGEST_BATCH", 4), ("DIGEST_TIMEOUT_NS", 200 * US),
                        ("DIGEST_SERVICE_NS", 50 * US),
                        ("DIGEST_PER_RECORD_NS", 10 * US)):
        monkeypatch.setattr(control_plane, name, value)


def _channel(capacity=64):
    sim = Simulator()
    handled = []
    channel = DigestChannel(sim, handled.append)
    channel.capacity = capacity
    return sim, channel, handled


def _notification(i):
    return Notification(unit=UNIT, old_sid=i, new_sid=i + 1, timestamp_ns=i)


@pytest.mark.usefixtures("small_digests")
class TestBatching:
    def test_full_batch_ships_immediately(self):
        sim, channel, handled = _channel()
        for i in range(4):
            channel.deliver(_notification(i))
        # Shipped without waiting for the 200 us flush timer.
        sim.run(until=150 * US)
        assert len(handled) == 4
        assert channel.digests_shipped == 1

    def test_partial_batch_waits_for_flush_timer(self):
        sim, channel, handled = _channel()
        channel.deliver(_notification(0))
        sim.run(until=100 * US)
        assert handled == []  # still buffered on the ASIC
        sim.run(until=400 * US)
        assert len(handled) == 1

    def test_records_preserve_order_across_digests(self):
        sim, channel, handled = _channel()
        for i in range(10):
            channel.deliver(_notification(i))
        sim.run()
        assert [n.old_sid for n in handled] == list(range(10))

    def test_per_digest_cost_amortised(self):
        # 8 records at batch 4 = 2 wakeups; the serial socket channel
        # would pay 8 wakeups.
        sim, channel, handled = _channel()
        for i in range(8):
            channel.deliver(_notification(i))
        sim.run()
        assert channel.digests_shipped == 2
        assert channel.processed == 8

    def test_overflow_drops(self):
        sim, channel, handled = _channel(capacity=3)
        for i in range(6):
            channel.deliver(_notification(i))
        sim.run()
        assert channel.dropped == 3


@pytest.mark.usefixtures("small_digests")
class TestBacklogCounter:
    """``backlog`` is a running count (it used to re-sum the queued
    batches on every arrival, twice); the sum stays here as the oracle."""

    @staticmethod
    def _brute_force(channel):
        return (len(channel._pending) + sum(len(b) for b in channel._queue)
                + (1 if channel._busy else 0))

    @pytest.mark.parametrize("seed", range(8))
    def test_counter_equals_the_sum_through_random_histories(self, seed):
        rng = random.Random(seed)
        sim, channel, handled = _channel(capacity=24)
        peak = accepted = 0
        for step in range(400):
            action = rng.choice(["arrive"] * 12 + ["burst", "timer", "service",
                                                   "crash", "restart"])
            if action == "arrive" or action == "burst":
                for _ in range(1 if action == "arrive" else rng.randint(2, 30)):
                    before, dropped = self._brute_force(channel), channel.dropped
                    channel.deliver(_notification(step))
                    if channel.dropped == dropped:
                        # The high-water mark is read with the arrival
                        # buffered, before a full digest goes into service.
                        accepted += 1
                        peak = max(peak, before + 1)
                    assert channel.backlog == self._brute_force(channel)
            elif action == "timer":        # past the 200 us flush timer
                sim.run(until=sim.now + 250 * US)
            elif action == "service":      # part of one digest's service
                sim.run(until=sim.now + rng.randint(1, 120) * US)
            elif action == "crash" and channel.online:
                channel.online = False
                waiting = self._brute_force(channel) - channel._busy
                assert len(channel.flush_queued()) == waiting
            elif action == "restart":
                channel.online = True
            assert channel.backlog == self._brute_force(channel), (step, action)
            assert channel.backlog <= 24
            assert channel.max_backlog == peak
        channel.online = True
        sim.run()
        assert channel.backlog == self._brute_force(channel) == 0
        assert len(handled) == channel.processed <= accepted


class TestTransportSelection:
    def _deploy(self, transport):
        net = Network(single_switch(num_hosts=2), NetworkConfig(seed=1))
        dep = deploy(
            net, metric="packet_count",
            control_plane=ControlPlaneConfig(
                notification_transport=transport))
        return net, dep

    def test_digest_transport_completes_snapshots(self):
        net, dep = self._deploy("digest")
        assert isinstance(dep.control_planes["sw0"].channel, DigestChannel)
        epoch = dep.take_snapshot()
        net.run(until=300 * MS)
        assert dep.observer.snapshot(epoch).complete

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            self._deploy("carrier-pigeon")
