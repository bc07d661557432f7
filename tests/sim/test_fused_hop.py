"""The fused hop on one egress queue and one link (docs/PERF.md).

On a plain link the queue schedules the delivery itself when
serialisation starts and nothing visits the finish instant; the cases
here pin what must not change because of that: what observers read
around the finish instant, and what happens to a packet whose link
changes state while it is still being serialised (it is un-fused and
meets the new state in ``Link.transmit`` at its true finish instant).
Every scenario also runs on a link wired per-finish (``fused=False``,
the wiring of scoped networks) and must read the same.
"""

import random

import pytest

from repro.sim.channel import BernoulliLoss, Link
from repro.sim.engine import Simulator
from repro.sim.packet import FlowKey, Packet
from repro.sim.switch import _EgressQueue

WIRINGS = pytest.mark.parametrize("fused", [True, False],
                                  ids=["fused", "per-finish"])


class Endpoint:
    def __init__(self, sim, name):
        self.sim = sim
        self.endpoint_name = name
        self.arrivals = []

    def receive_from_link(self, packet, link):
        self.arrivals.append((self.sim.now, packet.seq))


def _pkt(seq=0, size=1000):
    return Packet(flow=FlowKey("a", "b", 1, 2), seq=seq, size_bytes=size)


def _lane(sim, fused, capacity=None, name="a-b"):
    """One sender queue on an 8 Gb/s link (1000 B serialise in 1000 ns)
    with 500 ns of propagation."""
    link = Link(sim, bandwidth_bps=8_000_000_000, propagation_ns=500,
                name=name, fused=fused)
    sender, receiver = Endpoint(sim, "a"), Endpoint(sim, "b")
    queue = _EgressQueue(sim, capacity_packets=capacity)
    queue.bind(link, sender)
    link.attach(receiver)
    return link, queue, receiver


class TestEventsPerHop:
    def test_idle_lane_costs_one_event_per_packet(self):
        sim = Simulator()
        _link, queue, receiver = _lane(sim, fused=True)
        queue.push(_pkt())
        assert sim.run() == 1
        assert receiver.arrivals == [(1500, 0)]

    def test_per_finish_wiring_keeps_the_finish_event(self):
        sim = Simulator()
        _link, queue, receiver = _lane(sim, fused=False)
        queue.push(_pkt())
        assert sim.run() == 2
        assert receiver.arrivals == [(1500, 0)]

    def test_one_extra_event_per_waiting_packet(self):
        sim = Simulator()
        _link, queue, receiver = _lane(sim, fused=True)
        for seq in range(3):
            queue.push(_pkt(seq))
        assert queue.depth_packets == 3
        assert sim.run() == 3 + 2
        assert receiver.arrivals == [(1500, 0), (2500, 1), (3500, 2)]
        assert queue.max_depth_packets == 3

    def test_non_plain_link_is_not_fused(self):
        sim = Simulator()
        link, queue, _receiver = _lane(sim, fused=True)
        link.loss = BernoulliLoss(0.0, random.Random(1))
        queue.push(_pkt())
        assert sim.run() == 2


@WIRINGS
class TestLazyObservers:
    """``busy`` / ``depth_packets`` / ``packets_sent`` / ``bytes_sent``
    (what the queue-depth gauge and tail drop read) are answered from
    the finish instant: idle iff ``now >= finish``."""

    def test_samples_around_the_finish_instant(self, fused):
        sim = Simulator()
        _link, queue, _receiver = _lane(sim, fused)
        samples = {}

        def sample():
            samples[sim.now] = (queue.busy, queue.depth_packets,
                                queue.packets_sent, queue.bytes_sent)

        for at in (0, 999, 1000, 1001):
            sim.schedule_at(at, sample)
        queue.push(_pkt())
        sim.run()
        assert samples == {0: (True, 1, 0, 0), 999: (True, 1, 0, 0),
                           1000: (False, 0, 1, 1000),
                           1001: (False, 0, 1, 1000)}

    def test_waiting_packets_count_until_their_own_start(self, fused):
        sim = Simulator()
        _link, queue, _receiver = _lane(sim, fused)
        samples = {}

        def sample():
            samples[sim.now] = (queue.depth_packets, queue.depth_bytes,
                                queue.packets_sent, queue.bytes_sent)

        for at in (999, 1001, 1399, 1401):
            sim.schedule_at(at, sample)
        queue.push(_pkt(0, size=1000))
        queue.push(_pkt(1, size=400))
        sim.run()
        assert samples == {999: (2, 400, 0, 0), 1001: (1, 0, 1, 1000),
                           1399: (1, 0, 1, 1000), 1401: (0, 0, 2, 1400)}

    def test_arrival_at_the_finish_instant_finds_the_lane_idle(self, fused):
        sim = Simulator()
        _link, queue, receiver = _lane(sim, fused, capacity=1)
        results = []
        sim.schedule_at(1000, lambda: results.append(queue.push(_pkt(1))))
        sim.schedule_at(1999, lambda: results.append(queue.push(_pkt(2))))
        queue.push(_pkt(0))
        sim.run()
        assert results == [True, False]
        assert receiver.arrivals == [(1500, 0), (2500, 1)]
        assert queue.max_depth_packets == 1
        assert queue.packets_dropped == 1


@WIRINGS
class TestQueueDiscipline:
    def test_per_packet_serialisation_in_fifo_order(self, fused):
        sim = Simulator()
        _link, queue, receiver = _lane(sim, fused)
        for seq, size in enumerate((100, 5000, 10)):
            queue.push(_pkt(seq, size=size))
        sim.run()
        # Each packet serialises for its own size (1 ns a byte), in
        # arrival order, then propagates 500 ns.
        assert receiver.arrivals == [(600, 0), (5600, 1), (5610, 2)]

    def test_pause_holds_waiting_packets_until_resume(self, fused):
        sim = Simulator()
        _link, queue, receiver = _lane(sim, fused)
        queue.push(_pkt(0))
        queue.push(_pkt(1))
        sim.schedule_at(500, queue.pause)
        sim.schedule_at(3000, queue.resume)
        sim.schedule_at(3100, queue.push, _pkt(2))
        sim.run()
        assert receiver.arrivals == [(1500, 0), (4500, 1), (5500, 2)]

    def test_resume_while_still_serialising_changes_nothing(self, fused):
        sim = Simulator()
        _link, queue, receiver = _lane(sim, fused)
        queue.push(_pkt(0))
        queue.push(_pkt(1))
        sim.schedule_at(100, queue.pause)
        sim.schedule_at(200, queue.resume)
        sim.run()
        assert receiver.arrivals == [(1500, 0), (2500, 1)]

    def test_tail_drop_counts_the_packet_in_service(self, fused):
        sim = Simulator()
        _link, queue, _receiver = _lane(sim, fused, capacity=2)
        assert [queue.push(_pkt(i)) for i in range(3)] == [True, True, False]
        sim.run(until=999)
        assert not queue.push(_pkt(3))
        sim.run(until=1000)
        assert queue.push(_pkt(4))


@WIRINGS
class TestLinkChangesUnderAPacket:
    """A change of link state while a packet is being serialised is
    decided at the finish instant, as ``Link.transmit`` always did."""

    def test_down_mid_serialisation_drops(self, fused):
        sim = Simulator()
        link, queue, receiver = _lane(sim, fused)
        queue.push(_pkt())
        sim.schedule_at(400, setattr, link, "up", False)
        sim.run()
        assert receiver.arrivals == []
        assert (link.packets_dropped, link.packets_delivered) == (1, 0)
        assert queue.packets_sent == 1     # it left the queue regardless

    def test_down_mid_propagation_delivers(self, fused):
        sim = Simulator()
        link, queue, receiver = _lane(sim, fused)
        queue.push(_pkt())
        sim.schedule_at(1200, setattr, link, "up", False)
        sim.run()
        assert receiver.arrivals == [(1500, 0)]
        assert (link.packets_dropped, link.packets_delivered) == (0, 1)

    def test_down_and_up_again_before_the_finish_delivers(self, fused):
        sim = Simulator()
        link, queue, receiver = _lane(sim, fused)
        queue.push(_pkt())
        sim.schedule_at(300, setattr, link, "up", False)
        sim.schedule_at(600, setattr, link, "up", True)
        sim.run()
        assert receiver.arrivals == [(1500, 0)]

    def test_down_in_the_finish_nanosecond_drops(self, fused):
        # Scheduled before the packet began serialising, so it precedes
        # the hand-over in that nanosecond on both wirings.
        sim = Simulator()
        link, queue, receiver = _lane(sim, fused)
        sim.schedule_at(1000, setattr, link, "up", False)
        queue.push(_pkt())
        sim.run()
        assert receiver.arrivals == []
        assert link.packets_dropped == 1

    def test_waiting_packet_follows_an_unfused_one(self, fused):
        sim = Simulator()
        link, queue, receiver = _lane(sim, fused)
        queue.push(_pkt(0))
        queue.push(_pkt(1))
        sim.schedule_at(400, setattr, link, "up", False)
        sim.schedule_at(1100, setattr, link, "up", True)
        sim.run()
        assert receiver.arrivals == [(2500, 1)]
        assert link.packets_dropped == 1

    def test_loss_installed_mid_serialisation_draws_at_the_finish(self, fused):
        """...and so after the draws of packets that finished earlier on
        other links sharing the RNG."""
        sim = Simulator()
        draws = []

        class LoggedRandom(random.Random):
            def random(self):
                draws.append(sim.now)
                return super().random()

        rng = LoggedRandom(5)
        link_a, queue_a, recv_a = _lane(sim, fused, name="a")
        link_b, queue_b, recv_b = _lane(sim, fused, name="b")
        link_b.loss = BernoulliLoss(0.5, rng)
        queue_a.push(_pkt(0))                               # finishes at 1000
        sim.schedule_at(100, queue_b.push, _pkt(1, size=500))  # ... at 600
        sim.schedule_at(300, setattr, link_a, "loss",
                        BernoulliLoss(0.5, rng))
        sim.run()
        assert draws == [600, 1000]
        reference = random.Random(5)
        b_dropped, a_dropped = (reference.random() < 0.5,
                                reference.random() < 0.5)
        assert recv_b.arrivals == ([] if b_dropped else [(1100, 1)])
        assert recv_a.arrivals == ([] if a_dropped else [(1500, 0)])

    def test_spike_mid_serialisation_delays_and_stays_fifo(self, fused):
        sim = Simulator()
        link, queue, receiver = _lane(sim, fused)
        queue.push(_pkt(0))
        sim.schedule_at(400, setattr, link, "extra_delay_ns", 2000)
        sim.schedule_at(1100, queue.push, _pkt(1))
        sim.schedule_at(1200, setattr, link, "extra_delay_ns", 0)
        sim.schedule_at(4000, queue.push, _pkt(2))
        sim.schedule_at(6000, queue.push, _pkt(3))
        sim.run()
        # 0 rides the spike; 1 left after it cleared but may not overtake;
        # 2 finds natural timing caught up, after which 3 is fused again.
        assert receiver.arrivals == [(3500, 0), (3500, 1), (5500, 2),
                                     (7500, 3)]
        assert link._plain is fused
