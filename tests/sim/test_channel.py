"""Tests for links and loss models."""

import random

import pytest

from repro.sim.channel import BernoulliLoss, GilbertElliottLoss, Link, NoLoss
from repro.sim.engine import Simulator
from repro.sim.packet import FlowKey, Packet
from tests.properties.test_equivalence_matrix import ScriptedLoss


class FakeEndpoint:
    def __init__(self, name):
        self.name = name
        self.arrived = []

    @property
    def endpoint_name(self):
        return self.name

    def receive_from_link(self, packet, link):
        self.arrived.append(packet)


def _pkt(seq=0):
    return Packet(flow=FlowKey("a", "b", 1, 2), seq=seq, size_bytes=1000)


def _wired_link(sim, **kwargs):
    link = Link(sim, **kwargs)
    a, b = FakeEndpoint("a"), FakeEndpoint("b")
    link.attach(a)
    link.attach(b)
    return link, a, b


class TestLink:
    def test_transmit_delivers_after_propagation(self):
        sim = Simulator()
        link, a, b = _wired_link(sim, propagation_ns=250)
        link.transmit(a, _pkt())
        sim.run()
        assert len(b.arrived) == 1
        assert sim.now == 250

    def test_duplex_both_directions(self):
        sim = Simulator()
        link, a, b = _wired_link(sim)
        link.transmit(a, _pkt(1))
        link.transmit(b, _pkt(2))
        sim.run()
        assert len(a.arrived) == 1
        assert len(b.arrived) == 1

    def test_fifo_order_preserved(self):
        sim = Simulator()
        link, a, b = _wired_link(sim, propagation_ns=100)
        for seq in range(10):
            link.transmit(a, _pkt(seq))
        sim.run()
        assert [p.seq for p in b.arrived] == list(range(10))

    def test_third_endpoint_rejected(self):
        sim = Simulator()
        link, _a, _b = _wired_link(sim)
        with pytest.raises(RuntimeError):
            link.attach(FakeEndpoint("c"))

    def test_peer_of_unattached_raises(self):
        sim = Simulator()
        link, _a, _b = _wired_link(sim)
        with pytest.raises(ValueError, match="not attached"):
            link.transmit(FakeEndpoint("stranger"), _pkt())

    def test_serialization_time(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=10_000_000_000)  # 10 Gbps
        # 1250 bytes = 10000 bits at 10 Gbps -> 1000 ns
        assert link.serialization_ns(1250) == 1000

    def test_negative_size_raises_naming_link_and_size(self):
        link = Link(Simulator(), name="leaf0->spine1")
        with pytest.raises(ValueError, match=r"'leaf0->spine1'.* -20000 B"):
            link.serialization_ns(-20000)
        assert link.serialization_ns(0) == 0

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(sim, propagation_ns=-1)

    def test_delivery_counter(self):
        sim = Simulator()
        link, a, _b = _wired_link(sim)
        link.transmit(a, _pkt())
        sim.run()
        assert link.packets_delivered == 1


class TestLossModels:
    def test_no_loss_never_drops(self):
        model = NoLoss()
        assert not any(model.should_drop(_pkt()) for _ in range(100))

    def test_bernoulli_certain_drop(self):
        model = BernoulliLoss(1.0, random.Random(1))
        assert model.should_drop(_pkt())
        assert model.dropped == 1

    def test_bernoulli_rate_roughly_honored(self):
        model = BernoulliLoss(0.3, random.Random(1))
        drops = sum(model.should_drop(_pkt()) for _ in range(5000))
        assert 0.25 < drops / 5000 < 0.35

    def test_bernoulli_invalid_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, random.Random(1))

    def test_scripted_loss_drops_exactly_the_chosen_packet(self):
        victim = _pkt()
        survivor = _pkt()
        model = ScriptedLoss(predicate=lambda packet: packet is victim)
        assert model.should_drop(victim)
        assert not model.should_drop(survivor)
        assert model.dropped == [victim]

    def test_scripted_loss_by_predicate(self):
        model = ScriptedLoss(predicate=lambda p: p.seq == 3)
        assert not model.should_drop(_pkt(seq=1))
        assert model.should_drop(_pkt(seq=3))

    def test_lossy_link_drops_and_counts(self):
        sim = Simulator()
        link, a, b = _wired_link(sim, loss=BernoulliLoss(1.0, random.Random(1)))
        assert link.transmit(a, _pkt()) is False
        sim.run()
        assert b.arrived == []
        assert link.packets_dropped == 1


class TestGilbertElliottLoss:
    def _model(self, **overrides):
        kwargs = dict(p_good_to_bad=0.01, p_bad_to_good=0.1,
                      p_loss_good=0.0, p_loss_bad=0.5)
        kwargs.update(overrides)
        return GilbertElliottLoss(random.Random(7), **kwargs)

    def test_invalid_probability_rejected(self):
        for name in ("p_good_to_bad", "p_bad_to_good",
                     "p_loss_good", "p_loss_bad"):
            with pytest.raises(ValueError, match=name):
                self._model(**{name: 1.5})

    def test_never_leaves_good_state_when_transition_zero(self):
        model = self._model(p_good_to_bad=0.0)
        assert not any(model.should_drop(_pkt()) for _ in range(1000))
        assert not model.in_bad_state
        assert model.bursts_entered == 0

    def test_sticky_bad_state_drops_everything(self):
        model = self._model(p_good_to_bad=1.0, p_bad_to_good=0.0,
                            p_loss_bad=1.0)
        assert all(model.should_drop(_pkt()) for _ in range(100))
        assert model.in_bad_state
        assert model.bursts_entered == 1
        assert model.dropped == 100

    def test_drops_cluster_into_bursts(self):
        # Mean burst length 1/p_bad_to_good = 10 packets at 100% loss:
        # drops must arrive in runs, unlike Bernoulli at the same rate.
        model = self._model(p_good_to_bad=0.02, p_bad_to_good=0.1,
                            p_loss_bad=1.0)
        pattern = [model.should_drop(_pkt()) for _ in range(20_000)]
        drops = sum(pattern)
        runs = sum(1 for i, d in enumerate(pattern)
                   if d and (i == 0 or not pattern[i - 1]))
        assert drops > 500            # bad state actually visited
        assert runs == model.bursts_entered
        assert drops / runs > 4       # multi-packet bursts on average

    def test_same_seed_same_pattern(self):
        a = GilbertElliottLoss(random.Random(42))
        b = GilbertElliottLoss(random.Random(42))
        packets = [_pkt(seq=i) for i in range(500)]
        assert ([a.should_drop(p) for p in packets]
                == [b.should_drop(p) for p in packets])


class TestLinkFaultSurface:
    def test_down_link_drops_everything(self):
        sim = Simulator()
        link, a, b = _wired_link(sim)
        link.up = False
        assert link.transmit(a, _pkt()) is False
        sim.run()
        assert b.arrived == []
        assert link.packets_dropped == 1
        link.up = True
        assert link.transmit(a, _pkt(1)) is True
        sim.run()
        assert len(b.arrived) == 1

    def test_latency_spike_delays_delivery(self):
        sim = Simulator()
        link, a, b = _wired_link(sim, propagation_ns=100)
        link.extra_delay_ns = 900
        link.transmit(a, _pkt())
        sim.run()
        assert sim.now == 1000

    def test_fifo_preserved_while_spike_drains(self):
        # A packet sent during the spike is in flight with +900 ns; the
        # packet sent just after the spike ends must NOT overtake it.
        sim = Simulator()
        link, a, b = _wired_link(sim, propagation_ns=100)
        link.extra_delay_ns = 900
        link.transmit(a, _pkt(seq=0))          # delivers at 1000
        link.extra_delay_ns = 0
        link.transmit(a, _pkt(seq=1))          # natural 100 -> clamped
        sim.run(until=999)
        assert b.arrived == []                # neither overtook the spike
        sim.run()
        assert [p.seq for p in b.arrived] == [0, 1]

    def test_fifo_floor_expires_once_natural_timing_catches_up(self):
        sim = Simulator()
        link, a, b = _wired_link(sim, propagation_ns=100)
        link.extra_delay_ns = 500
        link.transmit(a, _pkt(seq=0))          # delivers at 600
        link.extra_delay_ns = 0
        sim.run(until=700)

        def late_send():
            link.transmit(a, _pkt(seq=1))      # natural 800 >= floor 600

        sim.schedule_at(700, late_send)
        sim.run()
        assert [p.seq for p in b.arrived] == [0, 1]
        assert not link._fifo_floor             # back on the fast path
        link.transmit(a, _pkt(seq=2))
        sim.run()
        assert sim.now == b.arrived[-1].created_ns + 100 or len(b.arrived) == 3
