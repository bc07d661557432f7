"""Tests for the counter-polling baseline."""

import pytest

from repro.counters import PacketCounter
from repro.polling import poller
from repro.polling import (PollRound, PollSample, PollTarget, PollingConfig,
                           PollingObserver)
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction
from repro.topology import leaf_spine, single_switch


def _net_with_counters(topo=None):
    net = Network(topo or single_switch(num_hosts=3), NetworkConfig(seed=7))
    for sw in net.switches.values():
        for port in sw.ports:
            port.ingress.counters.add("packet_count", PacketCounter())
            port.egress.counters.add("packet_count", PacketCounter())
    return net


@pytest.fixture
def exact_reads(monkeypatch):
    """Every register read takes exactly ``per_read_ns``."""
    monkeypatch.setattr(poller, "READ_JITTER_NS", 0)


def _targets(net, direction=Direction.INGRESS):
    return [PollTarget(name, port, direction, "packet_count")
            for name in sorted(net.switches)
            for port in net.switch(name).connected_ports()]


class TestValidation:
    def test_requires_targets(self):
        net = _net_with_counters()
        with pytest.raises(ValueError):
            PollingObserver(net, [])

    def test_rejects_unknown_counter(self):
        net = _net_with_counters()
        bad = [PollTarget("sw0", 0, Direction.INGRESS, "nope")]
        with pytest.raises(ValueError):
            PollingObserver(net, bad)


class TestSingleRound:
    def test_round_collects_every_target(self):
        net = _net_with_counters()
        targets = _targets(net)
        poller = PollingObserver(net, targets)
        done = []
        poller.poll_round(done.append)
        net.run(until=100 * MS)
        assert len(done) == 1
        assert len(done[0].samples) == len(targets)

    @pytest.mark.usefixtures("exact_reads")
    def test_reads_are_sequential_per_switch(self):
        net = _net_with_counters()
        poller = PollingObserver(net, _targets(net), PollingConfig(
            per_read_ns=400 * US))
        round_ = poller.poll_round()
        net.run(until=100 * MS)
        times = sorted(s.read_ns for s in round_.samples)
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= 400 * US

    @pytest.mark.usefixtures("exact_reads")
    def test_round_spread_reflects_chain_length(self):
        net = _net_with_counters()
        poller = PollingObserver(net, _targets(net), PollingConfig(
            per_read_ns=300 * US))
        round_ = poller.poll_round()
        net.run(until=100 * MS)
        # 3 targets on one switch -> spread = 2 gaps of 300 us.
        assert round_.spread_ns == 2 * 300 * US

    @pytest.mark.usefixtures("exact_reads")
    def test_values_sampled_at_read_time_not_request_time(self):
        net = _net_with_counters()
        counter = net.switch("sw0").ports[0].ingress.counters.get("packet_count")
        poller = PollingObserver(
            net, [PollTarget("sw0", 0, Direction.INGRESS, "packet_count")],
            PollingConfig(per_read_ns=1 * MS))
        round_ = poller.poll_round()
        # Counter increments after the request is issued but before the
        # driver read completes: polling must observe the new value.
        from repro.sim.packet import FlowKey, Packet
        net.sim.schedule(500 * US, counter.update,
                         Packet(flow=FlowKey("a", "b", 1, 2)), 0)
        net.run(until=100 * MS)
        assert round_.samples[0].value == 1

    @pytest.mark.usefixtures("exact_reads")
    def test_parallel_switches_poll_concurrently(self):
        net = _net_with_counters(leaf_spine(hosts_per_leaf=1))
        serial = PollingObserver(net, _targets(net), PollingConfig(
            per_read_ns=500 * US,
            parallel_across_switches=False))
        round_ = serial.poll_round()
        net.run(until=100 * MS)
        serial_spread = round_.spread_ns

        net2 = _net_with_counters(leaf_spine(hosts_per_leaf=1))
        parallel = PollingObserver(net2, _targets(net2), PollingConfig(
            per_read_ns=500 * US,
            parallel_across_switches=True))
        round2 = parallel.poll_round()
        net2.run(until=100 * MS)
        assert round2.spread_ns < serial_spread


class TestRoundHelpers:
    def test_value_of_and_missing(self):
        target = PollTarget("sw0", 0, Direction.INGRESS, "packet_count")
        round_ = PollRound(index=0,
                           samples=[PollSample(target, 5, read_ns=10)])
        assert round_.value_of(target) == 5
        with pytest.raises(KeyError):
            round_.value_of(PollTarget("sw0", 1, Direction.INGRESS,
                                       "packet_count"))

    def test_empty_round_spread(self):
        assert PollRound(index=0).spread_ns == 0


class TestCampaign:
    def test_campaign_produces_all_rounds(self):
        net = _net_with_counters()
        poller = PollingObserver(net, _targets(net))
        poller.run_campaign(num_rounds=5, interval_ns=5 * MS)
        net.run(until=200 * MS)
        assert len(poller.complete_rounds) == 5

    def test_invalid_round_count(self):
        net = _net_with_counters()
        poller = PollingObserver(net, _targets(net))
        with pytest.raises(ValueError):
            poller.run_campaign(num_rounds=0, interval_ns=1 * MS)
