"""Tests for the traffic generators."""

import pytest

from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine
from repro.workloads import (GraphXPageRankWorkload, HadoopTerasortWorkload,
                             MemcacheWorkload, PoissonWorkload)
from repro.workloads.graphx import GraphXConfig
from repro.workloads.hadoop import HadoopConfig
from repro.workloads.memcache import MemcacheConfig
from repro.workloads.synthetic import PoissonConfig


def _net():
    return Network(leaf_spine(), NetworkConfig(seed=11))


class TestPoisson:
    def test_generates_roughly_configured_rate(self):
        net = _net()
        wl = PoissonWorkload(net, PoissonConfig(
            rate_pps=10_000, stop_ns=100 * MS,
            pairs=[("server0", "server3")]))
        wl.start()
        net.run(until=120 * MS)
        # ~1000 packets expected over 100 ms at 10 kpps.
        assert 700 <= wl.packets_emitted <= 1300

    def test_stops_at_stop_ns(self):
        net = _net()
        wl = PoissonWorkload(net, PoissonConfig(
            rate_pps=50_000, stop_ns=10 * MS,
            pairs=[("server0", "server1")]))
        wl.start()
        net.run(until=50 * MS)
        emitted = wl.packets_emitted
        net.run(until=100 * MS)
        assert wl.packets_emitted == emitted

    def test_all_to_all_by_default(self):
        net = _net()
        wl = PoissonWorkload(net, PoissonConfig(rate_pps=2_000,
                                                stop_ns=50 * MS))
        wl.start()
        net.run(until=80 * MS)
        # Every host should have received something.
        assert all(h.packets_received > 0 for h in net.hosts.values())

    @pytest.mark.parametrize("field, value", [
        ("rate_pps", 0), ("rate_pps", -100), ("rate_pps", float("inf")),
        ("rate_pps", float("nan")), ("size_bytes", 0),
        ("size_bytes", -20000)])
    def test_config_rejects_non_positive_rate_and_size(self, field, value):
        with pytest.raises(ValueError, match=field):
            PoissonConfig(**{field: value})

    def test_sport_churn_creates_many_flows(self, record_arrivals):
        net = _net()
        log = record_arrivals(net)
        wl = PoissonWorkload(net, PoissonConfig(
            rate_pps=20_000, stop_ns=20 * MS, sport_churn=True,
            pairs=[("server0", "server3")]))
        wl.start()
        net.run(until=40 * MS)
        assert len(log["server3"]) > 50

    def test_start_is_idempotent(self):
        net = _net()
        wl = PoissonWorkload(net, PoissonConfig(rate_pps=1000, stop_ns=5 * MS,
                                                pairs=[("server0", "server1")]))
        wl.start()
        wl.start()
        net.run(until=10 * MS)
        # One generator per pair, not two: rate stays ~5 packets.
        assert wl.packets_emitted < 20


class TestHadoop:
    def test_transfers_avoid_self_loops(self):
        net = _net()
        wl = HadoopTerasortWorkload(net, HadoopConfig(stop_ns=50 * MS))
        wl.start()
        assert wl.transfers == []  # assigned lazily at start time
        net.run(until=10 * MS)
        assert wl.transfers
        assert all(src != dst for src, dst, _sport in wl.transfers)

    def test_mapper_reducer_counts(self):
        net = _net()
        wl = HadoopTerasortWorkload(net, HadoopConfig(stop_ns=50 * MS))
        wl.start()
        net.run(until=10 * MS)
        # hadoop.NUM_MAPPERS x NUM_REDUCERS = 10x8 pairs minus same-host
        # collisions.
        assert 60 <= len(wl.transfers) <= 80

    def test_generates_shuffle_traffic(self):
        net = _net()
        wl = HadoopTerasortWorkload(net, HadoopConfig(stop_ns=80 * MS))
        wl.start()
        net.run(until=120 * MS)
        assert wl.packets_emitted > 200


class TestGraphX:
    def test_master_moves_no_bulk_data(self, record_arrivals):
        net = _net()
        log = record_arrivals(net)
        wl = GraphXPageRankWorkload(net, GraphXConfig(stop_ns=60 * MS))
        wl.start()
        net.run(until=100 * MS)
        bulk_from_master = [
            flow for flows in log.values() for flow in flows
            if flow.src == "server0" and flow.dport == 7337]
        assert bulk_from_master == []
        # But the master does send small control messages.
        control = [flow for flows in log.values() for flow in flows
                   if flow.src == "server0" and flow.dport == 7077]
        assert control

    def test_iterations_advance(self):
        net = _net()
        # One iteration per 10 ms (graphx.ITERATION_NS).
        wl = GraphXPageRankWorkload(net, GraphXConfig(stop_ns=55 * MS))
        wl.start()
        net.run(until=100 * MS)
        assert 4 <= wl.iterations_run <= 7

    def test_unknown_master_rejected(self):
        net = _net()
        wl = GraphXPageRankWorkload(net, GraphXConfig(master="ghost",
                                                      stop_ns=10 * MS))
        with pytest.raises(ValueError):
            wl.start()
            net.run(until=1 * MS)

    def test_workers_exchange_all_to_all(self, record_arrivals):
        net = _net()
        log = record_arrivals(net)
        wl = GraphXPageRankWorkload(net, GraphXConfig(stop_ns=30 * MS))
        wl.start()
        net.run(until=60 * MS)
        workers = set(wl.workers)
        for dst in workers:
            senders = {flow.src for flow in log[dst] if flow.dport == 7337}
            assert senders == workers - {dst}


class TestMemcache:
    def test_request_response_pattern(self, record_arrivals):
        net = _net()
        log = record_arrivals(net)
        wl = MemcacheWorkload(net, MemcacheConfig(stop_ns=20 * MS))
        wl.start()
        net.run(until=40 * MS)
        assert wl.requests_sent > 50
        # Responses from every server reached the client.
        responders = {flow.src for flow in log["server0"]}
        assert responders == set(wl.servers)

    def test_servers_receive_requests(self, record_arrivals):
        net = _net()
        log = record_arrivals(net)
        wl = MemcacheWorkload(net, MemcacheConfig(stop_ns=20 * MS))
        wl.start()
        net.run(until=40 * MS)
        for server in wl.servers:
            requests = [f for f in log[server] if f.dport == 11211]
            assert requests

    def test_needs_a_server(self):
        net = _net()
        wl = MemcacheWorkload(net, MemcacheConfig(
            stop_ns=10 * MS, hosts=["server0"], clients=["server0"]))
        with pytest.raises(ValueError):
            wl.start()
            net.run(until=1 * MS)

    def test_custom_client_set(self):
        net = _net()
        wl = MemcacheWorkload(net, MemcacheConfig(
            stop_ns=20 * MS, clients=["server0", "server1"]))
        wl.start()
        net.run(until=40 * MS)
        assert set(wl.clients) == {"server0", "server1"}
        assert "server0" not in wl.servers
