"""Tests for the switch model: forwarding, queues, snapshot plumbing."""

import pytest

from repro.counters import PacketCounter
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import (FlowKey, Packet, PacketType, SnapshotHeader,
                              make_initiation_packet)
from repro.sim.switch import (BROADCAST_DST, CPU_CHANNEL, Direction,
                              EXTERNAL_CHANNEL, SwitchConfig, UnitId)
from repro.topology import single_switch
from tests.conftest import linear


class RecordingAgent:
    """Minimal SnapshotAgent capturing calls."""

    quiet_sid = None

    def __init__(self, sid=0):
        self._sid = sid
        self.calls = []

    @property
    def sid(self):
        return self._sid

    def process_packet(self, packet, channel_id, now_ns):
        self.calls.append((packet.snapshot.sid, channel_id, now_ns,
                           packet.snapshot.packet_type))
        return self._sid


def _single_net(hosts=3):
    return Network(single_switch(num_hosts=hosts), NetworkConfig(seed=3))


def _send(net, src, dst, n=1, size=1000):
    return net.host(src).send_flow(dst, n, sport=1234, dport=80,
                                   size_bytes=size)


class TestForwarding:
    def test_host_to_host_through_switch(self, record_arrivals):
        net = _single_net()
        log = record_arrivals(net)
        flow = _send(net, "server0", "server1", n=5)
        net.run(until=1 * MS)
        assert log["server1"][flow].packets == 5

    def test_unroutable_counted(self):
        net = _single_net()
        sw = net.switch("sw0")
        pkt = Packet(flow=FlowKey("server0", "nowhere", 1, 2))
        sw.ports[0].ingress.handle_packet(pkt)
        net.run(until=1 * MS)
        assert sw.packets_unroutable == 1

    def test_install_route_validates_ports(self):
        net = _single_net()
        with pytest.raises(ValueError):
            net.switch("sw0").install_route("x", [99])
        with pytest.raises(ValueError):
            net.switch("sw0").install_route("x", [])

    def test_multi_hop_forwarding(self, record_arrivals):
        net = Network(linear(num_switches=3, hosts_per_switch=1),
                      NetworkConfig(seed=3))
        log = record_arrivals(net)
        flow = _send(net, "server0", "server2", n=3)
        net.run(until=1 * MS)
        assert log["server2"][flow].packets == 3


class TestQueueing:
    def test_egress_queue_drains_at_link_rate(self):
        net = _single_net()
        # 25 Gbps host link: 1500B = 480ns serialization.
        _send(net, "server0", "server1", n=100, size=1500)
        net.run(until=5 * MS)
        assert net.host("server1").packets_received == 100

    def test_negative_packet_size_raises_before_time_moves(self):
        """Serialising it would schedule into the past: the lane's
        serialisation-table miss raises instead."""
        net = _single_net()
        with pytest.raises(ValueError, match="-20000 B"):
            _send(net, "server0", "server1", size=-20000)
            net.run(until=1 * MS)
        assert net.host("server1").packets_received == 0

    def test_queue_depth_visible_under_fanin(self):
        net = _single_net(hosts=3)
        # Two senders converge on one 25G host link at line rate each.
        _send(net, "server0", "server2", n=200, size=1500)
        _send(net, "server1", "server2", n=200, size=1500)
        out_port = net.port_toward("sw0", "server2")
        egress = net.switch("sw0").ports[out_port].egress
        max_depth = 0

        def sample():
            nonlocal max_depth
            max_depth = max(max_depth, egress.queue_depth_packets)
            net.sim.schedule(1 * US, sample)

        net.sim.schedule(1 * US, sample)
        net.run(until=2 * MS)
        assert max_depth >= 2  # fan-in must back up the queue
        assert egress.queue.packets_sent == 400


class TestSnapshotPlumbing:
    def test_header_pushed_at_enabled_ingress_and_stripped_for_host(
            self, record_arrivals):
        net = _single_net()
        log = record_arrivals(net)
        sw = net.switch("sw0")
        agents = {}
        for port in sw.ports:
            for unit in (port.ingress, port.egress):
                agent = RecordingAgent(sid=4)
                unit.snapshot_agent = agent
                agents[unit.unit_id] = agent
        net.refresh_header_stripping()
        flow = _send(net, "server0", "server1")
        net.run(until=1 * MS)
        in_port = net.port_toward("sw0", "server0")
        out_port = net.port_toward("sw0", "server1")
        ingress_agent = agents[UnitId("sw0", in_port, Direction.INGRESS)]
        egress_agent = agents[UnitId("sw0", out_port, Direction.EGRESS)]
        # Ingress saw the freshly pushed header carrying its own sid.
        assert ingress_agent.calls[0][0] == 4
        assert ingress_agent.calls[0][1] == EXTERNAL_CHANNEL
        # Egress saw the ingress port as its channel id.
        assert egress_agent.calls[0][1] == in_port
        # Host received the packet with the header removed.
        assert log["server1"][flow].packets == 1

    def test_quiet_pass_skips_the_agent_but_counts_and_traces(self):
        """A packet carrying the agent's ``quiet_sid`` is not handed to
        it: the unit counts the pass in ``packets_seen``, updates its
        counters and traces it; any other ID is still processed."""
        class QuietAgent(RecordingAgent):
            def __init__(self, sid):
                super().__init__(sid)
                self.quiet_sid = sid
                self.packets_seen = 0

        net = _single_net()
        sw = net.switch("sw0")
        events = []
        sw.trace_sink = events.append
        in_port = net.port_toward("sw0", "server0")
        out_port = net.port_toward("sw0", "server1")
        ingress, egress = sw.ports[in_port].ingress, sw.ports[out_port].egress
        for unit in (ingress, egress):
            unit.snapshot_agent = QuietAgent(sid=4)
        counter = PacketCounter()
        ingress.counters.add("pkts", counter)
        net.refresh_header_stripping()
        _send(net, "server0", "server1", n=3)
        net.run(until=1 * MS)
        for unit in (ingress, egress):
            assert unit.snapshot_agent.calls == []
            assert unit.snapshot_agent.packets_seen == 3
        assert counter.read() == 3
        assert net.host("server1").packets_received == 3
        rows = [(e.unit, e.carried_sid, e.unit_sid_after, e.channel)
                for e in events]
        for row in ((ingress.unit_id, 4, 4, EXTERNAL_CHANNEL),
                    (egress.unit_id, 4, 4, in_port)):
            assert rows.count(row) == 3
        assert len(rows) == 6
        ingress.handle_packet(make_initiation_packet(9))
        assert ingress.snapshot_agent.calls == [
            (9, CPU_CHANNEL, net.sim.now, PacketType.INITIATION)]
        assert ingress.snapshot_agent.packets_seen == 3

    def test_counters_updated_for_data_not_initiation(self):
        net = _single_net()
        sw = net.switch("sw0")
        counter = PacketCounter()
        sw.ports[0].ingress.counters.add("pkts", counter)
        sw.ports[0].ingress.snapshot_agent = RecordingAgent()
        sw.ports[0].egress.snapshot_agent = RecordingAgent()
        sw.ports[0].ingress.handle_packet(make_initiation_packet(1))
        _send(net, "server0", "server1", n=3)
        net.run(until=1 * MS)
        assert counter.read() == 3

    def test_initiation_travels_ingress_then_same_port_egress(self):
        net = _single_net()
        sw = net.switch("sw0")
        ingress_agent = RecordingAgent()
        egress_agent = RecordingAgent()
        sw.ports[1].ingress.snapshot_agent = ingress_agent
        sw.ports[1].egress.snapshot_agent = egress_agent
        sw.ports[1].ingress.handle_packet(make_initiation_packet(9))
        net.run(until=1 * MS)
        assert ingress_agent.calls == [(9, CPU_CHANNEL, 0,
                                        PacketType.INITIATION)]
        assert len(egress_agent.calls) == 1
        assert egress_agent.calls[0][1] == CPU_CHANNEL
        # Dropped at egress: nothing reached the attached host.
        assert net.host("server1").packets_received == 0


class TestBroadcastProbes:
    def _probe(self, ttl):
        pkt = Packet(flow=FlowKey("cpu", BROADCAST_DST, 0, 0, 255),
                     size_bytes=64, payload=ttl)
        pkt.snapshot = SnapshotHeader(sid=2)
        return pkt

    def test_flood_reaches_every_other_egress(self):
        net = _single_net(hosts=4)
        sw = net.switch("sw0")
        egress_agents = {}
        for port in sw.ports:
            port.ingress.snapshot_agent = RecordingAgent()
            agent = RecordingAgent()
            port.egress.snapshot_agent = agent
            egress_agents[port.index] = agent
        net.refresh_header_stripping()
        sw.ports[0].ingress.handle_packet(self._probe(ttl=1))
        net.run(until=1 * MS)
        assert len(egress_agents[0].calls) == 0  # not back out the in-port
        for port in (1, 2, 3):
            assert len(egress_agents[port].calls) == 1

    def test_probe_never_delivered_to_hosts(self):
        net = _single_net(hosts=3)
        sw = net.switch("sw0")
        for port in sw.ports:
            port.ingress.snapshot_agent = RecordingAgent()
            port.egress.snapshot_agent = RecordingAgent()
        net.refresh_header_stripping()
        sw.ports[0].ingress.handle_packet(self._probe(ttl=5))
        net.run(until=1 * MS)
        for host in net.hosts.values():
            assert host.packets_received == 0

    def test_probe_crosses_wire_to_enabled_switch_and_ttl_expires(self):
        net = Network(linear(num_switches=3, hosts_per_switch=1),
                      NetworkConfig(seed=3))
        agents = {}
        for name, sw in net.switches.items():
            for port in sw.ports:
                if port.link is None:
                    continue
                port.ingress.snapshot_agent = RecordingAgent()
                agent = RecordingAgent()
                port.egress.snapshot_agent = agent
                agents[(name, port.index)] = agent
        net.refresh_header_stripping()
        # Inject at sw0's host-facing ingress; the flood exits toward sw1
        # with TTL=1 (one wire hop), gets flooded inside sw1, but is not
        # retransmitted onward to sw2.
        in_port = net.port_toward("sw0", "server0")
        net.switch("sw0").ports[in_port].ingress.handle_packet(self._probe(1))
        net.run(until=1 * MS)
        sw1_to_sw2 = net.port_toward("sw1", "sw2")
        # The probe was flooded inside sw1 (processed at its egresses)...
        assert len(agents[("sw1", sw1_to_sw2)].calls) == 1
        # ...but with TTL exhausted it never crossed the second wire.
        assert all(len(a.calls) == 0 for (n, _p), a in agents.items()
                   if n == "sw2")


class TestUnitAccess:
    def test_all_units_and_snapshot_units(self):
        net = _single_net(hosts=2)
        sw = net.switch("sw0")
        assert len(sw.all_units()) == 4
        assert sw.snapshot_units() == []
        sw.ports[0].ingress.snapshot_agent = RecordingAgent()
        assert len(sw.snapshot_units()) == 1

    def test_unit_lookup_by_direction(self):
        net = _single_net(hosts=2)
        sw = net.switch("sw0")
        assert sw.unit(0, Direction.INGRESS) is sw.ports[0].ingress
        assert sw.unit(1, Direction.EGRESS) is sw.ports[1].egress


class TestUnitIdHash:
    """``UnitId`` is a plain named tuple: it hashes and compares in C,
    copies and pickles as its fields, and cannot be changed."""

    def test_hash_and_compare_run_no_python_call(self):
        import sys

        first = UnitId("sw0", 3, Direction.EGRESS)
        second = UnitId("sw0", 3, Direction.EGRESS)
        other = UnitId("sw0", 3, Direction.INGRESS)
        table = {first: "found"}
        calls = []

        def profile(frame, event, arg):
            if event == "call":  # a Python-level frame, not a C call
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            hashes = (hash(first), hash(second), hash(other))
            equal = (first == second, first != other, second in table)
            found = table[second]
        finally:
            sys.setprofile(None)
        assert calls == []
        assert hashes[0] == hashes[1] == hash(("sw0", 3, Direction.EGRESS))
        assert equal == (True, True, True) and found == "found"
        assert first == ("sw0", 3, Direction.EGRESS) and str(first) == "sw0:3:egress"

    def test_copies_and_pickles_are_equal(self):
        import copy
        import pickle

        unit = UnitId("sw0", 3, Direction.EGRESS)
        for clone in (copy.copy(unit), copy.deepcopy(unit),
                      pickle.loads(pickle.dumps(unit))):
            assert clone == unit and hash(clone) == hash(unit)
            assert type(clone) is UnitId and clone.direction == unit.direction
            assert {unit: "found"}[clone] == "found"

    def test_fields_cannot_be_assigned(self):
        unit = UnitId("sw0", 3, Direction.EGRESS)
        for name, value in (("device", "sw1"), ("port", 4),
                            ("direction", Direction.INGRESS)):
            with pytest.raises(AttributeError):
                setattr(unit, name, value)
        with pytest.raises(AttributeError):
            unit.extra = 1
        assert unit == UnitId("sw0", 3, Direction.EGRESS)

    def test_pickled_under_one_hash_seed_found_under_another(self):
        """String hashes are per process (``PYTHONHASHSEED``): a cached
        value that crossed a pickle boundary — any ``--jobs N`` pool —
        would miss its own dict entry on the other side."""
        import os
        import subprocess
        import sys

        import repro

        def python(seed, code, stdin=None):
            src = os.path.dirname(os.path.dirname(repro.__file__))
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            return subprocess.run([sys.executable, "-c", code], env=env,
                                  input=stdin, capture_output=True,
                                  check=True, timeout=60).stdout

        pickled = python(1, (
            "import pickle, sys\n"
            "from repro.sim.switch import Direction, UnitId\n"
            "unit = UnitId('leaf0', 2, Direction.INGRESS)\n"
            "hash(unit)\n"
            "sys.stdout.buffer.write(pickle.dumps(unit))\n"))
        found = python(2, (
            "import pickle, sys\n"
            "from repro.sim.switch import Direction, UnitId\n"
            "table = {UnitId('leaf0', 2, Direction.INGRESS): 'found'}\n"
            "unit = pickle.loads(sys.stdin.buffer.read())\n"
            "print(table.get(unit), hash(unit) == hash(next(iter(table))))\n"),
            stdin=pickled)
        assert found.decode().split() == ["found", "True"]


class TestSwitchConfig:
    @pytest.mark.parametrize("field, least", [("queue_capacity_packets", 1)])
    def test_refuses_each_field_below_its_minimum(self, field, least):
        with pytest.raises(ValueError, match=f"SwitchConfig.{field} "):
            SwitchConfig(**{field: least - 1})
        SwitchConfig(**{field: least})  # the minimum itself is fine
