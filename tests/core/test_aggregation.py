"""The hierarchical snapshot fabric (repro.core.aggregation).

Covers the tentpole's contract from the outside in: deterministic tree
construction, the gating-min reduction, crash coupling with silent-relay
attribution at the observer, and composition with the space-parallel
sharded deployment; that every fabric mode collects the same records is
tests/properties/test_equivalence_matrix.py's.
"""

from __future__ import annotations

import pytest

from repro.core import (AggregationConfig, AggregationTree, ObserverConfig,
                        deploy)
from repro.core import aggregation
from repro.core.aggregation import AggregateMessage, AggregationAgent
from repro.core.control_plane import UnitSnapshotRecord
from repro.core.snapshot import SnapshotStatus
from repro.sim.engine import MS, S, US, Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.shard import ShardRunner
from repro.sim.switch import Direction, UnitId
from repro.topology import fat_tree, leaf_spine
from tests.conftest import linear


def _deploy(agg, seed=7, topo=None, **config_kwargs):
    network = Network(topo or fat_tree(k=4), NetworkConfig(seed=seed))
    deployment = deploy(
        network, metric="packet_count", aggregation=agg, **config_kwargs)
    return network, deployment


@pytest.fixture
def short_flush(monkeypatch):
    """A 10 ms partial-flush timer in place of the relays' 25 ms."""
    monkeypatch.setattr(aggregation, "RELAY_FLUSH_TIMEOUT_NS", 10 * MS)


def _campaign(network, deployment, count=4, interval_ns=10 * MS):
    epochs = deployment.schedule_campaign(count, interval_ns)
    network.run(until=1 * S)
    return [deployment.observer.snapshot(e) for e in epochs]


class TestTreeConstruction:
    def test_spans_participants_within_degree(self):
        topo = fat_tree(k=4)
        for degree in (1, 2, 4, 8):
            tree = AggregationTree.build(topo, sorted(topo.switches), degree)
            assert set(tree.order) == set(topo.switches)
            assert tree.parent[tree.root] is None
            for node, kids in tree.children.items():
                assert len(kids) <= degree, (node, kids)
            # Every non-root node's parent links back to it.
            for node in tree.order:
                if node != tree.root:
                    assert node in tree.children[tree.parent[node]]

    def test_deterministic_and_input_order_independent(self):
        topo = fat_tree(k=4)
        names = sorted(topo.switches)
        a = AggregationTree.build(topo, names, degree=3)
        b = AggregationTree.build(topo, list(reversed(names)), degree=3)
        assert a.root == b.root
        assert a.parent == b.parent
        assert a.children == b.children
        assert a.order == b.order

    def test_non_adjacent_participants_attach_as_leftovers(self):
        # Two leaves of a leaf-spine are only connected through spines;
        # with the spines excluded, BFS cannot reach the second leaf and
        # the leftover pass must still produce a spanning tree.
        topo = leaf_spine()
        leaves = [s for s in sorted(topo.switches) if s.startswith("leaf")]
        assert len(leaves) >= 2
        tree = AggregationTree.build(topo, leaves, degree=2)
        assert set(tree.order) == set(leaves)
        assert tree.parent[leaves[1]] in leaves

    def test_rejects_degenerate_inputs(self):
        topo = fat_tree(k=4)
        with pytest.raises(ValueError, match="degree"):
            AggregationTree.build(topo, sorted(topo.switches), degree=0)
        with pytest.raises(ValueError, match="zero"):
            AggregationTree.build(topo, [], degree=2)

    def test_config_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="degree"):
            AggregationConfig(degree=-1)


class TestRecordConservation:
    def test_tree_collapses_observer_intake(self):
        _, flat = _deploy(AggregationConfig(degree=0))
        network_f = flat.network
        _campaign(network_f, flat)
        _, tree = _deploy(AggregationConfig(degree=4))
        _campaign(tree.network, tree)
        flat_stats = flat.aggregation.stats()
        tree_stats = tree.aggregation.stats()
        # 4 epochs x 160 units, one message each, vs O(1) per epoch.
        assert flat_stats["intake_processed"] == 4 * 160
        assert tree_stats["intake_processed"] < 4 * 160 / 10
        assert tree_stats["records_lost"] == 0
        assert tree_stats["dropped"] == 0

    def test_aggregation_off_wires_nothing(self):
        _, deployment = _deploy(None)
        assert deployment.aggregation is None
        assert deployment.observer.relay_tree is None
        assert deployment.observer.forward_init is None

    def test_tree_run_is_deterministic(self):
        runs = []
        for _ in range(2):
            network, deployment = _deploy(AggregationConfig(degree=4))
            snaps = _campaign(network, deployment)
            runs.append((network.sim.events_run,
                         [list(s.rows()) for s in snaps],
                         deployment.aggregation.stats()))
        assert runs[0] == runs[1]


class TestGatingMinReduction:
    def test_progress_floor_reaches_observer(self):
        network, deployment = _deploy(AggregationConfig(degree=4))
        epochs = deployment.schedule_campaign(3, 10 * MS)
        assert deployment.observer.fabric_min_epoch == 0
        network.run(until=1 * S)
        floor = deployment.observer.fabric_min_epoch
        assert 1 <= floor <= epochs[-1] + 1

    def test_unheard_child_caps_the_floor(self):
        network, deployment = _deploy(AggregationConfig(degree=2))
        tree = deployment.aggregation.tree
        relay = next(n for n in tree.order if tree.children[n])
        agent = deployment.aggregation.agents[relay]
        # Before any child reports, the subtree floor must stay at 0 no
        # matter how far the local control plane has advanced.
        assert agent.min_finalized() == 0


class TestPartialFlush:
    def test_a_silent_leaf_delays_the_chain_one_flush_not_one_per_hop(self):
        """A chain tree four relays deep whose leaf is silent: each
        relay above it flushes its own records once, and every hop
        passes a child's partial aggregate straight up (it used to hold
        it for another ``RELAY_FLUSH_TIMEOUT_NS``, so the deepest live records
        reached the observer after depth x 25 ms)."""
        config = AggregationConfig(degree=1)
        network, deployment = _deploy(
            config, topo=linear(num_switches=5, hosts_per_switch=1))
        tree = deployment.aggregation.tree
        [leaf] = [n for n in tree.order if not tree.children[n]]
        assert tree.depth() >= 3
        deployment.control_planes[leaf].crash()
        arrivals = []
        intake = deployment.aggregation.intake
        handler = intake.handler

        def spy(message):
            arrivals.append(network.sim.now)
            handler(message)

        intake.handler = spy
        epoch = deployment.take_snapshot()
        network.run(until=1 * S)
        snapshot = deployment.observer.snapshot(epoch)
        assert snapshot.excluded_devices == {leaf}
        # Per hop: the management-plane latency plus the relay's service
        # of one message, ~0.3 ms here.
        hop_ns = 1 * MS
        assert max(arrivals) <= (snapshot.requested_wall_ns
                                 + aggregation.RELAY_FLUSH_TIMEOUT_NS
                                 + tree.depth() * hop_ns)


class TestCrashCouplingAndAttribution:
    @pytest.fixture
    def relay_setup(self, short_flush):
        # device_timeout must outlast the partial-flush cascade (one
        # flush_timeout after initiation) or every device looks silent.
        observer = ObserverConfig(lead_time_ns=5 * MS,
                                  retry_timeout_ns=10 * MS, max_retries=1,
                                  device_timeout_ns=40 * MS)
        network, deployment = _deploy(
            AggregationConfig(degree=2), observer=observer)
        tree = deployment.aggregation.tree
        # A mid-tree relay: not the root, and has children to strand.
        relay = next(n for n in tree.order
                     if tree.children[n] and tree.parent[n] is not None)
        subtree = list(tree.children[relay])
        frontier = list(subtree)
        while frontier:
            node = frontier.pop()
            frontier.extend(tree.children[node])
            if node not in subtree:
                subtree.append(node)
        return network, deployment, relay, subtree

    def test_silent_relay_subtree_attributed_not_blamed(self, relay_setup):
        network, deployment, relay, subtree = relay_setup
        deployment.control_planes[relay].crash()
        epoch = deployment.take_snapshot()
        network.run(until=200 * MS)
        snapshot = deployment.observer.snapshot(epoch)
        assert snapshot.status is not SnapshotStatus.PENDING
        # Exactly the crashed relay and its stranded subtree dropped out;
        # every device outside it reported.
        assert snapshot.excluded_devices == set(subtree) | {relay}
        # The crashed relay itself is the genuinely silent device...
        assert snapshot.exclusion_reasons[relay] == "silent"
        # ...and every stranded descendant is attributed to it instead
        # of being marked silent (satellite: no unattributed timeout).
        for device in subtree:
            assert snapshot.exclusion_reasons[device] == f"relay:{relay}", (
                device, snapshot.exclusion_reasons)

    def test_restarted_relay_carries_later_epochs(self, relay_setup):
        network, deployment, relay, _subtree = relay_setup
        cp = deployment.control_planes[relay]
        network.sim.schedule_at(1 * MS, cp.crash)
        network.sim.schedule_at(40 * MS, cp.restart)
        first = deployment.take_snapshot()          # lost behind the crash
        network.run(until=60 * MS)
        second = deployment.take_snapshot()         # after the restart
        network.run(until=300 * MS)
        assert deployment.observer.snapshot(first).excluded_devices
        assert deployment.observer.snapshot(second).usable

    def test_crash_takes_agent_offline_and_back(self, relay_setup):
        network, deployment, relay, _subtree = relay_setup
        agent = deployment.aggregation.agents[relay]
        cp = deployment.control_planes[relay]
        assert agent.online
        cp.crash()
        assert not agent.online and not agent.channel.online
        cp.restart()
        assert agent.online and agent.channel.online

    def test_message_in_service_at_the_crash_is_counted_lost(self):
        """Every record a relay accepted moves upward exactly once or is
        in ``records_lost`` — also the records of the message the relay
        CPU was servicing when it died (they used to vanish: the queued
        message was counted, the one in service only bumped ``dropped``)."""
        sim = Simulator()
        tree = AggregationTree(root="root", parent={"root": None, "kid": "root"},
                               children={"root": ["kid"], "kid": []},
                               order=["root", "kid"])
        agent = AggregationAgent(sim, "root", tree)
        sent = []
        agent.send_up = sent.append

        def message(epoch):
            records = [UnitSnapshotRecord(
                unit=UnitId("kid", port, Direction.INGRESS), epoch=epoch,
                value=port, channel_state=None, consistent=True,
                captured_ns=0, read_ns=0) for port in range(3)]
            return AggregateMessage(source="kid", epoch=epoch, records=records,
                                    min_finalized=epoch, complete=True)

        agent.channel.deliver(message(1))   # goes into service
        agent.channel.deliver(message(2))   # waits behind it
        sim.schedule_at(10 * US, agent.set_online, False)
        sim.run(until=10 * MS)
        channel = agent.channel
        assert (channel.received, channel.processed, channel.dropped) == (2, 0, 1)
        assert channel.records_in == 6 and agent.records_forwarded == 0
        assert agent.records_lost == 6
        # Back up, a fresh epoch flows and the books still balance.
        agent.set_online(True)
        agent.channel.deliver(message(3))
        sim.run(until=20 * MS)
        assert [m.epoch for m in sent] == [3]
        assert channel.records_in == 9
        assert channel.records_in == (agent.records_forwarded
                                      + agent.records_lost) == 3 + 6


def _sharded_setup(worker):
    deployment = deploy(worker, metric="packet_count",
                        aggregation=AggregationConfig(degree=4))
    if deployment.is_observer_shard:
        deployment.schedule_campaign(3, 10 * MS)
    return deployment.aggregation.stats


class TestShardedComposition:
    def test_tree_collapses_cross_shard_intake_too(self):
        runner = ShardRunner(
            fat_tree(k=4), NetworkConfig(seed=7), shards=3,
            setup=_sharded_setup)
        out = runner.run(until=1 * S)
        merged = {}
        for shard in out:
            for key, value in shard.items():
                merged[key] = merged.get(key, 0) + value
        assert merged["records_lost"] == 0
        assert merged["dropped"] == 0
        # Only the observer shard hosts an intake; O(1) per epoch.
        assert 0 < merged["intake_processed"] < 3 * 160 / 10
