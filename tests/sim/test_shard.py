"""The sharded space-parallel core: partitioning, conservative rounds,
deterministic merges (docs/SHARDING.md).

The two load-bearing guarantees:

* **Worker-order independence** — the composed execution is a pure
  function of (topology, config, shard count); the equivalence matrix
  permutes the order workers are stepped in and asserts the per-shard
  event streams do not move by a single event.
* **Single-shard identity** — ``shards=1`` runs the plain
  single-process path, reproducing the integration suite's golden
  event trace bit for bit through the sharded entry point and
  ``deploy(worker)``.
"""

import functools
import hashlib
import operator

import pytest

from repro.core import deploy
from repro.sim.engine import MS
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import NetworkConfig, cut_links, partition_topology
from repro.sim.shard import InProcessShardRunner, ShardPlan, ShardRunner
from repro.topology import fat_tree, leaf_spine, ring, single_switch
from tests.conftest import linear
from repro.topology.graph import NodeKind
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload
from tests.integration.test_golden_trace import (GOLDEN_EVENTS,
                                                 GOLDEN_SHA256,
                                                 GOLDEN_TOTALS)
from tests.sim.test_network import with_odd_host
from tests.topology.test_route_table import switch_graphs

#: Drawn examples of the partition differential (``make
#: route-diff-deep`` raises it).
EXAMPLES = int(os.environ.get("REPRO_ROUTE_DIFF_EXAMPLES", "60"))

TOPO_KW = dict(num_leaves=3, num_spines=2, hosts_per_leaf=1)
SETUP_ARGS = (20_000.0, 4 * MS, 2, 2 * MS)
UNTIL = 12 * MS


def _traffic_setup(worker, rate_pps, stop_ns, snapshots, interval_ns):
    """Cross-shard traffic plus a short campaign.  Finish value:
    per-shard event count, plus snapshot health on the observer shard."""
    topo = worker.network.topology
    local = [h for h in topo.hosts
             if worker.plan.assignment[h] == worker.shard_id]
    pairs = [(src, dst) for src in local
             for dst in topo.hosts if dst != src]
    PoissonWorkload(worker.network, PoissonConfig(
        seed=worker.shard_id + 1, rate_pps=rate_pps, stop_ns=stop_ns,
        pairs=pairs, sport_churn=True)).start()
    deployment = deploy(worker, metric="packet_count")
    epochs = (deployment.schedule_campaign(snapshots, interval_ns)
              if deployment.is_observer_shard else [])

    def finish():
        out = {"events": worker.sim.events_run}
        if deployment.is_observer_shard:
            snaps = [deployment.observer.snapshot(e) for e in epochs]
            out["complete"] = sum(1 for s in snaps if s.complete)
            out["totals"] = [s.total_value() for s in snaps]
        return out

    return finish


@functools.cache
def _baseline():
    """The 3-shard execution, once per session: (results, rounds)."""
    runner = ShardRunner(
        leaf_spine(**TOPO_KW), NetworkConfig(seed=11), shards=3,
        setup=_traffic_setup, setup_args=SETUP_ARGS)
    return runner.run(until=UNTIL), runner.rounds


class TestPartitioner:
    def test_deterministic_and_covering(self):
        topo = fat_tree(k=4)
        first = partition_topology(topo, 4)
        second = partition_topology(topo, 4)
        assert first == second
        assert set(first) == set(topo.switches) | set(topo.hosts)

    def test_hosts_follow_their_switch_so_only_fabric_links_cut(self):
        topo = leaf_spine(**TOPO_KW)
        assignment = partition_topology(topo, 3)
        for spec in cut_links(topo, assignment):
            assert spec.a in topo.switches and spec.b in topo.switches

    def test_switch_counts_are_balanced(self):
        topo = fat_tree(k=4)  # 20 switches
        assignment = partition_topology(topo, 4)
        sizes = [sum(1 for s in topo.switches if assignment[s] == shard)
                 for shard in range(4)]
        assert sizes == [5, 5, 5, 5]

    @pytest.mark.parametrize("links", [0, 2], ids=["unlinked", "dual_homed"])
    def test_a_host_with_other_than_one_link_is_refused_by_name(self, links):
        # Unlinked, it raised a bare IndexError; dual-homed, it followed
        # its first switch by name into a network that cannot wire it.
        with pytest.raises(ValueError, match=f"^host 'odd' has {links} links"):
            partition_topology(with_odd_host(links), 2)

    def test_more_shards_than_switches_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            partition_topology(linear(num_switches=2), 3)

    def test_plan_lookahead_is_min_cut_propagation(self):
        topo = leaf_spine(fabric_prop_ns=700, **TOPO_KW)
        plan = ShardPlan.for_topology(topo, 2)
        assert plan.cut
        assert plan.lookahead_ns == 700
        assert plan.lookahead_ns == min(s.propagation_ns for s in plan.cut)

    def test_single_shard_plan_has_no_cut(self):
        plan = ShardPlan.for_topology(leaf_spine(**TOPO_KW), 1)
        assert plan.cut == ()
        assert plan.lookahead_ns == 0


def partition_oracle(topology, num_shards):
    """``partition_topology`` as it was before it counted as it grew:
    the frontier re-sorted and every candidate's links into the region
    recounted (a list scan) for every pick."""
    switches = topology.switches
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > len(switches):
        raise ValueError(
            f"cannot split {len(switches)} switches into {num_shards} shards")
    assignment: dict[str, int] = {}

    def switch_degree(name: str) -> int:
        return sum(1 for n in topology.neighbors(name)
                   if topology.kind(n) is NodeKind.SWITCH)

    remaining = set(switches)
    base, extra = divmod(len(switches), num_shards)
    for shard in range(num_shards):
        target = base + (1 if shard < extra else 0)
        region: list[str] = []
        while len(region) < target:
            if not region:
                # Seed: highest switch-degree, name as tie-break.
                seed = max(sorted(remaining), key=switch_degree)
                region.append(seed)
                remaining.discard(seed)
                continue
            frontier = sorted({n for member in region
                               for n in topology.neighbors(member)
                               if n in remaining})
            if not frontier:
                # Disconnected remainder: start a fresh seed inside the
                # same shard.
                seed = max(sorted(remaining), key=switch_degree)
                region.append(seed)
                remaining.discard(seed)
                continue
            def edges_into_region(name: str) -> int:
                return sum(1 for n in topology.neighbors(name)
                           if n in region)
            pick = max(frontier, key=edges_into_region)
            region.append(pick)
            remaining.discard(pick)
        for name in region:
            assignment[name] = shard
    for host in topology.hosts:
        # Host-to-host links do not exist, so every host neighbor is a
        # switch; a multi-homed host follows its first switch by name.
        attached = topology.neighbors(host)[0]
        assignment[host] = assignment[attached]
    return assignment


def assert_partitions_match(topo, num_shards):
    try:
        expected = partition_oracle(topo, num_shards)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            partition_topology(topo, num_shards)
        assert str(raised.value) == str(exc)
        return
    assignment = partition_topology(topo, num_shards)
    assert assignment == expected
    assert list(assignment.items()) == list(expected.items())


class TestPartitionDifferential:
    """The partition grown with counts kept up to date assigns every
    node exactly as the re-sorting, recounting body it replaced."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: leaf_spine(num_leaves=3, hosts_per_leaf=2),
                     id="leaf_spine"),
        pytest.param(lambda: single_switch(num_hosts=3), id="single_switch"),
        pytest.param(lambda: linear(num_switches=4), id="linear"),
        pytest.param(lambda: ring(num_switches=5, hosts_per_switch=2),
                     id="ring"),
        pytest.param(lambda: fat_tree(k=4), id="fat_tree4"),
        pytest.param(lambda: fat_tree(k=6), id="fat_tree6"),
        pytest.param(lambda: fat_tree(k=8), id="fat_tree8"),
    ])
    @pytest.mark.parametrize("num_shards", [0, 1, 2, 3, 4])
    def test_builders_match_the_oracle(self, build, num_shards):
        assert_partitions_match(build(), num_shards)

    @given(switch_graphs(multihomed=False), st.integers(1, 4))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_drawn_graphs_match_the_oracle(self, topo, num_shards):
        assert_partitions_match(topo, num_shards)


class TestMergeDeterminism:
    def test_baseline_is_nonvacuous(self):
        results, rounds = _baseline()
        assert rounds > 0  # the coordinator actually ran windowed rounds
        assert sum(r["events"] for r in results) > 0
        # Cross-shard record shipping worked: the observer shard
        # assembled every epoch from remote shards' records.
        assert results[0]["complete"] == 2

    def test_state_shared_around_a_mailbox_moves_with_the_order(self):
        """The canary for actor isolation: shards that share an object
        instead of a mailbox see each other mid-round, so the stepping
        order — which the equivalence matrix draws — changes the
        result.  (Old rule FLOW001 looked for such state statically.)"""
        def run(order):
            return ShardRunner(leaf_spine(**TOPO_KW), shards=2,
                               setup=_shared_dict_setup, setup_args=({},),
                               order=order).run(until=UNTIL)

        assert run([0, 1]) == [None, [True]]
        assert run([1, 0]) == [None, [False]]


def _shared_dict_setup(worker, shared):
    """At 1 µs shard 0 writes a dict that shard 1 reads at the same
    instant, within the first round."""
    if worker.shard_id == 0:
        worker.sim.schedule(1_000, shared.__setitem__, "written", True)
        return None
    seen = []
    worker.sim.schedule(1_000, lambda: seen.append("written" in shared))
    return lambda: seen


class TestRepeatedRuns:
    def test_run_resumes_the_same_execution(self):
        """``run`` again with a later ``until`` continues the same
        execution: its results match one run to ``until``."""
        runner = ShardRunner(
            leaf_spine(**TOPO_KW), NetworkConfig(seed=11), shards=3,
            setup=_traffic_setup, setup_args=SETUP_ARGS)
        runner.run(until=2 * MS)
        assert runner.run(until=UNTIL) == _baseline()[0]

    def test_workers_may_be_scheduled_into_between_runs(self):
        """A flow started from outside after one ``run`` crosses the cut
        in the next: the coordinator re-reads the next-event times."""
        runner = ShardRunner(leaf_spine(**TOPO_KW), NetworkConfig(seed=11),
                             shards=2)
        runner.run(until=2 * MS)
        assignment = runner.plan.assignment
        src = next(h for h in runner.workers[0].network.hosts
                   if assignment[h] == 0)
        dst = next(h for h in runner.workers[1].network.hosts
                   if assignment[h] == 1)
        runner.workers[0].network.host(src).send_flow(dst, 10, sport=1,
                                                      dport=2)
        runner.run(until=UNTIL)
        assert runner.workers[1].network.host(dst).packets_received == 10


def _dead_letter_setup(worker):
    """Shard 1 sends to a mailbox no shard registered."""
    if worker.shard_id == 1:
        worker.sim.schedule(1_000, worker.send_ctrl, "nobody-home", "payload")


def _duplicate_mailbox_setup(worker):
    """Every shard registers the same mailbox name."""
    worker.register_mailbox("observer", print)


class TestMailboxRouting:
    """The transport refuses a misrouted control message loudly and
    says who sent it — at run time, where the wiring-time ``_edge``
    mailboxes are visible too."""

    def test_dead_letter_names_the_mailbox_and_the_sender(self):
        runner = ShardRunner(
            leaf_spine(**TOPO_KW), NetworkConfig(seed=11), shards=2,
            setup=_dead_letter_setup)
        with pytest.raises(KeyError, match=r"no shard registered mailbox "
                                           r"'nobody-home' \(sent by shard 1\)"):
            runner.run(until=UNTIL)

    def test_duplicate_mailbox_names_both_shards(self):
        with pytest.raises(ValueError, match=r"'observer' registered by more "
                                             r"than one shard \(0 and 1\)"):
            ShardRunner(leaf_spine(**TOPO_KW), NetworkConfig(seed=11),
                        shards=2, setup=_duplicate_mailbox_setup)


def _setup_fails_in_shard_1(worker):
    if worker.shard_id == 1:
        raise ZeroDivisionError("shard 1 cannot set up")


def _event_fails_in_shard_1(worker):
    if worker.shard_id == 1:
        worker.sim.schedule(1_000, operator.floordiv, 1, 0)


class TestWorkerErrors:
    """A failing shard raises its own exception, unwrapped."""

    def test_setup_error(self):
        with pytest.raises(ZeroDivisionError,
                           match="^shard 1 cannot set up$"):
            ShardRunner(leaf_spine(**TOPO_KW), NetworkConfig(seed=11),
                        shards=2, setup=_setup_fails_in_shard_1)

    def test_event_error_mid_run(self):
        runner = ShardRunner(leaf_spine(**TOPO_KW), NetworkConfig(seed=11),
                             shards=2, setup=_event_fails_in_shard_1)
        with pytest.raises(ZeroDivisionError,
                           match="^integer division or modulo by zero$"):
            runner.run(until=UNTIL)

    def test_an_item_behind_now_is_refused(self):
        worker = ShardRunner(leaf_spine(**TOPO_KW), shards=2).workers[1]
        worker.run_horizon(5_000)
        link = next(iter(worker.scope.boundary_links))
        with pytest.raises(RuntimeError, match=(
                rf"lookahead violated: pkt item '{link}' from shard 0 due "
                r"at 4999, shard 1 is at 5000")):
            worker.inject([("pkt", link, 4_999, 0, 0, None)])


def test_the_bench_alias_stays_the_coordinator():
    # bench/tracing.py spans ``vars(InProcessShardRunner)["run"]``: a
    # rename or an inherited ``run`` would fail here, in tier-1.
    assert InProcessShardRunner is ShardRunner
    assert "run" in vars(ShardRunner)


class TestSingleShardIdentity:
    def test_golden_trace_through_the_sharded_entry_point(self):
        results = ShardRunner(
            linear(num_switches=2, hosts_per_switch=2),
            NetworkConfig(seed=7), shards=1,
            setup=_golden_setup).run(60 * MS)
        events, digest, totals = results[0]
        assert events == GOLDEN_EVENTS
        assert digest == GOLDEN_SHA256
        assert totals == GOLDEN_TOTALS


def _golden_setup(worker):
    """The integration suite's pinned scenario, installed through the
    shard worker."""
    network = worker.network
    PoissonWorkload(network, PoissonConfig(rate_pps=10_000,
                                           stop_ns=40 * MS,
                                           sport_churn=True)).start()
    deployment = deploy(worker, metric="packet_count", channel_state=True)
    deployment.schedule_campaign(count=3, interval_ns=10 * MS)
    digest = hashlib.sha256()

    def trace(time, seq, fn):
        name = getattr(fn, "__qualname__", None) or repr(fn)
        digest.update(f"{time}:{seq}:{name}\n".encode())

    network.sim.trace = trace
    return lambda: (network.sim.events_run, digest.hexdigest(),
                    [deployment.observer.snapshot(e).total_value()
                     for e in (1, 2, 3)])
