"""Tree-aware retry routing (repro.core.observer satellite).

When an aggregation tree is wired and a relay goes silent, a retry
round must cost O(fan-out) — one fabric re-initiation for the healthy
subtrees plus a unicast and per-child subtree re-send around each
culprit — never the flat O(devices) unicast sweep.  Without a tree the
legacy sweep must be untouched (golden traces depend on it).
"""

from __future__ import annotations

import pytest

from repro.core import AggregationConfig, ObserverConfig, aggregation, deploy
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.topology import fat_tree, leaf_spine


@pytest.fixture(autouse=True)
def _short_flush(monkeypatch):
    """A 10 ms partial-flush timer in place of the relays' 25 ms."""
    monkeypatch.setattr(aggregation, "RELAY_FLUSH_TIMEOUT_NS", 10 * MS)


def _deploy(agg, seed=7, topo=None, **config_kwargs):
    network = Network(topo or fat_tree(k=4), NetworkConfig(seed=seed))
    deployment = deploy(
        network, metric="packet_count", aggregation=agg, **config_kwargs)
    return network, deployment


# retry_timeout must outlast the partial-flush cascade (records from
# healthy subtrees reach the observer about one flush_timeout after
# initiation) or the retry round sees *nothing* reported and correctly
# declines the tree path; device_timeout must outlast the retry round.
_OBSERVER = dict(lead_time_ns=5 * MS, retry_timeout_ns=25 * MS,
                 max_retries=1, device_timeout_ns=70 * MS)


def _crashed_relay_run(degree=2):
    """Crash a mid-tree relay before the snapshot; run to resolution."""
    network, deployment = _deploy(
        AggregationConfig(degree=degree),
        observer=ObserverConfig(**_OBSERVER))
    tree = deployment.aggregation.tree
    relay = next(n for n in tree.order
                 if tree.children[n] and tree.parent[n] is not None)
    deployment.control_planes[relay].crash()
    epoch = deployment.take_snapshot()
    network.run(until=1 * S)
    return network, deployment, tree, relay, epoch


class TestTreeAwareRetry:
    def test_retry_cost_is_fanout_not_devices(self):
        network, deployment, tree, relay, epoch = _crashed_relay_run()
        observer = deployment.observer
        assert observer.retry_rounds >= 1
        # Each round: one fabric send covering every healthy subtree...
        assert observer.retry_fabric_sends == observer.retry_rounds
        # ...one unicast to the single culprit (the crashed relay)...
        assert observer.retry_unicasts == observer.retry_rounds
        # ...and one subtree re-initiation per tree child of the culprit.
        fan_out = len(tree.children[relay])
        assert (observer.retry_subtree_sends
                == observer.retry_rounds * fan_out)
        # O(fan-out), not O(devices): the whole round costs a constant
        # plus the culprit's fan-out, far below the flat sweep's cost.
        per_round = (observer.retry_fabric_sends + observer.retry_unicasts
                     + observer.retry_subtree_sends) / observer.retry_rounds
        assert per_round == 2 + fan_out
        assert per_round < len(deployment.control_planes)

    def test_stranded_descendants_are_not_unicast(self):
        network, deployment, tree, relay, epoch = _crashed_relay_run()
        snapshot = deployment.observer.snapshot(epoch)
        # The relay's whole subtree went silent with it, yet only the
        # culprit itself drew a unicast (one per round).
        stranded = [d for d in snapshot.excluded_devices if d != relay]
        assert stranded, "crash should strand the relay's subtree"
        assert (deployment.observer.retry_unicasts
                == deployment.observer.retry_rounds)

    def test_exclusion_outcome_matches_flat_attribution(self):
        network, deployment, tree, relay, epoch = _crashed_relay_run()
        snapshot = deployment.observer.snapshot(epoch)
        # Routing around the relay changes the message bill, not the
        # verdict: the relay is silent, its subtree stranded.
        assert snapshot.exclusion_reasons[relay] == "silent"
        assert set(snapshot.excluded_devices) >= {relay}

    def test_flat_deployment_keeps_legacy_unicast_sweep(self):
        network, deployment = _deploy(
            None, topo=leaf_spine(hosts_per_leaf=1),
            observer=ObserverConfig(**_OBSERVER))
        network.switch("leaf1").notification_sink = lambda n: None
        deployment.take_snapshot()
        network.run(until=1 * S)
        observer = deployment.observer
        assert observer.retry_rounds >= 1
        assert observer.retry_fabric_sends == 0
        assert observer.retry_subtree_sends == 0
        assert (observer.retry_unicasts
                == observer.retry_rounds * len(deployment.control_planes))

    def test_tree_with_nothing_silent_falls_back_to_sweep(self):
        # A device that is slow-but-reporting leaves no silent set; the
        # tree path declines and the full sweep runs as before.
        network, deployment = _deploy(
            AggregationConfig(degree=2),
            observer=ObserverConfig(**_OBSERVER))
        snapshot_epoch = deployment.take_snapshot()
        network.run(until=1 * S)
        observer = deployment.observer
        # Healthy run: no retries at all is the common case; if a retry
        # did fire, it must not have used the tree path spuriously.
        if observer.retry_rounds:
            assert observer.retry_fabric_sends <= observer.retry_rounds
        assert deployment.observer.snapshot(snapshot_epoch).status.value in (
            "complete", "partial")
