"""Tests for the shared measurement-campaign machinery."""

import pytest

from repro.experiments.campaigns import (CampaignSpec, all_egress_targets,
                                         build_network,
                                         make_balancer_factory,
                                         make_workload, polling_campaign,
                                         rounds_to_balance_input,
                                         snapshot_campaign,
                                         uplink_egress_targets)
from repro.lb import EcmpBalancer, FlowletBalancer
from repro.sim.engine import MS
from repro.sim.switch import Direction
from repro.workloads import (GraphXPageRankWorkload, HadoopTerasortWorkload,
                             MemcacheWorkload)


class TestFactories:
    def test_balancer_factory_kinds(self):
        assert isinstance(make_balancer_factory("ecmp")(0), EcmpBalancer)
        assert isinstance(make_balancer_factory("flowlet")(1),
                          FlowletBalancer)
        with pytest.raises(ValueError):
            make_balancer_factory("random-spray")

    def test_flowlet_timeout_propagated(self):
        lb = make_balancer_factory("flowlet", flowlet_timeout_ns=123)(0)
        assert lb.config.timeout_ns == 123

    def test_workload_factory(self):
        spec = CampaignSpec(workload="hadoop")
        net = build_network(spec)
        assert isinstance(make_workload("hadoop", net, seed=1,
                                        stop_ns=1 * MS),
                          HadoopTerasortWorkload)
        assert isinstance(make_workload("graphx", net, seed=1,
                                        stop_ns=1 * MS),
                          GraphXPageRankWorkload)
        assert isinstance(make_workload("memcache", net, seed=1,
                                        stop_ns=1 * MS), MemcacheWorkload)
        with pytest.raises(ValueError):
            make_workload("bitcoin", net, seed=1, stop_ns=1 * MS)


class TestTargets:
    def test_uplink_targets_are_leaf_uplinks_only(self):
        net = build_network(CampaignSpec(workload="memcache"))
        targets = uplink_egress_targets(net)
        assert len(targets) == 4  # 2 leaves x 2 spines
        assert all(sw.startswith("leaf") for sw, _p, _d in targets)
        assert all(d == Direction.EGRESS for _sw, _p, d in targets)

    def test_all_egress_targets_cover_leaf_ports(self):
        net = build_network(CampaignSpec(workload="memcache"))
        targets = all_egress_targets(net)
        assert len(targets) == 10  # 2 leaves x 5 connected ports


class TestRoundShaping:
    def test_rounds_to_balance_input_groups_by_switch(self):
        rounds = [{("leaf0", 3, Direction.EGRESS): 10,
                   ("leaf0", 4, Direction.EGRESS): 20,
                   ("leaf1", 3, Direction.EGRESS): 5}]
        shaped = rounds_to_balance_input(rounds)
        assert shaped == [{"leaf0": {3: 10.0, 4: 20.0}, "leaf1": {3: 5.0}}]


class TestCampaignsEndToEnd:
    def test_snapshot_and_polling_produce_matching_round_shapes(self):
        spec = CampaignSpec(workload="memcache", rounds=5,
                            interval_ns=4 * MS, seed=3)
        snap_rounds = snapshot_campaign(spec, uplink_egress_targets)
        poll_rounds = polling_campaign(spec, uplink_egress_targets)
        assert len(snap_rounds) == 5
        assert len(poll_rounds) == 5
        assert set(snap_rounds[0]) == set(poll_rounds[0])
