"""Tests for fault schedules."""

import pytest

from repro.core import deploy
from repro.faults import (FAULT_KINDS, INSTANT_KINDS, FaultEvent,
                          FaultInjector, FaultSchedule)
from repro.sim.engine import MS
from repro.sim.shard import ShardRunner
from repro.topology import leaf_spine


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(at_ns=0, kind="gremlins")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="at_ns"):
            FaultEvent(at_ns=-1, kind="link_down")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_ns"):
            FaultEvent(at_ns=0, kind="link_down", duration_ns=-5)

    def test_instant_kind_refuses_duration(self):
        with pytest.raises(ValueError, match="instantaneous"):
            FaultEvent(at_ns=0, kind="clock_step", duration_ns=100)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            FaultEvent(at_ns=0, kind="link_down", target="")

    def test_layer_property(self):
        assert FaultEvent(at_ns=0, kind="cp_crash").layer == "switch"
        assert FaultEvent(at_ns=0, kind="link_delay").layer == "link"

    def test_every_kind_has_a_layer(self):
        for kind, layer in FAULT_KINDS.items():
            assert layer in ("link", "switch", "clock"), kind
        assert INSTANT_KINDS <= set(FAULT_KINDS)


class TestFaultSchedule:
    def test_add_keeps_time_order(self):
        schedule = FaultSchedule()
        schedule.add("link_down", 500, target="a-b", duration_ns=10)
        schedule.add("cp_crash", 100, target="sw0")
        assert [e.at_ns for e in schedule] == [100, 500]
        assert len(schedule) == 2 and bool(schedule)

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert len(FaultSchedule()) == 0

    def test_non_event_rejected(self):
        with pytest.raises(TypeError):
            FaultSchedule(events=["link_down"])

    # Shard slicing is the injector's: on a shard it arms the events
    # whose target lives there.  The fabric splits as {leaf0, spine0,
    # server0} | {leaf1, server1}, with leaf1-spine0 cut.

    def test_restrict_slices_by_owner_and_keeps_cut_links_on_both_sides(self):
        schedule = FaultSchedule()
        schedule.add("cp_slow", 10, target="leaf0", scale=2.0)
        schedule.add("clock_step", 20, target="leaf1", delta_ns=5)
        schedule.add("link_delay", 30, target="leaf1-spine0", extra_ns=1)
        schedule.add("link_down", 40, target="server0-leaf0")
        schedule.add("queue_squeeze", 50, capacity=4)  # "*": every shard
        kinds = _applied(schedule, shards=2)
        assert kinds[0] == ["cp_slow", "link_delay", "link_down",
                            "queue_squeeze"]
        assert kinds[1] == ["clock_step", "link_delay", "queue_squeeze"]

    def test_restrict_to_the_only_shard_is_the_whole_schedule(self):
        schedule = FaultSchedule()
        schedule.add("link_loss", 5, target="leaf0-spine0",
                     model="bernoulli", p=0.5)
        schedule.add("cp_crash", 1, target="leaf0")
        assert _applied(schedule, shards=1) == {
            0: [event.kind for event in schedule]}

    @pytest.mark.parametrize("kind,target", [("cp_crash", "ghost"),
                                             ("link_delay", "leaf0-ghost")])
    def test_restrict_refuses_a_target_no_shard_owns(self, kind, target):
        schedule = FaultSchedule()
        schedule.add(kind, 0, target=target)
        with pytest.raises(ValueError, match=f"{kind}.*{target}"):
            _applied(schedule, shards=2)


def _applied(schedule, shards):
    """Per shard, the kinds its injector applied while a two-leaf,
    one-spine fabric split across ``shards`` ran for 1 ms."""
    injectors = {}

    def setup(worker):
        injector = injectors[worker.shard_id] = FaultInjector(
            worker.network, schedule, deployment=deploy(worker))
        injector.arm()

    ShardRunner(leaf_spine(num_leaves=2, num_spines=1, hosts_per_leaf=1),
                shards=shards, setup=setup).run(MS)
    return {shard: [r.kind for r in injector.log if r.action == "apply"]
            for shard, injector in sorted(injectors.items())}
