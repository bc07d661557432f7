"""Tests for fault schedules."""

import pytest

from repro.faults import FAULT_KINDS, INSTANT_KINDS, FaultEvent, FaultSchedule


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

    def test_json_round_trip(self):
        schedule = FaultSchedule()
        schedule.add("link_loss", 1000, target="a-b", duration_ns=2000,
                     model="bernoulli", p=0.25)
        schedule.add("clock_step", 50, target="sw1", delta_ns=-7000)
        data = schedule.to_jsonable()
        restored = FaultSchedule.from_jsonable(data)
        assert restored.to_jsonable() == data
        assert [e.kind for e in restored] == ["clock_step", "link_loss"]
        assert restored.events[1].params["p"] == 0.25

    def test_jsonable_params_sorted_for_stable_fingerprints(self):
        e1 = FaultEvent(at_ns=0, kind="link_loss", target="a-b",
                        params={"b": 2, "a": 1})
        e2 = FaultEvent(at_ns=0, kind="link_loss", target="a-b",
                        params={"a": 1, "b": 2})
        assert list(e1.to_jsonable()["params"]) == ["a", "b"]
        assert e1.to_jsonable() == e2.to_jsonable()

    def test_non_event_rejected(self):
        with pytest.raises(TypeError):
            FaultSchedule(events=["link_down"])

    def test_restrict_slices_by_owner_and_keeps_cut_links_on_both_sides(self):
        assignment = {"leaf0": 0, "leaf1": 1, "spine0": 0, "server0": 0}
        schedule = FaultSchedule()
        schedule.add("cp_slow", 10, target="leaf0", scale=2.0)
        schedule.add("clock_step", 20, target="leaf1", delta_ns=5)
        schedule.add("link_delay", 30, target="leaf1-spine0", extra_ns=1)
        schedule.add("link_down", 40, target="server0-leaf0")
        schedule.add("queue_squeeze", 50, capacity=4)  # "*": every shard
        kinds = {shard: [e.kind for e in schedule.restrict(assignment, shard)]
                 for shard in (0, 1)}
        assert kinds[0] == ["cp_slow", "link_delay", "link_down",
                            "queue_squeeze"]
        assert kinds[1] == ["clock_step", "link_delay", "queue_squeeze"]

    def test_restrict_to_the_only_shard_is_the_whole_schedule(self):
        schedule = FaultSchedule()
        schedule.add("link_loss", 5, target="a-b", model="bernoulli", p=0.5)
        schedule.add("cp_crash", 1, target="a")
        whole = schedule.restrict({"a": 0, "b": 0}, 0)
        assert whole.to_jsonable() == schedule.to_jsonable()

    @pytest.mark.parametrize("kind,target", [("cp_crash", "ghost"),
                                             ("link_delay", "a-ghost")])
    def test_restrict_refuses_a_target_no_shard_owns(self, kind, target):
        schedule = FaultSchedule()
        schedule.add(kind, 0, target=target)
        with pytest.raises(ValueError, match=f"{kind}.*{target}"):
            schedule.restrict({"a": 0, "b": 1}, 0)
