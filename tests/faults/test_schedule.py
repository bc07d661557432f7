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
