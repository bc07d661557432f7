"""Tests for the composable fault-profile algebra (docs/FAULTS.md).

The contract under test: profiles are JSON-round-trippable specs that
compile deterministically against a ProfileContext; composing,
reordering, or dropping parts never reshuffles another part's events;
and every compiled event lands inside the compile window.
"""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (FAULT_KINDS, INSTANT_KINDS, Cascade, Compose,
                          CorrelatedGroup, FaultInjector, FaultProfile,
                          IndependentFaults, MaintenanceWindow,
                          ProfileContext, attribute_epochs)
from repro.sim.engine import MS
from repro.topology import leaf_spine

CTX = ProfileContext(horizon_ns=50 * MS, links=("sw0-sw1", "sw1-sw2"),
                     switches=("sw0", "sw1", "sw2"),
                     clocks=("sw0", "sw1", "sw2"),
                     start_ns=10 * MS, seed=7)


def _multiset(schedule):
    return sorted(json.dumps(asdict(e), sort_keys=True) for e in schedule)


class TestProfileContext:
    def test_for_topology_uses_fabric_links_only(self):
        ctx = ProfileContext.for_topology(leaf_spine(hosts_per_leaf=2),
                                          horizon_ns=50 * MS, seed=1)
        assert ctx.switches == ("leaf0", "leaf1", "spine0", "spine1")
        assert ctx.clocks == ctx.switches
        # Host-facing links never appear as fault targets.
        assert ctx.links == ("leaf0-spine0", "leaf0-spine1",
                            "leaf1-spine0", "leaf1-spine1")

    def test_incident_links(self):
        assert CTX.incident_links("sw1") == ("sw0-sw1", "sw1-sw2")
        assert CTX.incident_links("sw0") == ("sw0-sw1",)

    def test_switch_adjacency(self):
        assert CTX.switch_adjacency() == {
            "sw0": ("sw1",), "sw1": ("sw0", "sw2"), "sw2": ("sw1",)}

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="horizon_ns"):
            ProfileContext(horizon_ns=0)
        with pytest.raises(ValueError, match="start_ns"):
            ProfileContext(horizon_ns=1, start_ns=-1)

    def test_lists_normalized_to_tuples(self):
        ctx = ProfileContext(horizon_ns=1, links=["a-b"], switches=["a"])
        assert ctx.links == ("a-b",) and ctx.switches == ("a",)


class TestJsonRoundTrip:
    SPECS = [
        IndependentFaults(intensity=1.5, kinds=("link_down", "cp_crash"),
                          mean_duration_ns=3 * MS, stream="alt"),
        CorrelatedGroup(switch="sw1", at_ns=20 * MS, duration_ns=4 * MS,
                        jitter_ns=100, link_kind="link_loss",
                        switch_kind="cp_slow"),
        MaintenanceWindow(targets=("sw0-sw1", "sw1-sw2"), offset_ns=5 * MS,
                          duration_ns=2 * MS, stagger_ns=1 * MS),
        Cascade(origin="sw0", probability=0.75, spread_delay_ns=2 * MS,
                max_depth=2, at_ns=15 * MS, include_cp=True),
        Compose(parts=(IndependentFaults(intensity=0.5),
                       CorrelatedGroup(switch="sw2"))),
        # A composite built from a composite is flat from the start
        # (docs/SPECS.md rule 3), so it round-trips like any other.
        Compose(parts=(Compose(parts=(MaintenanceWindow(
            targets=("sw0-sw1",)),)),)),
    ]

    @pytest.mark.parametrize("spec", SPECS,
                             ids=lambda s: s.spec_type)
    def test_round_trip(self, spec):
        data = spec.to_jsonable()
        restored = FaultProfile.from_jsonable(data)
        assert restored == spec
        assert restored.to_jsonable() == data

    @pytest.mark.parametrize("spec", SPECS,
                             ids=lambda s: s.spec_type)
    def test_round_trip_compiles_identically(self, spec):
        restored = FaultProfile.from_jsonable(spec.to_jsonable())
        assert restored.compile(CTX) == spec.compile(CTX)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile type"):
            FaultProfile.from_jsonable({"type": "gremlins"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            FaultProfile.from_jsonable(
                {"type": "independent", "intensity": 1.0, "bogus": 3})

    def test_missing_type_tag_rejected(self):
        with pytest.raises(ValueError, match="'type' tag"):
            FaultProfile.from_jsonable({"intensity": 1.0})
        with pytest.raises(ValueError, match="'type' tag"):
            FaultProfile.from_jsonable("independent")


class TestComposition:
    A = IndependentFaults(intensity=4.0, kinds=("link_down",))
    B = CorrelatedGroup(switch="sw1", at_ns=20 * MS)
    C = MaintenanceWindow(targets=("sw1-sw2",), offset_ns=5 * MS)

    def test_or_flattens(self):
        composite = self.A | self.B | self.C
        assert isinstance(composite, Compose)
        assert composite.parts == (self.A, self.B, self.C)

    def test_add_is_or(self):
        assert (self.A + self.B) == (self.A | self.B)

    def test_reorder_independence(self):
        ab = (self.A | self.B | self.C).compile(CTX)
        ba = (self.C | self.B | self.A).compile(CTX)
        assert _multiset(ab) == _multiset(ba)

    def test_composing_never_reshuffles_a_part(self):
        # Every event A produces alone appears verbatim in any composite
        # that contains A: parts draw from independent RNG streams.
        alone = self.A.compile(CTX)
        composed = list((self.A | self.B | self.C).compile(CTX))
        assert alone, "fixture should produce events"
        for event in alone:
            assert event in composed

    def test_dropping_a_part_removes_exactly_its_events(self):
        full = _multiset((self.A | self.C).compile(CTX))
        without = _multiset(self.A.compile(CTX))
        removed = _multiset(self.C.compile(CTX))
        assert sorted(without + removed) == full

    def test_all_zero_composite_compiles_empty(self):
        composite = (IndependentFaults(intensity=0.0)
                     | IndependentFaults(intensity=0.0, stream="other")
                     | MaintenanceWindow(targets=()))
        assert not composite.compile(CTX)

    def test_deterministic(self):
        composite = self.A | self.B | Cascade(origin="sw0", probability=1.0)
        assert composite.compile(CTX) == composite.compile(CTX)

    def test_non_profile_part_rejected(self):
        with pytest.raises(TypeError, match="FaultProfile"):
            Compose(parts=("link_down",))


class TestIndependentFaults:
    def test_zero_intensity_compiles_empty(self):
        assert not IndependentFaults(intensity=0.0).compile(CTX)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="intensity"):
            IndependentFaults(intensity=-0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            IndependentFaults(intensity=1.0, kinds=("link_down", "bitrot"))

    def test_seed_changes_schedule(self):
        spec = IndependentFaults(intensity=3.0)
        a = spec.compile(CTX)
        b = spec.compile(ProfileContext(
            horizon_ns=CTX.horizon_ns, links=CTX.links,
            switches=CTX.switches, clocks=CTX.clocks,
            start_ns=CTX.start_ns, seed=CTX.seed + 1))
        assert a != b

    def test_adding_a_target_never_reshuffles_others(self):
        spec = IndependentFaults(intensity=2.0)
        one = spec.compile(ProfileContext(
            horizon_ns=50 * MS, links=("sw0-sw1",), start_ns=10 * MS,
            seed=7))
        two = spec.compile(ProfileContext(
            horizon_ns=50 * MS, links=("sw0-sw1", "sw1-sw2"),
            start_ns=10 * MS, seed=7))
        keep = [e for e in one if e.target == "sw0-sw1"]
        both = [e for e in two if e.target == "sw0-sw1"]
        assert keep == both

    def test_kind_subset_respected(self):
        schedule = IndependentFaults(intensity=5.0,
                                     kinds=("cp_crash",)).compile(CTX)
        assert schedule and all(e.kind == "cp_crash" for e in schedule)

    def test_events_inside_window_and_durations_clamped(self):
        schedule = IndependentFaults(intensity=4.0).compile(CTX)
        assert len(schedule) > 0
        for event in schedule:
            assert CTX.start_ns <= event.at_ns < CTX.end_ns
            assert event.at_ns + event.duration_ns <= CTX.end_ns
            if event.kind in INSTANT_KINDS:
                assert event.duration_ns == 0


class TestCorrelatedGroup:
    def test_rack_loss_downs_all_links_and_cp_at_same_instant(self):
        schedule = CorrelatedGroup(switch="sw1", at_ns=20 * MS).compile(CTX)
        events = list(schedule)
        links = {e.target for e in events if e.kind == "link_down"}
        cps = {e.target for e in events if e.kind == "cp_crash"}
        assert links == set(CTX.incident_links("sw1"))
        assert cps == {"sw1"}
        assert len(events) == len(links) + 1
        assert {e.at_ns for e in events} == {20 * MS}

    def test_victim_chosen_deterministically_when_unpinned(self):
        a = CorrelatedGroup().compile(CTX)
        b = CorrelatedGroup().compile(CTX)
        assert a == b

    def test_unknown_switch_rejected(self):
        with pytest.raises(ValueError, match="unknown switch"):
            CorrelatedGroup(switch="sw9").compile(CTX)

    def test_kind_layers_validated(self):
        with pytest.raises(ValueError, match="link_kind"):
            CorrelatedGroup(link_kind="cp_crash")
        with pytest.raises(ValueError, match="switch_kind"):
            CorrelatedGroup(switch_kind="link_down")

    def test_rack_loss_lands_in_one_epoch_end_to_end(self):
        """The acceptance criterion: a compiled rack-loss group takes
        down all fabric links + the CP of one switch inside the *same*
        campaign epoch, visible in the per-epoch attribution."""
        from repro.core import deploy
        from repro.sim.network import Network, NetworkConfig
        from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

        topo = leaf_spine(hosts_per_leaf=1)
        rounds, interval = 6, 5 * MS
        horizon = rounds * interval
        ctx = ProfileContext.for_topology(topo, horizon_ns=horizon,
                                          start_ns=10 * MS, seed=3)
        group = CorrelatedGroup(switch="leaf0", at_ns=22 * MS,
                                duration_ns=3 * MS)
        schedule = group.compile(ctx)

        network = Network(topo, NetworkConfig(seed=3))
        stop_ns = horizon + 120 * MS
        PoissonWorkload(network, PoissonConfig(
            seed=4, rate_pps=5_000.0, stop_ns=stop_ns)).start()
        deployment = deploy(network, metric="packet_count", channel_state=True)
        injector = FaultInjector(network, schedule, deployment=deployment)
        injector.arm()
        epochs = deployment.schedule_campaign(rounds, interval)
        network.run(until=stop_ns)

        snapshots = [deployment.observer.snapshot(e) for e in epochs]
        attribution = attribute_epochs(injector.log, snapshots,
                                       horizon_ns=stop_ns)
        expected = ({("link_down", link)
                     for link in ctx.incident_links("leaf0")}
                    | {("cp_crash", "leaf0")})
        hits = [a for a in attribution
                if expected <= {(s.kind, s.target) for s in a.overlapping}]
        # The whole group lands together in at least one epoch's window.
        assert hits, "rack-loss group overlapped no epoch"


class TestMaintenanceWindow:
    def test_fully_deterministic_no_rng(self):
        spec = MaintenanceWindow(targets=("sw0-sw1", "sw1-sw2"),
                                 offset_ns=5 * MS, duration_ns=2 * MS,
                                 stagger_ns=1 * MS)
        events = list(spec.compile(CTX))
        assert [(e.target, e.at_ns, e.duration_ns) for e in events] == [
            ("sw0-sw1", CTX.start_ns + 5 * MS, 2 * MS),
            ("sw1-sw2", CTX.start_ns + 6 * MS, 2 * MS),
        ]

    def test_empty_targets_compile_empty(self):
        assert not MaintenanceWindow(targets=()).compile(CTX)

    @pytest.mark.parametrize("target, kind", [
        ("nope-nada", "link_down"),   # names nothing
        ("sw0", "link_down"),         # a switch, for a link fault
        ("sw0-sw1", "cp_crash"),      # a link, for a switch fault
    ])
    def test_target_outside_the_kind_inventory_rejected(self, target, kind):
        # The one emit point validates targets (docs/SPECS.md rule 4),
        # so a bad profile fails at compile time, not inside a trial.
        spec = MaintenanceWindow(targets=(target,), kind=kind)
        with pytest.raises(ValueError) as exc:
            spec.compile(CTX)
        assert kind in str(exc.value) and repr(target) in str(exc.value)
        assert f"no {FAULT_KINDS[kind]} named" in str(exc.value)

    def test_wildcard_and_reversed_link_names_accepted(self):
        # Exactly what FaultInjector resolves at arm time.
        schedule = MaintenanceWindow(targets=("*", "sw1-sw0")).compile(CTX)
        assert [e.target for e in schedule] == ["*", "sw1-sw0"]


class TestCascade:
    def test_probability_one_spreads_to_max_depth(self):
        schedule = Cascade(origin="sw0", probability=1.0, at_ns=15 * MS,
                           max_depth=2, include_cp=True).compile(CTX)
        crashed = {e.target for e in schedule if e.kind == "cp_crash"}
        assert crashed == {"sw0", "sw1", "sw2"}

    def test_probability_zero_fails_origin_only(self):
        schedule = Cascade(origin="sw1", probability=0.0, at_ns=15 * MS,
                           include_cp=True).compile(CTX)
        crashed = {e.target for e in schedule if e.kind == "cp_crash"}
        assert crashed == {"sw1"}
        downed = {e.target for e in schedule if e.kind == "link_down"}
        assert downed == set(CTX.incident_links("sw1"))

    def test_max_depth_zero_stops_at_origin(self):
        schedule = Cascade(origin="sw0", probability=1.0, at_ns=15 * MS,
                           max_depth=0, include_cp=True).compile(CTX)
        crashed = {e.target for e in schedule if e.kind == "cp_crash"}
        assert crashed == {"sw0"}

    def test_unknown_origin_rejected(self):
        with pytest.raises(ValueError, match="unknown switch"):
            Cascade(origin="sw9").compile(CTX)

    def test_propagation_delays_are_clamped_into_window(self):
        # Origin fails 1ns before the horizon edge: every propagated
        # failure would overshoot, but the clamp point pulls them back.
        schedule = Cascade(origin="sw0", probability=1.0,
                           at_ns=CTX.end_ns - 1, include_cp=True).compile(CTX)
        assert len(schedule) > 0
        for event in schedule:
            assert CTX.start_ns <= event.at_ns < CTX.end_ns
            assert event.at_ns + event.duration_ns <= CTX.end_ns


profile_strategy = st.one_of(
    st.builds(IndependentFaults,
              intensity=st.sampled_from([0.0, 1.0, 4.0]),
              mean_duration_ns=st.sampled_from([1, 5 * MS, 200 * MS])),
    st.builds(CorrelatedGroup,
              at_ns=st.one_of(st.none(),
                              st.integers(min_value=0,
                                          max_value=200 * MS)),
              duration_ns=st.sampled_from([0, 3 * MS, 500 * MS]),
              jitter_ns=st.sampled_from([0, 1 * MS, 100 * MS])),
    st.builds(MaintenanceWindow,
              targets=st.just(("sw0-sw1", "sw1-sw2")),
              offset_ns=st.integers(min_value=0, max_value=100 * MS),
              duration_ns=st.sampled_from([0, 2 * MS, 500 * MS]),
              stagger_ns=st.sampled_from([0, 30 * MS])),
    st.builds(Cascade,
              probability=st.sampled_from([0.0, 0.5, 1.0]),
              at_ns=st.one_of(st.none(),
                              st.integers(min_value=0,
                                          max_value=200 * MS)),
              duration_ns=st.sampled_from([0, 5 * MS, 500 * MS]),
              include_cp=st.booleans()),
)


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(profile_strategy, min_size=1, max_size=3),
       seed=st.integers(min_value=0, max_value=1000))
def test_every_compiled_event_is_clamped_into_the_window(parts, seed):
    """Property: whatever specs are composed — including correlated
    jitter, maintenance offsets, and cascade delays that overshoot the
    horizon — every event lands in [start_ns, end_ns) with its revert
    inside the window and instant kinds at duration 0."""
    ctx = ProfileContext(horizon_ns=50 * MS, links=CTX.links,
                         switches=CTX.switches, clocks=CTX.clocks,
                         start_ns=10 * MS, seed=seed)
    composite = Compose(parts=tuple(parts))
    for event in composite.compile(ctx):
        assert ctx.start_ns <= event.at_ns < ctx.end_ns
        assert event.at_ns + event.duration_ns <= ctx.end_ns
        if event.kind in INSTANT_KINDS:
            assert event.duration_ns == 0
        assert event.kind in FAULT_KINDS
