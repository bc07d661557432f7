"""Tests for per-epoch fault attribution (audit log -> spans -> epochs)."""

import pytest

from repro.faults import FaultSpan, attribute_epochs, spans_from_log
from repro.faults.injector import InjectionRecord
from repro.sim.engine import MS


def _rec(time_ns, action, kind="link_down", target="a-b"):
    return InjectionRecord(time_ns=time_ns, action=action, kind=kind,
                           target=target)


class TestSpansFromLog:
    def test_pairs_apply_and_revert(self):
        spans = spans_from_log([_rec(100, "apply"), _rec(500, "revert")])
        assert spans == [FaultSpan(kind="link_down", target="a-b",
                                   start_ns=100, end_ns=500)]

    def test_fifo_pairing_for_recurring_faults(self):
        # The same fault twice on the same target: reverts match the
        # *earliest* open apply, reconstructing the true intervals.
        spans = spans_from_log([
            _rec(100, "apply"), _rec(200, "apply"),
            _rec(300, "revert"), _rec(900, "revert"),
        ])
        assert [(s.start_ns, s.end_ns) for s in spans] == [(100, 300),
                                                           (200, 900)]

    def test_unreverted_fault_is_an_open_span(self):
        spans = spans_from_log([_rec(100, "apply")])
        assert spans == [FaultSpan(kind="link_down", target="a-b",
                                   start_ns=100, end_ns=None)]

    def test_distinct_targets_do_not_cross_pair(self):
        spans = spans_from_log([
            _rec(100, "apply", target="a-b"),
            _rec(150, "apply", target="b-c"),
            _rec(200, "revert", target="b-c"),
        ])
        by_target = {s.target: s for s in spans}
        assert by_target["a-b"].end_ns is None
        assert by_target["b-c"].end_ns == 200

    def test_revert_without_apply_rejected(self):
        with pytest.raises(ValueError, match="revert without apply"):
            spans_from_log([_rec(100, "revert")])

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown log action"):
            spans_from_log([_rec(100, "flap")])

    def test_out_of_order_log_is_sorted_first(self):
        spans = spans_from_log([_rec(500, "revert"), _rec(100, "apply")])
        assert spans == [FaultSpan(kind="link_down", target="a-b",
                                   start_ns=100, end_ns=500)]


class TestFaultSpanOverlap:
    def test_closed_span_overlap(self):
        span = FaultSpan(kind="link_down", target="a-b",
                         start_ns=100, end_ns=200)
        assert span.overlaps(150, 300)
        assert span.overlaps(0, 100)      # touches at the start edge
        assert span.overlaps(200, 400)    # touches at the end edge
        assert not span.overlaps(201, 400)
        assert not span.overlaps(0, 99)

    def test_open_span_overlaps_everything_after_start(self):
        span = FaultSpan(kind="cp_crash", target="sw0", start_ns=100)
        assert span.overlaps(500, 600)
        assert not span.overlaps(0, 99)

    def test_instant_span_counts_inside_window(self):
        span = FaultSpan(kind="clock_step", target="sw0",
                         start_ns=150, end_ns=150)
        assert span.overlaps(100, 200)
        assert not span.overlaps(160, 200)


class TestAttributeEpochs:
    def _snapshots(self):
        # Two real campaign epochs from a faulted leaf-spine run keep
        # this honest without hand-building GlobalSnapshot internals.
        from repro.core import deploy
        from repro.faults import CorrelatedGroup, FaultInjector, \
            ProfileContext
        from repro.sim.network import Network, NetworkConfig
        from repro.topology import leaf_spine
        from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

        topo = leaf_spine(hosts_per_leaf=1)
        ctx = ProfileContext.for_topology(topo, horizon_ns=20 * MS,
                                          start_ns=10 * MS, seed=11)
        schedule = CorrelatedGroup(switch="spine0", at_ns=17 * MS,
                                   duration_ns=2 * MS).compile(ctx)
        network = Network(topo, NetworkConfig(seed=11))
        stop_ns = 150 * MS
        PoissonWorkload(network, PoissonConfig(
            seed=12, rate_pps=5_000.0, stop_ns=stop_ns)).start()
        deployment = deploy(network, metric="packet_count", channel_state=True)
        injector = FaultInjector(network, schedule, deployment=deployment)
        injector.arm()
        epochs = deployment.schedule_campaign(4, 5 * MS)
        network.run(until=stop_ns)
        snapshots = [deployment.observer.snapshot(e) for e in epochs]
        return injector, snapshots, stop_ns

    def test_overlapping_spans_attributed_to_the_right_epochs(self):
        injector, snapshots, stop_ns = self._snapshots()
        attribution = attribute_epochs(injector.log, snapshots,
                                       horizon_ns=stop_ns)
        assert [a.epoch for a in attribution] == sorted(
            s.epoch for s in snapshots)
        faulted = [a for a in attribution if a.faulted]
        assert faulted, "the 17ms group must overlap some epoch window"
        for a in faulted:
            for span in a.overlapping:
                assert span.overlaps(a.window_start_ns, a.window_end_ns)
        # Epochs whose windows closed before the fault stay clean.
        before = [a for a in attribution
                  if a.window_end_ns < 17 * MS]
        assert all(not a.faulted for a in before)

    def test_injector_attribution_convenience_matches(self):
        injector, snapshots, stop_ns = self._snapshots()
        direct = attribute_epochs(injector.log, snapshots,
                                  horizon_ns=stop_ns)
        via_method = injector.attribution(snapshots, horizon_ns=stop_ns)
        assert ([a.to_jsonable() for a in direct]
                == [a.to_jsonable() for a in via_method])

    def test_jsonable_shape(self):
        injector, snapshots, stop_ns = self._snapshots()
        for a in attribute_epochs(injector.log, snapshots,
                                  horizon_ns=stop_ns):
            data = a.to_jsonable()
            assert set(data) == {"epoch", "window_start_ns",
                                 "window_end_ns", "complete", "consistent",
                                 "excluded_devices", "retries",
                                 "overlapping"}
            for span in data["overlapping"]:
                assert set(span) == {"kind", "target", "start_ns", "end_ns"}
