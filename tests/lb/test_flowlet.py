"""Tests for flowlet switching."""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.lb import FlowletBalancer, FlowletConfig
from repro.sim.engine import US
from repro.sim.packet import FlowKey, Packet


def _pkt(sport=1000):
    return Packet(flow=FlowKey("a", "b", sport, 80))


class TestFlowletBalancer:
    def test_packets_within_timeout_stick_to_member(self):
        lb = FlowletBalancer(FlowletConfig(timeout_ns=50 * US))
        first = lb.select([0, 1], _pkt(), now_ns=0)
        for t in range(1, 50):
            assert lb.select([0, 1], _pkt(), now_ns=t * US) == first
        assert lb.flowlets_started == 1

    def test_gap_beyond_timeout_starts_new_flowlet(self):
        lb = FlowletBalancer(FlowletConfig(timeout_ns=50 * US))
        lb.select([0, 1], _pkt(), now_ns=0)
        lb.select([0, 1], _pkt(), now_ns=100 * US)
        assert lb.flowlets_started == 2

    def test_new_flowlets_rotate_members(self):
        lb = FlowletBalancer(FlowletConfig(timeout_ns=10 * US))
        picks = [lb.select([0, 1, 2], _pkt(), now_ns=i * 100 * US)
                 for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_rotation_balances_better_than_random(self):
        lb = FlowletBalancer(FlowletConfig(timeout_ns=1))
        counts = Counter(lb.select([0, 1], _pkt(sport), now_ns=sport * US)
                         for sport in range(1000, 1100))
        assert abs(counts[0] - counts[1]) <= 1

    def test_stale_member_not_in_candidates_is_replaced(self):
        lb = FlowletBalancer(FlowletConfig(timeout_ns=10**9))
        first = lb.select([5], _pkt(), now_ns=0)
        assert first == 5
        # Same flow, different candidate set (e.g. route change).
        second = lb.select([7, 8], _pkt(), now_ns=1)
        assert second in (7, 8)

    def test_distinct_flows_use_distinct_entries(self):
        lb = FlowletBalancer(FlowletConfig(timeout_ns=10**9))
        a = lb.select([0, 1], _pkt(1000), now_ns=0)
        b = lb.select([0, 1], _pkt(1001), now_ns=0)
        assert lb.flowlets_started == 2
        assert lb.select([0, 1], _pkt(1000), now_ns=1) == a
        assert lb.select([0, 1], _pkt(1001), now_ns=1) == b

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FlowletBalancer(FlowletConfig(timeout_ns=-1))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**16),
                              st.integers(min_value=0, max_value=10**9)),
                    min_size=1, max_size=100))
    def test_property_selection_always_valid(self, events):
        with mock.patch("repro.lb.flowlet.FLOWLET_TABLE_SIZE", 64):
            lb = FlowletBalancer(FlowletConfig())
        candidates = [3, 5, 9]
        now = 0
        for sport, gap in sorted(events, key=lambda e: e[1]):
            now += gap
            assert lb.select(candidates, _pkt(sport), now) in candidates
