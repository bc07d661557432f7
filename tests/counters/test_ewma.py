"""Tests for the two-phase EWMA counters (§8 of the paper)."""

from hypothesis import given, strategies as st

from repro.counters import EwmaInterarrival, EwmaPacketRate
from repro.sim.packet import FlowKey, Packet


def _pkt():
    return Packet(flow=FlowKey("a", "b", 1, 2))


def _feed(counter, times):
    for t in times:
        counter.update(_pkt(), t)


class TestEwmaInterarrival:
    def test_idle_counter_reads_zero(self):
        assert EwmaInterarrival().read() == 0

    def test_needs_a_full_pair_before_first_value(self):
        counter = EwmaInterarrival()
        _feed(counter, [1000, 2000])  # one interarrival only
        assert counter.read() == 0
        counter.update(_pkt(), 3000)  # completes the first pair
        assert counter.read() == 1000

    def test_constant_gaps_converge_to_gap(self):
        counter = EwmaInterarrival()
        _feed(counter, range(0, 100_000, 500)[1:])
        assert counter.read() == 500

    def test_seeding_uses_first_pair_average(self):
        # A zero timestamp is the hardware "uninitialized" sentinel, so
        # sequences start at t > 0.
        counter = EwmaInterarrival()
        _feed(counter, [10, 110, 310])  # interarrivals 100, 200
        assert counter.read() == 150

    def test_decay_half_per_pair(self):
        counter = EwmaInterarrival()
        _feed(counter, [10, 110, 210])     # seeded at 100
        _feed(counter, [510, 610])         # pair avg (300 + 100)/2 = 200
        assert counter.read() == 100 // 2 + 200 // 2

    def test_two_phase_registers_exposed(self):
        counter = EwmaInterarrival()
        _feed(counter, [10, 110])
        assert counter.last_ts == 110
        assert counter.packet_count == 1
        assert counter.temp_ewma == 100

    @given(st.lists(st.integers(min_value=1, max_value=10**6),
                    min_size=4, max_size=60))
    def test_property_ewma_within_interarrival_range(self, gaps):
        """The EWMA is a convex-ish combination of observed interarrivals,
        so it must stay within [min gap - rounding, max gap]."""
        counter = EwmaInterarrival()
        t = 1
        counter.update(_pkt(), t)
        for gap in gaps:
            t += gap
            counter.update(_pkt(), t)
        if counter.read() == 0:
            return  # not enough pairs
        # Integer halving can lose at most ~2 per fold; allow small slack.
        assert counter.read() <= max(gaps)
        assert counter.read() >= min(gaps) // 2 - 2

    @given(st.integers(min_value=2, max_value=10**5))
    def test_property_constant_rate_is_fixed_point(self, gap):
        counter = EwmaInterarrival()
        t = 1
        for _ in range(21):
            counter.update(_pkt(), t)
            t += gap
        assert abs(counter.read() - gap) <= 2


class TestEwmaPacketRate:
    def test_idle_reads_zero(self):
        assert EwmaPacketRate().read() == 0

    def test_rate_is_inverse_of_gap(self):
        counter = EwmaPacketRate()
        t = 0
        for _ in range(20):
            counter.update(_pkt(), t)
            t += 1000  # 1 us gap -> 1M pps
        assert counter.read() == 1_000_000

    def test_faster_traffic_reads_higher(self):
        slow, fast = EwmaPacketRate(), EwmaPacketRate()
        for i in range(20):
            slow.update(_pkt(), i * 10_000)
            fast.update(_pkt(), i * 1_000)
        assert fast.read() > slow.read()
