"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import MS, NS, S, Simulator, US


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_run_in_scheduling_order(self, sim):
        order = []
        for tag in "abcde":
            sim.schedule(100, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_schedule_from_within_callback(self, sim):
        order = []

        def first():
            order.append(("first", sim.now))
            sim.schedule(5, second)

        def second():
            order.append(("second", sim.now))

        sim.schedule(10, first)
        sim.run()
        assert order == [("first", 10), ("second", 15)]

    def test_zero_delay_runs_after_current_event(self, sim):
        order = []

        def outer():
            sim.schedule(0, order.append, "inner")
            order.append("outer")

        sim.schedule(1, outer)
        sim.run()
        assert order == ["outer", "inner"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_integral_float_delay_rounds_exactly(self, sim):
        # 2.0 is an exact nanosecond count: accepted, never truncated.
        seen = []
        sim.schedule(2.0, lambda: seen.append(sim.now))  # statics: allow[SIM001] exercises exact_ns integral-float acceptance
        sim.run()
        assert seen == [2]

    def test_fractional_delay_rejected(self, sim):
        # Silent truncation (int(2.7) == 2) used to reorder events; a
        # fractional nanosecond is now a hard error.
        with pytest.raises(ValueError, match="integral nanosecond"):
            sim.schedule(2.7, lambda: None)  # statics: allow[SIM001] exercises exact_ns fractional rejection

    def test_fractional_schedule_at_rejected(self, sim):
        with pytest.raises(ValueError, match="integral nanosecond"):
            sim.schedule_at(10.5, lambda: None)  # statics: allow[SIM001] exercises exact_ns fractional rejection

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_nan_and_infinite_delays_rejected_by_name(self, sim, value):
        # int(nan) used to raise an unnamed ValueError, int(inf) an
        # OverflowError.
        with pytest.raises(ValueError, match="delay=.*integral nanosecond"):
            sim.schedule(value, lambda: None)
        with pytest.raises(ValueError, match="time=.*integral nanosecond"):
            sim.schedule_at(value, lambda: None)

    def test_integral_float_schedule_at_exact(self, sim):
        seen = []
        sim.schedule_at(1e9, lambda: seen.append(sim.now))  # statics: allow[SIM001] exercises exact_ns integral-float acceptance
        sim.run()
        assert seen == [1_000_000_000]

    def test_huge_integral_float_roundtrips_exactly(self, sim):
        # 2**53 is representable; 2**53 + 1 is not (would silently land
        # on a neighbouring nanosecond under truncation).
        seen = []
        sim.schedule_at(float(2 ** 53), lambda: seen.append(sim.now))  # statics: allow[SIM001] exercises exact_ns float-precision boundary
        sim.run()
        assert seen == [2 ** 53]

    def test_non_numeric_delay_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.schedule("10", lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_args_passed_through(self, sim):
        seen = []
        sim.schedule(1, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self, sim):
        keep = sim.schedule(10, lambda: None)
        drop = sim.schedule(20, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0


class TestRunLimits:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(10, fired.append, "early")
        sim.schedule(100, fired.append, "late")
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50  # clock advances to the bound
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_inclusive(self, sim):
        fired = []
        sim.schedule(50, fired.append, "on-time")
        sim.run(until=50)
        assert fired == ["on-time"]

    def test_max_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(i + 1, fired.append, i)
        assert sim.run(max_events=3) == 3
        assert fired == [0, 1, 2]

    def test_max_events_leaves_now_behind_pending_events(self, sim):
        # A run stopped by ``max_events`` with events at or before
        # ``until`` still pending must not move ``now`` to ``until``: the
        # rest would then run with time going backwards, and a new event
        # would land behind them.
        fired, times = [], []
        for time in (10, 20, 30, 40):
            sim.schedule_at(time, fired.append, time)
        assert sim.run(until=100, max_events=2) == 2
        assert sim.now == 20
        sim.schedule(5, fired.append, 25)
        sim.trace = lambda time, seq, fn: times.append(time)
        sim.run(until=100)
        assert fired == [10, 20, 25, 30, 40]
        assert times == [25, 30, 40]
        assert sim.now == 100

    def test_step(self, sim):
        fired = []
        sim.schedule(1, fired.append, "a")
        sim.schedule(2, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_run_not_reentrant(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1, reenter)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_events_run_counter(self, sim):
        for i in range(4):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_run == 4

    def test_peek_time_skips_cancelled(self, sim):
        first = sim.schedule(5, lambda: None)
        sim.schedule(9, lambda: None)
        first.cancel()
        assert sim.peek_time() == 9


class TestCancellationBookkeeping:
    """The cancellation side table and its compaction bounds."""

    def test_pending_count_and_cancelled_count(self, sim):
        handles = [sim.schedule(i + 1, lambda: None) for i in range(10)]
        assert sim.pending == 10
        assert len(sim._cancelled) == 0
        handles[0].cancel()
        handles[5].cancel()
        assert sim.pending == 8
        assert len(sim._cancelled) == 2

    def test_cancel_after_fire_does_not_pollute_side_table(self, sim):
        first = sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        sim.run(until=1)
        first.cancel()  # already fired: must be an exact no-op
        assert len(sim._cancelled) == 0
        assert sim.pending == 1

    def test_cancel_churn_does_not_leak(self, sim):
        """Schedule-then-cancel churn must not grow the heap without
        bound: compaction keeps cancelled entries at under half the
        heap (above the small-heap threshold)."""
        from repro.sim.engine import _COMPACT_MIN_CANCELLED

        live = [sim.schedule(10 * S + i, lambda: None) for i in range(8)]
        for i in range(10_000):
            sim.schedule(1_000 + i % 97, lambda: None).cancel()
            assert (len(sim._cancelled) < _COMPACT_MIN_CANCELLED
                    or 2 * len(sim._cancelled) < len(sim._heap))
        assert sim.compactions > 0
        # Bound: live entries + the compaction trigger's slack.
        assert len(sim._heap) <= 2 * max(len(live),
                                         _COMPACT_MIN_CANCELLED) + 1
        assert sim.pending == len(live)
        assert sim.run() == len(live)

    def test_compaction_from_within_callback_is_safe(self, sim):
        """A compaction triggered while ``run`` iterates must not orphan
        the loop's heap reference (compaction mutates in place)."""
        from repro.sim.engine import _COMPACT_MIN_CANCELLED

        fired = []

        def churn() -> None:
            for _ in range(2 * _COMPACT_MIN_CANCELLED):
                sim.schedule(100, lambda: None).cancel()

        sim.schedule(1, churn)
        sim.schedule(200, fired.append, "late")
        sim.run()
        assert fired == ["late"]
        assert sim.compactions > 0

    def test_schedule_fast_shares_seq_counter(self, sim):
        """Fast-path and validated scheduling interleave with FIFO
        tie-breaking preserved (one seq per call, in call order)."""
        order = []
        sim.schedule(5, order.append, "a")
        sim.schedule_fast(5, order.append, "b")
        sim.schedule(5, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_trace_hook_sees_every_event(self, sim):
        seen = []
        sim.trace = lambda time, seq, fn: seen.append((time, seq))
        sim.schedule(3, lambda: None)
        sim.schedule_fast(1, lambda: None)
        skipped = sim.schedule(2, lambda: None)
        skipped.cancel()
        sim.run()
        assert seen == [(1, 1), (3, 0)]


class TestTimeConstants:
    def test_unit_relationships(self):
        assert US == 1_000 * NS
        assert MS == 1_000 * US
        assert S == 1_000 * MS


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                max_size=50))
def test_property_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


class TestSeqHandles:
    """``schedule_fast`` hands back its seq: cancel by it, or place an
    event just before it in the tie-break order (the fused hop)."""

    def test_cancel_the_seq_schedule_fast_returned(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule_fast(10, fired.append, "keep")
        drop = sim.schedule_fast(10, fired.append, "drop")
        assert drop == keep + 1
        sim.cancel(drop)
        assert sim.pending == 1
        sim.run()
        assert fired == ["keep"]
        assert len(sim._cancelled) == 0

    def test_schedule_fast_at_orders_before_its_anchor(self):
        sim = Simulator()
        fired = []
        sim.schedule_fast(10, fired.append, "earlier")
        anchor = sim.schedule_fast(20, fired.append, "anchor")
        sim.schedule_fast(10, fired.append, "later")
        sim.schedule_fast_at(anchor - 0.5, 10, fired.append, "placed")
        sim.run()
        assert fired == ["earlier", "placed", "later", "anchor"]
