"""Tests for drifting clocks and the PTP synchronisation service."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import Clock, PTPConfig, PTPService
from repro.sim.engine import S, Simulator


class TestClock:
    def test_perfect_clock_is_identity(self):
        clock = Clock()
        for t in (0, 123, 10**12):
            assert clock.local_time(t) == t

    def test_offset_shifts_local_time(self):
        clock = Clock(offset_ns=500)
        assert clock.local_time(1000) == 1500
        assert clock.local_time(1000) - 1000 == 500

    def test_drift_accumulates(self):
        clock = Clock(drift_ppb=1_000_000)  # 0.1% fast
        assert clock.local_time(1_000_000) == 1_001_000

    def test_negative_drift(self):
        clock = Clock(drift_ppb=-1_000_000)
        assert clock.local_time(1_000_000) == 999_000

    def test_resync_zeroes_accumulated_drift(self):
        clock = Clock(drift_ppb=50_000)
        clock.resync(true_ns=10**9, residual_error_ns=0)
        assert clock.local_time(10**9) == 10**9
        # Drift resumes from the sync point.
        assert clock.local_time(10**9 + 10**6) == 10**9 + 10**6 + 50

    def test_resync_residual_becomes_offset(self):
        clock = Clock()
        clock.resync(true_ns=100, residual_error_ns=-7)
        assert clock.local_time(100) - 100 == -7

    @given(st.integers(min_value=-40_000_000, max_value=40_000_000),
           st.integers(min_value=-10_000, max_value=10_000),
           st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**12))
    def test_property_true_time_exactly_inverts_local_time(
            self, drift, offset, t, sync_point):
        """``true_time`` is the exact inverse of ``local_time`` on its
        image for *signed* drift: it returns the greatest true time
        mapping at or below the reading.  (The naive algebraic inverse
        floor-divides with a different denominator than the forward map
        and lands 1 ns off for some negative drifts.)"""
        clock = Clock(drift_ppb=drift, offset_ns=offset)
        clock.sync_point_ns = sync_point
        local = clock.local_time(t)
        recovered = clock.true_time(local)
        assert clock.local_time(recovered) == local
        assert clock.local_time(recovered + 1) > local
        assert recovered >= t  # greatest preimage, never an earlier one

    @given(st.integers(min_value=-40_000_000, max_value=40_000_000),
           st.integers(min_value=-10_000, max_value=10_000),
           st.integers(min_value=0, max_value=10**9))
    def test_property_true_time_monotone_in_local(self, drift, offset, local):
        clock = Clock(drift_ppb=drift, offset_ns=offset)
        assert clock.true_time(local) <= clock.true_time(local + 1)


class TestPTPService:
    def _service(self, config=None):
        sim = Simulator()
        return sim, PTPService(sim, random.Random(7), config)

    def test_attach_creates_clock_with_drift_in_range(self):
        _sim, ptp = self._service(PTPConfig(drift_ppb_min=-5, drift_ppb_max=5))
        clock = ptp.attach("sw0")
        assert -5 <= clock.drift_ppb <= 5

    def test_attach_duplicate_rejected(self):
        _sim, ptp = self._service()
        ptp.attach("sw0")
        with pytest.raises(ValueError):
            ptp.attach("sw0")

    def test_start_disciplines_all_clocks(self):
        sim, ptp = self._service(PTPConfig(residual_max_ns=100))
        clocks = [ptp.attach(f"sw{i}") for i in range(4)]
        ptp.start()
        for clock in clocks:
            assert abs(clock.local_time(sim.now) - sim.now) <= 100

    def test_attach_after_start_is_disciplined(self):
        sim, ptp = self._service(PTPConfig(residual_max_ns=100))
        ptp.start()
        late = ptp.attach("late")
        assert abs(late.local_time(sim.now) - sim.now) <= 100

    def test_periodic_resync_bounds_error(self):
        config = PTPConfig(sync_interval_ns=1 * S, residual_max_ns=8_000,
                           drift_ppb_min=-40_000, drift_ppb_max=40_000)
        sim, ptp = self._service(config)
        clock = ptp.attach("sw0")
        ptp.start()
        sim.run(until=10 * S)
        # Worst case: residual clamp + one interval of max drift.
        max_err = config.residual_max_ns + 40_000  # 40us/s * 1s = 40us... ppb
        assert abs(clock.local_time(sim.now) - sim.now) <= \
            config.residual_max_ns + \
            abs(clock.drift_ppb) * config.sync_interval_ns // 10**9 + 1

    def test_residual_sampling_respects_clamp(self):
        _sim, ptp = self._service(PTPConfig(residual_sigma_ns=1_000,
                                            residual_max_ns=5_000))
        for _ in range(500):
            assert abs(ptp.sample_residual()) <= 5_000

    def test_pairwise_spread_reflects_offsets(self):
        sim, ptp = self._service()
        ptp.attach("a", Clock(offset_ns=10))
        ptp.attach("b", Clock(offset_ns=-15))
        readings = [clock.local_time(sim.now) for clock in ptp.clocks.values()]
        assert max(readings) - min(readings) == 25


class TestPTPConfig:
    @pytest.mark.parametrize("field, bad, good", [
        ("sync_interval_ns", 0, 1), ("residual_sigma_ns", -1, 0),
        ("residual_max_ns", -1, 0), ("tail_probability", -0.01, 0.0),
        ("tail_probability", 1.01, 1.0), ("drift_ppb_min", 40_001, 40_000),
        ("drift_ppb_max", -40_001, -40_000)])
    def test_refuses_each_bad_field(self, field, bad, good):
        # sync_interval_ns=0 used to hang Network.run at t=0; a drift
        # range with min > max failed deep inside the build.
        with pytest.raises(ValueError, match=f"PTPConfig.{field}"):
            PTPConfig(**{field: bad})
        PTPConfig(**{field: good})
