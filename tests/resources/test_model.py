"""Tests pinning the Table 1 resource model to the paper's numbers."""

import pytest

from repro.resources import TOFINO_1, Variant, estimate


class TestPublishedNumbers:
    """Every number the paper publishes must be reproduced exactly."""

    @pytest.mark.parametrize("variant,expected", [
        (Variant.PACKET_COUNT, dict(stateless_alus=17, stateful_alus=9,
                                    table_ids=27, gateways=15, stages=10,
                                    sram_kb=606, tcam_kb=42)),
        (Variant.WRAP_AROUND, dict(stateless_alus=19, stateful_alus=9,
                                   table_ids=35, gateways=19, stages=10,
                                   sram_kb=671, tcam_kb=59)),
        (Variant.CHANNEL_STATE, dict(stateless_alus=24, stateful_alus=11,
                                     table_ids=37, gateways=19, stages=12,
                                     sram_kb=770, tcam_kb=244)),
    ])
    def test_64_port_table(self, variant, expected):
        report = estimate(variant, ports=64)
        for attr, value in expected.items():
            assert getattr(report, attr) == pytest.approx(value), attr

    def test_14_port_channel_state_configuration(self):
        report = estimate(Variant.CHANNEL_STATE, ports=14)
        assert report.sram_kb == pytest.approx(638, abs=1)
        assert report.tcam_kb == pytest.approx(90, abs=1)

    def test_under_25_percent_of_dedicated_resources(self):
        for variant in Variant:
            report = estimate(variant, ports=64)
            assert max(report.utilization(TOFINO_1).values()) < 0.25


class TestModelShape:
    def test_memory_monotone_in_ports(self):
        for variant in Variant:
            previous = 0.0
            for ports in (1, 8, 16, 32, 64):
                report = estimate(variant, ports)
                assert report.sram_kb > previous
                previous = report.sram_kb

    def test_logic_independent_of_ports(self):
        small = estimate(Variant.CHANNEL_STATE, 4)
        large = estimate(Variant.CHANNEL_STATE, 64)
        assert small.stateless_alus == large.stateless_alus
        assert small.stages == large.stages

    def test_variants_strictly_ordered_in_cost(self):
        pc = estimate(Variant.PACKET_COUNT, 64)
        wa = estimate(Variant.WRAP_AROUND, 64)
        cs = estimate(Variant.CHANNEL_STATE, 64)
        assert pc.sram_kb < wa.sram_kb < cs.sram_kb
        assert pc.tcam_kb < wa.tcam_kb < cs.tcam_kb
        assert pc.stateless_alus < wa.stateless_alus < cs.stateless_alus

    def test_port_range_validated(self):
        with pytest.raises(ValueError):
            estimate(Variant.PACKET_COUNT, 0)
        with pytest.raises(ValueError):
            estimate(Variant.PACKET_COUNT, 65)

    def test_fits_tofino(self):
        for variant in Variant:
            report = estimate(variant, 64)
            assert report.stages <= TOFINO_1.stages
            assert max(report.utilization(TOFINO_1).values()) <= 1.0

    def test_fits_respects_budget(self):
        report = estimate(Variant.CHANNEL_STATE, 64)
        assert max(report.utilization(TOFINO_1).values()) > 0.01
