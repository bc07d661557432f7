"""Tests pinning the pipeline inventory to the Table 1 compute rows."""

import pytest

from repro.experiments.table1 import PAPER_TABLE1
from repro.resources import PIPELINE, Variant, estimate, tables_for, totals_for


class TestInventoryMatchesTable1:
    """The structural inventory must sum to the published counts, and
    the model reports its sums, for every variant."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_totals_agree_with_model(self, variant):
        totals = totals_for(variant)
        assert totals == {row: PAPER_TABLE1[variant][row] for row in totals}
        report = estimate(variant, ports=14)
        assert {row: getattr(report, row) for row in totals} == totals


class TestInventoryStructure:
    def test_variants_monotonically_add_tables(self):
        pc = {t.name + t.plane for t in tables_for(Variant.PACKET_COUNT)}
        wa = {t.name + t.plane for t in tables_for(Variant.WRAP_AROUND)}
        cs = {t.name + t.plane for t in tables_for(Variant.CHANNEL_STATE)}
        assert pc < wa < cs

    def test_stage_order_respects_dependencies(self):
        """The snapshot-ID comparison must see the parsed header, and
        capture must follow comparison — the sequential dependencies that
        force 10-12 physical stages (§7.1)."""
        for variant in Variant:
            tables = {(t.plane, t.name): t.stage for t in tables_for(variant)}
            assert tables[("ingress", "parse_snapshot_header")] < \
                tables[("ingress", "compare_packet_local_id")] < \
                tables[("ingress", "capture_snapshot_value")]
            assert tables[("egress", "check_header_present")] < \
                tables[("egress", "compare_packet_local_id")] < \
                tables[("egress", "capture_snapshot_value")]

    def test_ingress_precedes_egress_stages(self):
        for table in PIPELINE:
            if table.plane == "ingress":
                assert table.stage <= 4
            else:
                assert table.stage >= 5

    def test_channel_state_tables_occupy_the_two_extra_stages(self):
        extra = [t for t in PIPELINE if t.min_variant is Variant.CHANNEL_STATE]
        assert {t.stage for t in extra} == {10, 11}


class TestRegisterArrays:
    def test_channel_state_adds_last_seen(self):
        pc = {t.name for t in tables_for(Variant.PACKET_COUNT)}
        cs = {t.name for t in tables_for(Variant.CHANNEL_STATE)}
        assert cs - pc >= {"update_last_seen", "credit_channel_state"}

    def test_register_bytes_grow_with_ports_and_variant(self):
        assert estimate(Variant.PACKET_COUNT, 64).sram_kb > \
            estimate(Variant.PACKET_COUNT, 14).sram_kb
        assert estimate(Variant.CHANNEL_STATE, 64).sram_kb > \
            estimate(Variant.WRAP_AROUND, 64).sram_kb

    def test_register_footprint_consistent_with_calibrated_slope(self):
        """Without channel state the per-port SRAM slope is the value
        arrays' sizing, two units x 256 x 32-bit slots = 2 KB, to within
        a factor of ~2 (match-action overheads account for the rest);
        the per-neighbor Last Seen array makes channel state steeper."""
        slopes = {variant: (estimate(variant, 64).sram_kb
                            - estimate(variant, 14).sram_kb) / 50
                  for variant in Variant}
        raw_slope_kb = 2 * 256 * 4 / 1024
        for variant in (Variant.PACKET_COUNT, Variant.WRAP_AROUND):
            assert 0.5 <= raw_slope_kb / slopes[variant] <= 2.0, variant
        assert slopes[Variant.CHANNEL_STATE] > slopes[Variant.WRAP_AROUND]
