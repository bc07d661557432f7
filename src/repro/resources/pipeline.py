"""Structural inventory of the Speedlight P4 pipeline.

The match-action tables each variant compiles, with per-table resource
annotations, laid out over physical stages exactly as the logical
pipelines of Figures 4 and 5 require ("the prototype utilizes 10 to 12
physical processing stages ... to satisfy sequential dependencies in
its control flow", §7.1).

The inventory is the one source of the *computational and
control-flow* rows of Table 1: :func:`~repro.resources.model.estimate`
reports the sums of its annotations (:func:`totals_for`), which the
tests hold to the published ALU/table/gateway/stage counts for every
variant.  Memory sizing lives in :mod:`.model` (calibrated totals).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Variant(enum.Enum):
    """The three data-plane builds of Table 1."""

    PACKET_COUNT = "packet_count"          # plain counters, no rollover
    WRAP_AROUND = "wrap_around"            # + snapshot-ID rollover support
    CHANNEL_STATE = "channel_state"        # + in-flight channel state

    @property
    def label(self) -> str:
        return {
            Variant.PACKET_COUNT: "Packet Count",
            Variant.WRAP_AROUND: "+ Wrap Around",
            Variant.CHANNEL_STATE: "+ Chnl. State",
        }[self]


#: Order of strictly-increasing capability, for inclusion filtering.
_VARIANT_LEVEL = {
    Variant.PACKET_COUNT: 0,
    Variant.WRAP_AROUND: 1,
    Variant.CHANNEL_STATE: 2,
}


@dataclass(frozen=True)
class PipelineTable:
    """One logical match-action table of the Speedlight program."""

    name: str
    plane: str           # "ingress" or "egress"
    stage: int           # physical stage the compiler placed it in
    table_ids: int       # logical table IDs consumed
    gateways: int        # conditional table gateways
    stateless_alus: int  # VLIW action-slot operations
    stateful_alus: int   # register-array operations
    #: Minimum variant that compiles this table in.
    min_variant: Variant = Variant.PACKET_COUNT

    def included_in(self, variant: Variant) -> bool:
        return _VARIANT_LEVEL[variant] >= _VARIANT_LEVEL[self.min_variant]


#: The full program: Figures 4 (ingress) and 5 (egress) as compiled
#: tables.  The base build is the Packet Count variant; wraparound adds
#: rollover-detection logic in the comparison stages; channel state adds
#: two more stages for the Last Seen array and in-flight crediting.
PIPELINE: list[PipelineTable] = [
    # ----- ingress (Figure 4) -----
    PipelineTable("parse_snapshot_header", "ingress", 0, 2, 1, 2, 0),
    PipelineTable("update_counter", "ingress", 1, 1, 0, 1, 1),
    PipelineTable("read_snapshot_id", "ingress", 1, 1, 0, 0, 1),
    PipelineTable("compare_packet_local_id", "ingress", 2, 3, 3, 2, 0),
    PipelineTable("rollover_detect", "ingress", 2, 2, 2, 1, 0,
                  Variant.WRAP_AROUND),
    PipelineTable("rollover_window", "ingress", 2, 2, 0, 0, 0,
                  Variant.WRAP_AROUND),
    PipelineTable("capture_snapshot_value", "ingress", 3, 2, 1, 1, 1),
    PipelineTable("update_snapshot_id", "ingress", 3, 1, 1, 1, 1),
    PipelineTable("clone_notify_cpu", "ingress", 4, 2, 1, 1, 1),
    PipelineTable("forward_initiation", "ingress", 4, 2, 1, 1, 0),
    # ----- egress (Figure 5) -----
    PipelineTable("check_header_present", "egress", 5, 2, 1, 1, 0),
    PipelineTable("update_counter", "egress", 6, 1, 0, 1, 1),
    PipelineTable("read_snapshot_id", "egress", 6, 1, 0, 0, 1),
    PipelineTable("compare_packet_local_id", "egress", 7, 3, 3, 2, 0),
    PipelineTable("rollover_detect", "egress", 7, 2, 2, 1, 0,
                  Variant.WRAP_AROUND),
    PipelineTable("rollover_window", "egress", 7, 2, 0, 0, 0,
                  Variant.WRAP_AROUND),
    PipelineTable("capture_snapshot_value", "egress", 8, 2, 1, 1, 1),
    PipelineTable("update_snapshot_id", "egress", 8, 1, 1, 1, 1),
    PipelineTable("remove_header_to_host", "egress", 9, 2, 1, 1, 0),
    PipelineTable("notify_cpu", "egress", 9, 1, 0, 1, 0),
    # ----- channel-state extension (two extra physical stages) -----
    PipelineTable("update_last_seen", "egress", 10, 1, 0, 2, 1,
                  Variant.CHANNEL_STATE),
    PipelineTable("credit_channel_state", "egress", 11, 1, 0, 3, 1,
                  Variant.CHANNEL_STATE),
]


def tables_for(variant: Variant) -> list[PipelineTable]:
    """The tables the given variant compiles, in stage order."""
    return sorted((t for t in PIPELINE if t.included_in(variant)),
                  key=lambda t: (t.stage, t.plane, t.name))


def totals_for(variant: Variant) -> dict[str, int]:
    """Aggregate computational/control-flow totals for a variant: the
    top five rows of Table 1."""
    tables = tables_for(variant)
    return {
        "table_ids": sum(t.table_ids for t in tables),
        "gateways": sum(t.gateways for t in tables),
        "stateless_alus": sum(t.stateless_alus for t in tables),
        "stateful_alus": sum(t.stateful_alus for t in tables),
        "stages": len({t.stage for t in tables}),
    }
