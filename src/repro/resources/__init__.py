"""Tofino resource model for the Speedlight data plane (Table 1).

The original Table 1 is a compiler report; this package reproduces it
with an analytical model of the P4 program's resource consumption: the
compute rows summed from an inventory of the compiled tables, the memory
rows calibrated against every number the paper publishes (three
variants at 64 ports, plus the 14-port wraparound+channel-state
configuration).
"""

from repro.resources.model import (
    ResourceReport,
    TofinoCapacity,
    estimate,
    TOFINO_1,
)
from repro.resources.pipeline import (
    PIPELINE,
    PipelineTable,
    Variant,
    tables_for,
    totals_for,
)

__all__ = [
    "Variant",
    "ResourceReport",
    "TofinoCapacity",
    "estimate",
    "TOFINO_1",
    "PIPELINE",
    "PipelineTable",
    "tables_for",
    "totals_for",
]
