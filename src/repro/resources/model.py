"""Analytical resource model of the Speedlight P4 data plane.

Structure of the model (mirroring how the program actually consumes
Tofino resources):

* **Computational and control-flow resources** (ALUs, logical table IDs,
  gateways, stages) depend only on the program *logic* — i.e. the
  variant — not on port count: adding ports grows register arrays, not
  match-action logic.  They are summed from the compiled-table
  inventory, :func:`repro.resources.pipeline.totals_for`.
* **Memory** grows with the number of ports, because "the data plane
  must allocate larger register arrays and tables to store and address
  the per-port statistics" (§7.1).  We model SRAM/TCAM as
  ``fixed + per_port × ports``.  For the wraparound+channel-state
  variant both coefficients are pinned by the two published data points
  (64 ports → 770 KB SRAM / 244 KB TCAM; 14 ports → 638 KB / 90 KB).
  For the other two variants only the 64-port point is published; the
  per-port slope is estimated from register sizing (value arrays of
  ``max_sid`` 32-bit slots per unit; no per-neighbor Last Seen array,
  which is what makes the channel-state slope much steeper) and the
  fixed part is back-computed so the 64-port total matches Table 1
  exactly.

Capacities in :data:`TOFINO_1` are public-knowledge approximations of a
first-generation Tofino pipe, included so that
:meth:`ResourceReport.utilization` can reproduce the paper's "less than
25% of any given type of dedicated resource" claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resources.pipeline import Variant, totals_for


@dataclass(frozen=True)
class _VariantModel:
    sram_per_port_kb: float
    sram_fixed_kb: float
    tcam_per_port_kb: float
    tcam_fixed_kb: float


def _fit_fixed(total_at_64: float, per_port: float) -> float:
    """Back-compute the fixed memory so the 64-port total is exact."""
    return total_at_64 - 64 * per_port


# Channel-state slopes are exact fits of the two published points:
#   SRAM: (770 - 638) / (64 - 14) = 2.64 KB/port
#   TCAM: (244 -  90) / (64 - 14) = 3.08 KB/port
_CS_SRAM_SLOPE = (770.0 - 638.0) / (64 - 14)
_CS_TCAM_SLOPE = (244.0 - 90.0) / (64 - 14)

# Non-channel-state slopes, estimated from register sizing: per port, the
# program keeps two units x (snapshot value array of 256 x 32-bit slots +
# id/counter registers + notification mirror entries) ≈ 2 KB of SRAM; the
# wraparound build widens comparisons slightly.  TCAM holds per-port
# classification entries only.
_PC_SRAM_SLOPE = 2.0
_WA_SRAM_SLOPE = 2.2
_PC_TCAM_SLOPE = 0.40
_WA_TCAM_SLOPE = 0.55

_MODELS: dict[Variant, _VariantModel] = {
    Variant.PACKET_COUNT: _VariantModel(
        sram_per_port_kb=_PC_SRAM_SLOPE,
        sram_fixed_kb=_fit_fixed(606.0, _PC_SRAM_SLOPE),
        tcam_per_port_kb=_PC_TCAM_SLOPE,
        tcam_fixed_kb=_fit_fixed(42.0, _PC_TCAM_SLOPE)),
    Variant.WRAP_AROUND: _VariantModel(
        sram_per_port_kb=_WA_SRAM_SLOPE,
        sram_fixed_kb=_fit_fixed(671.0, _WA_SRAM_SLOPE),
        tcam_per_port_kb=_WA_TCAM_SLOPE,
        tcam_fixed_kb=_fit_fixed(59.0, _WA_TCAM_SLOPE)),
    Variant.CHANNEL_STATE: _VariantModel(
        sram_per_port_kb=_CS_SRAM_SLOPE,
        sram_fixed_kb=_fit_fixed(770.0, _CS_SRAM_SLOPE),
        tcam_per_port_kb=_CS_TCAM_SLOPE,
        tcam_fixed_kb=_fit_fixed(244.0, _CS_TCAM_SLOPE)),
}


@dataclass(frozen=True)
class TofinoCapacity:
    """Approximate per-pipe resource capacities of a Tofino-1 ASIC.

    Public approximations (Bosshart et al. RMT numbers and vendor
    disclosures); used only for utilization fractions.
    """

    stateless_alus: int = 120     # ~10 VLIW action slots per stage
    stateful_alus: int = 48       # 4 stateful ALUs per stage
    table_ids: int = 192          # 16 logical IDs per stage
    gateways: int = 192
    stages: int = 12
    sram_kb: int = 9_600          # 80 blocks x 10 x 128 Kb per stage
    tcam_kb: int = 2_880          # 24 blocks x 44 x 512 b per stage


TOFINO_1 = TofinoCapacity()


@dataclass(frozen=True)
class ResourceReport:
    """Resource usage of one Speedlight build (one Table 1 column)."""

    variant: Variant
    ports: int
    stateless_alus: int
    stateful_alus: int
    table_ids: int
    gateways: int
    stages: int
    sram_kb: float
    tcam_kb: float

    def utilization(self, capacity: TofinoCapacity = TOFINO_1) -> dict[str, float]:
        """Fraction of each dedicated resource consumed."""
        return {
            "stateless_alus": self.stateless_alus / capacity.stateless_alus,
            "stateful_alus": self.stateful_alus / capacity.stateful_alus,
            "table_ids": self.table_ids / capacity.table_ids,
            "gateways": self.gateways / capacity.gateways,
            "sram": self.sram_kb / capacity.sram_kb,
            "tcam": self.tcam_kb / capacity.tcam_kb,
        }


def estimate(variant: Variant, ports: int = 64) -> ResourceReport:
    """Resource usage of ``variant`` configured for ``ports``-port
    snapshots (64 is the per-pipe maximum on the Wedge100BF, §7.1)."""
    if not 1 <= ports <= 64:
        raise ValueError("a single Tofino processing engine supports "
                         f"1..64 ports, got {ports}")
    m = _MODELS[variant]
    return ResourceReport(
        variant=variant, ports=ports, **totals_for(variant),
        sram_kb=round(m.sram_fixed_kb + m.sram_per_port_kb * ports, 1),
        tcam_kb=round(m.tcam_fixed_kb + m.tcam_per_port_kb * ports, 1))
