"""Table 1: resource usage of the Speedlight data plane on the Tofino.

Regenerates the paper's table (three variants at 64 ports) from the
analytical resource model, plus the 14-port wraparound+channel-state
configuration quoted in §7.1 (638 KB SRAM / 90 KB TCAM) and the "less
than 25% of any dedicated resource" utilization claim.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from collections.abc import Sequence

from repro.experiments import FIELD_BOUNDS, Experiment
from repro.experiments.harness import TextTable, header
from repro.resources import TOFINO_1, ResourceReport, Variant, estimate
from repro.runtime import TrialResult, TrialSpec, make_result, trial
from repro.sim.engine import check_minimums

#: The published Table 1 numbers (64-port configuration), used by the
#: report to show paper-vs-model side by side and by the test suite to
#: pin the model.
PAPER_TABLE1: dict[Variant, dict[str, float]] = {
    Variant.PACKET_COUNT: dict(stateless_alus=17, stateful_alus=9,
                               table_ids=27, gateways=15, stages=10,
                               sram_kb=606, tcam_kb=42),
    Variant.WRAP_AROUND: dict(stateless_alus=19, stateful_alus=9,
                              table_ids=35, gateways=19, stages=10,
                              sram_kb=671, tcam_kb=59),
    Variant.CHANNEL_STATE: dict(stateless_alus=24, stateful_alus=11,
                                table_ids=37, gateways=19, stages=12,
                                sram_kb=770, tcam_kb=244),
}

#: §7.1's quoted 14-port configuration.
PAPER_14PORT = dict(sram_kb=638, tcam_kb=90)


@dataclass
class Table1Config:
    ports: int = 64

    def __post_init__(self) -> None:
        check_minimums(self, {"ports": FIELD_BOUNDS["ports"]})

    @classmethod
    def quick(cls) -> "Table1Config":
        return cls()


@dataclass
class Table1Result:
    reports: dict[Variant, ResourceReport]
    report_14port: ResourceReport

    def report(self) -> str:
        rows = [
            ("Stateless ALUs", "stateless_alus"),
            ("Stateful ALUs", "stateful_alus"),
            ("Logical Table IDs", "table_ids"),
            ("Conditional Table Gateways", "gateways"),
            ("Physical Stages", "stages"),
            ("SRAM (KB)", "sram_kb"),
            ("TCAM (KB)", "tcam_kb"),
        ]
        table = TextTable(["Resource", *(v.label for v in Variant),
                           "(paper)"])
        for label, attr in rows:
            cells = [label]
            for variant in Variant:
                cells.append(getattr(self.reports[variant], attr))
            cells.append("/".join(str(PAPER_TABLE1[v][attr]) for v in Variant))
            table.add(*cells)
        lines = [header("Table 1 — Speedlight data plane resource usage",
                        f"{next(iter(self.reports.values())).ports}-port "
                        "snapshots, per-port packet counters"),
                 table.render(), ""]
        lines.append(
            f"14-port wrap+chnl configuration: "
            f"{self.report_14port.sram_kb:.0f} KB SRAM / "
            f"{self.report_14port.tcam_kb:.0f} KB TCAM "
            f"(paper: {PAPER_14PORT['sram_kb']} / {PAPER_14PORT['tcam_kb']})")
        worst = max(self.reports[Variant.CHANNEL_STATE]
                    .utilization(TOFINO_1).values())
        lines.append(
            f"Max utilization of any dedicated resource (chnl-state build): "
            f"{worst:.1%} (paper claims < 25%)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trial decomposition (a single cheap trial, kept uniform with the rest
# of the suite so Table 1 caches and batches like every figure)
# ----------------------------------------------------------------------

def _report_to_data(report: ResourceReport) -> dict[str, object]:
    doc = asdict(report)
    doc["variant"] = report.variant.value
    return doc


def _report_from_data(doc: dict[str, object]) -> ResourceReport:
    doc = dict(doc)
    doc["variant"] = Variant(doc["variant"])
    return ResourceReport(**doc)


def specs(config: Table1Config) -> list[TrialSpec]:
    return [TrialSpec.of("table1", config, "table1")]


@trial("table1")
def run_trial(spec: TrialSpec) -> TrialResult:
    ports = spec.config(Table1Config).ports
    return make_result(spec, {
        "reports": {v.value: _report_to_data(estimate(v, ports))
                    for v in Variant},
        "report_14port": _report_to_data(estimate(Variant.CHANNEL_STATE, 14)),
    })


def assemble(config: Table1Config,
             results: Sequence[TrialResult]) -> Table1Result:
    (result,) = results
    return Table1Result(
        reports={Variant(name): _report_from_data(doc)
                 for name, doc in result.data["reports"].items()},
        report_14port=_report_from_data(result.data["report_14port"]))


EXPERIMENTS = (
    Experiment("table1", "data-plane resource usage on the Tofino",
               Table1Config, specs, assemble),
)
run = EXPERIMENTS[0].run
