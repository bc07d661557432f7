"""Statistics and verification tools for snapshot measurements.

* :mod:`~repro.analysis.stats` — CDFs, balance metrics, and the Spearman
  correlation analysis of Figure 13 (import it from there: it needs
  numpy and scipy, which nothing else in the package loads);
* :mod:`~repro.analysis.consistency` — the ground-truth causal-consistency
  checker: replays data-plane trace events and verifies that every
  snapshot the system declared consistent is in fact a closed cut with
  conserved flow counts.
"""

from repro.analysis.consistency import (
    ConsistencyAudit,
    ConsistencyChecker,
    ConsistencyViolation,
)
from repro.analysis.report import (
    epoch_from_record,
    epoch_record,
    snapshot_rows,
)
from repro.analysis.invariants import (
    AuditSummary,
    LinkAudit,
    LinkReport,
    LoopDetector,
    LoopVerdict,
)

__all__ = [
    "AuditSummary",
    "LinkAudit",
    "LinkReport",
    "LoopDetector",
    "LoopVerdict",
    "epoch_from_record",
    "epoch_record",
    "snapshot_rows",
    "ConsistencyAudit",
    "ConsistencyChecker",
    "ConsistencyViolation",
]
