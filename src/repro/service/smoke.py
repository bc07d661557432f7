"""Service-under-faults smoke check (the ``make chaos-smoke`` entry).

A control plane crashes mid-stream and comes back; the service must
shrug: the pipeline keeps ingesting, the delta store stays queryable
over the fault window, the recovery machinery (retries / exclusions /
inconsistency marking) leaves visible evidence in stored documents, and
the merged-epoch counters stay exposed end to end.  Runs in seconds —
liveness wiring, not statistics.

Usage: ``python -m repro.service.smoke`` (exit 0 = pass) or
:func:`run_fault_smoke` from tests.
"""

from __future__ import annotations

import json
import sys

from repro.runtime.streaming import ServiceRun, ServiceSpec
from repro.service.pipeline import PipelineConfig
from repro.sim.engine import MS


def run_fault_smoke(seed: int = 42, epochs: int = 120,
                    interval_ns: int = 2 * MS,
                    crash_after_ticks: int = 60,
                    crash_duration_ns: int = 60 * MS) -> dict[str, object]:
    """Run the crash scenario; returns a verdict document.

    ``ok`` is True iff every liveness invariant held; ``problems``
    lists the ones that did not.
    """
    run = ServiceRun(ServiceSpec(
        seed=seed, interval_ns=interval_ns,
        pipeline=PipelineConfig(retention=96, keyframe_interval=8,
                                queue_capacity=8)))
    sim, deployment, pipeline = run.sim, run.deployment, run.pipeline
    assert run.workload is not None
    run.workload.start()
    run.campaign.start(max_ticks=epochs)

    victim = sorted(deployment.control_planes)[0]
    cp = deployment.control_planes[victim]
    crash_at = crash_after_ticks * interval_ns
    sim.schedule_at(crash_at, cp.crash)
    sim.schedule_at(crash_at + crash_duration_ns, cp.restart)

    # Campaign span plus the device-timeout tail so stranded epochs
    # resolve (PARTIAL or late-COMPLETE) before we judge the store.
    sim.run(until=epochs * interval_ns
            + deployment.config.observer.device_timeout_ns + 500 * MS)

    engine = run.query_engine()
    summary = engine.summary()
    docs = engine.range()
    problems: list[str] = []
    if pipeline.ingested < epochs // 2:
        problems.append(f"pipeline stalled: only {pipeline.ingested} of "
                        f"{epochs} epochs ingested")
    if not docs:
        problems.append("store is empty — not queryable")
    if [d["epoch"] for d in docs] != sorted({d["epoch"] for d in docs}):
        problems.append("epoch range scan is not sorted/unique")
    if any("merged_epochs" not in d for d in docs):
        problems.append("stored documents lack merged_epochs counters")
    if "merged_epochs" not in summary:
        problems.append("summary lacks the merged-epoch counter")
    touched = [d for d in docs
               if d["status"] != "complete" or int(d["retries"]) > 0  # type: ignore[arg-type]
               or d["excluded_devices"] or not d["consistent"]]
    if not touched:
        problems.append("no stored epoch shows the crash (no retries, "
                        "partials, or exclusions) — fault did not land")
    conservation = engine.conservation()
    if conservation["violations"]:
        problems.append(f"conservation violations in stored history: "
                        f"{conservation['violations']}")
    return {
        "ok": not problems,
        "problems": problems,
        "victim": victim,
        "ingested": pipeline.ingested,
        "coalesced_epochs": pipeline.coalesced_epochs,
        "crash_touched_epochs": len(touched),
        "conservation": {"checked": conservation["checked"],
                         "skipped": conservation["skipped"]},
        "summary": summary,
    }


def main() -> int:
    verdict = run_fault_smoke()
    json.dump(verdict, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
