"""The whole benchmark in one command: reps, medians, ledger, self-check.

Every rep is ``run.py --workload ... --trace ...`` in a fresh
subprocess (one at a time: no threads, no other workers), so a rep here
is exactly what the benchmark driver runs.  A *set* is ``--reps``
untraced reps of every workload; the value of a metric is the median
over the reps of a set, printed with its min, max and rep count.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Iterable

import harness
import scenarios
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

#: The layers of the ledger, in pipeline order, by the path they are on.
LAYER_PATHS = {
    "packet path": ("workloads", "sim.engine", "sim.switch", "sim.channel",
                    "sim.host", "core.dataplane"),
    "collection path": ("core.control_plane", "core.aggregation",
                        "core.observer"),
    "shard rounds": ("sim.shard", "core.sharded"),
    "service path": ("analysis.report", "service.pipeline", "service.store",
                     "service.query", "analysis.invariants"),
    "harness": ("bench",),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_rep(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One rep in a fresh subprocess: its record, result line and exit code."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(line[4:]) for line in lines
                   if line.startswith("REP ")), None)
    if record is None or not lines:
        raise RuntimeError(f"{workload}: rep printed no result "
                           f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
    final = json.loads(lines[-1])
    return {"record": record, "final": final, "returncode": proc.returncode}


def run_set(workloads: Iterable[str], seed: int, seconds: float,
            reps: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for workload in workloads:
        for rep in range(reps):
            log(f"  {workload} rep {rep + 1}/{reps}")
            out.setdefault(workload, []).append(
                run_rep(workload, seed, seconds, trace=False))
    return out


def problems_of(workload: str, reps: list[dict]) -> list[str]:
    """Failed checks of any rep, and reps of one seed that disagree on
    a simulated statistic or on the result digest."""
    found = []
    for i, rep in enumerate(reps):
        for problem in rep["record"]["problems"]:
            found.append(f"{workload} rep {i + 1}: {problem}")
        if rep["final"]["failed"] or not rep["final"]["correct"]:
            found.append(f"{workload} rep {i + 1}: "
                         f"{rep['final']['failed']} of "
                         f"{rep['final']['attempted']} operations failed")
    first = reps[0]["record"]
    for i, rep in enumerate(reps[1:], start=2):
        record = rep["record"]
        if (record["stats"] != first["stats"]
                or record["result_digest"] != first["result_digest"]):
            found.append(f"{workload}: rep {i} disagrees with rep 1 on the "
                         f"simulated statistics or the result digest")
    return found


def medians(reps: list[dict]) -> dict[str, dict[str, float]]:
    out = {}
    for name in reps[0]["record"]["end_to_end"]:
        values = [rep["record"]["end_to_end"][name] for rep in reps]
        out[name] = {"median": statistics.median(values), "min": min(values),
                     "max": max(values), "reps": len(values)}
    return out


def print_end_to_end(spec: dict, results: dict[str, list[dict]]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{'workload':<16} {'metric':<16} {'median':>12} {'min':>12} "
          f"{'max':>12} reps unit")
    for workload, reps in results.items():
        for name, row in medians(reps).items():
            print(f"{workload:<16} {name:<16} {row['median']:>12.5g} "
                  f"{row['min']:>12.5g} {row['max']:>12.5g} "
                  f"{row['reps']:>4} {units[name]}")
        record = reps[0]["record"]
        final = reps[0]["final"]
        print(f"{workload:<16} {'fail_ratio':<16} "
              f"{final['failed'] / final['attempted']:>12.5g} "
              f"({final['failed']} of {final['attempted']} operations)")
        print(f"{workload:<16} query samples "
              f"{record['detail']['query_samples']}, "
              f"{record['detail']['query_beyond_p95']} beyond p95; "
              f"events {record['events']} (informational); "
              f"digest {record['result_digest'][:16]}")


def print_ledger(spec: dict, workload: str, layers: dict[str, float]) -> None:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"\n## {workload}: per-layer metrics (traced rep)")
    for name in units:
        print(f"{name:<40} {layers[name]:>16.6g} {units[name]}")
    window = layers["bench.traced_window_s"]
    print(f"\n{'layer':<22} {'self_s':>10} {'share':>7}   "
          f"(self times add up to the traced window, {window:.3f} s)")
    total = 0.0
    for path, names in LAYER_PATHS.items():
        for layer in names:
            key = harness.self_time_metric(layer)
            total += layers[key]
            print(f"{layer:<22} {layers[key]:>10.4f} "
                  f"{layers[key] / window:>7.1%}   {path}")
    print(f"{'sum':<22} {total:>10.4f} {total / window:>7.1%}")


def machine() -> str:
    return (f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
            f"{platform.python_version()}, {platform.machine()}")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def full_run(workloads: list[str], seed: int, seconds: float,
             reps: int) -> int:
    spec = scenarios.contract()
    log(f"untraced: {reps} reps x {len(workloads)} workloads")
    results = run_set(workloads, seed, seconds, reps)
    problems = [p for workload, reps_ in results.items()
                for p in problems_of(workload, reps_)]
    print(f"# seed {seed}, {seconds:g} s per rep, {reps} reps; {machine()}")
    print("\n## end-to-end metrics (tracing off)")
    print_end_to_end(spec, results)

    log("traced pass: 1 rep per workload")
    for workload in workloads:
        log(f"  {workload}")
        traced = run_rep(workload, seed, seconds, trace=True)
        layers = {name: entry["value"]
                  for name, entry in traced["final"]["metrics"].items()}
        print_ledger(spec, workload, layers)
        problems += problems_of(f"{workload} (traced)", [traced])
        first = results[workload][0]["record"]
        if (traced["record"]["stats"] != first["stats"]
                or traced["record"]["result_digest"]
                != first["result_digest"]):
            problems.append(f"{workload}: the traced rep's outputs differ "
                            f"from the untraced reps'")
    print()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("FAIL" if problems else "OK: every output checked, no operation "
          "failed, reps agree")
    return 1 if problems else 0


def selfcheck(workloads: list[str], seed: int, seconds: float,
              reps: int) -> int:
    """Two full sets back to back, the second in reverse workload order;
    fails when a metric differs between them by more than its bound."""
    spec = scenarios.contract()
    log("set A")
    set_a = run_set(workloads, seed, seconds, reps)
    log("set B (reverse order)")
    set_b = run_set(list(reversed(workloads)), seed, seconds, reps)
    problems = [p for results in (set_a, set_b)
                for workload, reps_ in results.items()
                for p in problems_of(workload, reps_)]

    mops = [rep["record"]["detail"]["calibration_mops"]
            for results in (set_a, set_b)
            for reps_ in results.values() for rep in reps_]
    print("# Noise self-check\n")
    print(f"`python3 bench/run.py --selfcheck --seed {seed} --reps {reps}`: "
          f"two sets of {reps} untraced reps per workload, {seconds:g} s "
          f"each, back to back, set B in reverse workload order.\n")
    print(f"- machine: {machine()}")
    print(f"- `bench.calibration_mops` over the {len(mops)} reps: median "
          f"{statistics.median(mops):.2f}, min {min(mops):.2f}, "
          f"max {max(mops):.2f} (reference {harness.REFERENCE_MOPS})")
    print("\nA metric passes when neither set reads worse than the other by "
          "more than its bound (`setup_s` under 0.2 s may also move by "
          "0.05 s).  `spread` is (max - min) / median over all the reps of "
          "both sets.\n")
    print("| workload | metric | set A | set B | worse by | bound | spread "
          "| ok |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        a, b = medians(set_a[workload]), medians(set_b[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first, second = a[name]["median"], b[name]["median"]
            ok = stats.agree(metric, first, second)
            worse = max(stats.worsening(metric, first, second),
                        stats.worsening(metric, second, first))
            low = min(a[name]["min"], b[name]["min"])
            high = max(a[name]["max"], b[name]["max"])
            spread = (high - low) / statistics.median((first, second))
            print(f"| {workload} | {name} | {first:.5g} | {second:.5g} | "
                  f"{worse:.1%} | {metric['bound']:.0%} | {spread:.1%} | "
                  f"{'yes' if ok else '**NO**'} |")
            if not ok:
                problems.append(f"{workload} {name}: sets differ by "
                                f"{worse:.1%}, bound {metric['bound']:.0%}")
    print()
    for problem in problems:
        print(f"- PROBLEM: {problem}")
    print("FAIL" if problems else "Result: **pass** - the two sets agree "
          "within the benchmark's own bounds on every metric x workload, "
          "and every rep's outputs checked.")
    return 1 if problems else 0


def record_reference(workloads: list[str], seconds: float) -> int:
    """Rewrite ``reference.json``: the exact simulated statistics and the
    result digest of every workload at the default and the held-out seed."""
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    for workload in workloads:
        for seed in (scenarios.DEFAULT_SEED, scenarios.HELD_OUT_SEED):
            log(f"  {workload} seed {seed}")
            record = run_rep(workload, seed, seconds, trace=False)["record"]
            if record["problems"]:
                raise SystemExit(f"{workload} seed {seed}: "
                                 f"{record['problems']}")
            reference.setdefault(workload, {})[f"{seed}/{seconds:g}"] = {
                "stats": record["stats"],
                "result_digest": record["result_digest"],
                "events_informational": record["events"],
            }
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(args) -> int:
    workloads = ([args.workload] if args.workload
                 else list(scenarios.WORKLOADS))
    if args.record_reference:
        return record_reference(workloads, args.seconds)
    reps = args.reps if args.reps is not None else scenarios.DEFAULT_REPS
    if reps < 1:
        raise SystemExit("--reps must be at least 1")
    run = selfcheck if args.selfcheck else full_run
    return run(workloads, args.seed, args.seconds, reps)
