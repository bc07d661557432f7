#!/usr/bin/env python3
"""The repo benchmark: five workloads, end to end and layer by layer.

One rep (what the benchmark driver calls; one process, one workload)::

    python3 bench/run.py --workload fabric_forward --seed 11 \\
        --seconds 10 --trace 0        # end-to-end metrics
    python3 bench/run.py --workload fabric_forward --seed 11 \\
        --seconds 10 --trace 1        # per-layer ledger (span wrappers on)

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The whole suite (each rep in a fresh subprocess, medians over ``--reps``,
then one traced rep per workload; fails on any output mismatch)::

    python3 bench/run.py [--seed N] [--reps R] [--workload W]
    python3 bench/run.py --selfcheck      # two sets back to back

See ``bench/README.md`` for what every number means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.stderr.write(f"bench: no program to measure: {SRC}/repro is missing\n")
    raise SystemExit(2)
sys.path[:0] = [SRC, HERE]

import harness  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402


def load_json(*parts: str):
    with open(os.path.join(*parts)) as fh:
        return json.load(fh)


def save_out(name: str, payload: object) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# The committed reference
# ----------------------------------------------------------------------

def reference_for(result: harness.Result):
    """The committed statistics for this exact input, or None."""
    if not result.full_input:
        return None
    reference = load_json(HERE, "reference.json")
    key = f"{result.seed}/{result.seconds:g}"
    return reference.get(result.workload, {}).get(key)


def check_reference(result: harness.Result, want) -> list[str]:
    if want is None:
        return []
    problems = [f"{name}: got {result.stats[name]}, reference {value}"
                for name, value in want["stats"].items()
                if result.stats[name] != value]
    if result.digest != want["result_digest"]:
        problems.append(f"result_digest: got {result.digest}, "
                        f"reference {want['result_digest']}")
    return problems


# ----------------------------------------------------------------------
# One rep
# ----------------------------------------------------------------------

def untraced_path(workload: str) -> str:
    return f"e2e-{workload}.json"


def trace_overhead_ratio(result: harness.Result) -> float:
    """Traced ``run_s`` over untraced ``run_s``.  The untraced figure is
    the last untraced rep of this workload made in this checkout; with
    none on record it is the traced run less the measured cost of its
    spans."""
    traced = result.metrics["run_s"]
    try:
        last = load_json(OUT, untraced_path(result.workload))
        if last["seconds"] == result.seconds:
            return traced / last["metrics"]["run_s"]["value"]
    except (OSError, KeyError, ValueError):
        pass
    spans_s = (result.layers["bench.spans"]
               * result.layers["bench.span_cost_us"] / 1e6
               * result.metrics["run_s"]
               / result.layers["bench.traced_window_s"])
    return traced / max(traced - spans_s, traced / 10)


def one_rep(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = scenarios.contract()
    recorder = tracing.SpanRecorder() if trace else None
    result = harness.measure(workload, seed, seconds, recorder)
    reference = reference_for(result)
    problems = result.problems + check_reference(result, reference)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        result.layers["bench.trace_overhead_ratio"] = trace_overhead_ratio(
            result)
        values = result.layers
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = result.metrics
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}

    print(f"# {workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    for name in names:
        print(f"{name:<40} {values[name]:>16.6g} {units[name]}")
    for key, value in result.detail.items():
        print(f"#   {key} = {value:.6g}")
    print(f"#   events = {result.events} (informational)")
    print(f"#   result_digest = {result.digest}")
    checked = "reference" if reference is not None else "invariants only"
    print(f"#   outputs checked against: {checked}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "metrics": metrics, "stats": result.stats,
        "events": result.events, "result_digest": result.digest,
        "attempted": result.attempted, "failed": result.failed,
        "problems": problems, "detail": result.detail,
        "end_to_end": result.metrics,
    }
    # What the suite reads back from a rep's standard output.
    print("REP " + json.dumps({k: record[k] for k in (
        "workload", "seed", "stats", "events", "result_digest", "problems",
        "end_to_end", "detail")}))
    record["series"] = result.series
    if trace:
        record["trace_detail"] = result.trace
        save_out(f"trace-{workload}.json", record)
    else:
        save_out(untraced_path(workload), record)

    correct = not problems and result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(scenarios.NOMINAL_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference.json from one rep "
                             "per workload of the default and the "
                             "held-out seed")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if (args.workload and args.reps is None and not args.selfcheck
            and not args.record_reference):
        return one_rep(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    import suite
    return suite.main(args)


if __name__ == "__main__":
    raise SystemExit(main())
