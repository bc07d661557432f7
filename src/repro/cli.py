"""Command-line interface: ``python -m repro <command>``.

Commands:

``experiments [NAME ...] [--list] [--only a,b] [--quick] [--jobs N] [--no-cache]``
    Run the full experiment suite through the shared trial runner —
    every experiment's trial specs are submitted as **one** batch, so
    ``--jobs 4`` parallelises across experiments, not just within one.
    ``--list`` prints the available experiments instead of running.
``run <name> [--quick] [--jobs N] [--no-cache] [--cache-dir DIR]``
    ``experiments <name>`` with exactly one name (same handler, same
    flags): run one experiment (``table1``, ``fig9`` … ``fig13``,
    ``ablation-ideal``, ``sweep-ptp``, ``faults``, ``recovery``,
    ``scaling`` …) and print its report.  The fault-aware experiments
    accept ``--fault-profile <json|file>`` with a serialized
    :class:`~repro.faults.FaultProfile` (see docs/FAULTS.md).
    ``updates`` additionally accepts ``--update-plan
    <json|file>`` with a serialized :class:`~repro.updates.UpdatePlan`
    (docs/UPDATES.md).  ``--shards N`` partitions each trial's network
    into N shards run in conservative rounds, in one process, for
    experiments that support it (docs/SHARDING.md; currently ``scaling``,
    ``recovery`` and ``updates``).  ``--agg-degree D`` routes snapshot
    records through
    the hierarchical aggregation fabric for experiments that support it
    (docs/AGGREGATION.md; currently ``scaling``).
``metrics``
    List the snapshot-capable metrics and whether they support channel
    state.
``statics [paths] [--json] [--sarif F] [--rules A,B] [...]``
    Run the determinism & simulation-invariant static analysis pass
    (docs/DETERMINISM.md) over ``src tests`` or the given paths; exits
    non-zero on findings.  CI gates on ``repro statics src tests``.
    The flags are ``repro.statics.cli``'s own: everything after
    ``statics`` is handed to it unparsed.
``serve [--epochs N] [--interval-us U] [--conservation] [...]``
    Snapshot-as-a-service (docs/SERVICE.md): run a continuous epoch
    pipeline under the sustained memcache incast workload — bounded
    delta store, coalescing backpressure — then answer epoch-range,
    conservation, and heavy-hitter queries from the stored history.
``demo``
    A 30-second tour: build the testbed, take snapshots, print results.

Caching: results are keyed by (spec fingerprint, code version) under
``--cache-dir`` (default ``.repro-cache``), so a re-run recomputes only
trials whose spec or code changed.  ``--no-cache`` disables reads and
writes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


def _make_runner(args: argparse.Namespace):
    """Build the TrialRunner the flags describe (progress on stderr)."""
    from repro.runtime import TrialCache, TrialRunner

    if args.no_cache:
        cache = None
    else:
        try:
            cache = TrialCache(args.cache_dir)
        except OSError as exc:
            print(f"cannot use cache dir {args.cache_dir!r}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2) from exc
    return TrialRunner(jobs=args.jobs, cache=cache,
                       progress=lambda msg: print(f"  [{msg}]",
                                                  file=sys.stderr))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    from repro.runtime import DEFAULT_CACHE_DIR

    parser.add_argument("--quick", action="store_true",
                        help="reduced configuration (CI-sized)")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"result cache root (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--fault-profile", metavar="JSON|FILE", default=None,
                        help="serialized FaultProfile (inline JSON or a "
                             "path to a .json file) applied to the "
                             "fault-aware experiments: faults and scaling "
                             "run it as their scenario, recovery sweeps "
                             "its policies against it")
    parser.add_argument("--update-plan", metavar="JSON|FILE", default=None,
                        help="serialized UpdatePlan (inline JSON or a path "
                             "to a .json file) swapped in as the updates "
                             "experiment's scenario and swept over its "
                             "clock-error levels — see docs/UPDATES.md")
    parser.add_argument("--shards", type=_positive_int, default=None,
                        metavar="N",
                        help="space-parallel simulation shards for the "
                             "experiments that support them (currently "
                             "scaling, recovery and updates); each trial "
                             "partitions its network into N shards run in "
                             "conservative rounds in one process — see "
                             "docs/SHARDING.md")
    parser.add_argument("--agg-degree", type=_nonnegative_int, default=None,
                        metavar="D",
                        help="aggregation-tree fan-out for the experiments "
                             "that support the hierarchical snapshot "
                             "fabric (currently scaling); 0 models a flat "
                             "observer intake, >= 1 enables the tree — "
                             "see docs/AGGREGATION.md")


def _apply_overlays(args: argparse.Namespace, configs: dict) -> bool:
    """Thread the overlay flags (``--fault-profile``, ``--update-plan``,
    ``--shards``, ``--agg-degree``) into every config that understands
    them.  Returns False, after printing the reason, when a spec flag
    does not parse or validate (inline JSON or a file path, checked by
    round trip) or when none of ``configs`` takes a given flag."""
    import json

    from repro.faults import FaultProfile
    from repro.specs import Spec, load_spec
    from repro.updates import UpdatePlan

    # (flag, spec family it parses as, {config attribute: None to set
    # the value | key to file it under}, refusal wording, applied label).
    # recovery keeps a dict of profiles and sweeps its policies against
    # just the CLI one.
    overlays: tuple[tuple[str, Optional[type[Spec]],
                          dict[str, Optional[str]], str, str], ...] = (
        ("--fault-profile", FaultProfile,
         {"profile": None, "profiles": "cli-profile"},
         "accept a fault profile (try faults, scaling, recovery)",
         "fault profile"),
        ("--update-plan", UpdatePlan, {"plan": None},
         "accept an update plan (try updates)", "update plan"),
        ("--shards", None, {"shards": None},
         "support sharded simulation (try scaling, recovery, updates)",
         "{} shards"),
        ("--agg-degree", None, {"agg_degree": None},
         "support the aggregation fabric (try scaling)", "agg degree {}"),
    )
    for flag, family, targets, refusal, label in overlays:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if family is not None:
            try:
                value = load_spec(family, value)
            except json.JSONDecodeError as exc:
                print(f"{flag} is neither a file nor valid JSON: {exc}",
                      file=sys.stderr)
                return False
            except ValueError as exc:
                print(f"invalid {family.family}: {exc}", file=sys.stderr)
                return False
        applied = []
        for name, config in configs.items():
            attr = next((a for a in targets if hasattr(config, a)), None)
            if attr is not None:
                key = targets[attr]
                setattr(config, attr, value if key is None else {key: value})
                applied.append(name)
        if not applied:
            nobody = (f"{next(iter(configs))} does not" if len(configs) == 1
                      else "none of the selected experiments")
            print(f"{flag}: {nobody} {refusal}", file=sys.stderr)
            return False
        print(f"[{label.format(value)} applied to: {', '.join(applied)}]",
              file=sys.stderr)
    return True


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import LISTING, registry

    if args.list:
        for name, description in LISTING:
            print(f"  {name:<21} {description}")
        return 0
    reg = registry()

    # Subset selection: positional names (`repro experiments faults`,
    # `repro run faults`) and/or the --only list, each name once in
    # first-seen order; no selection runs the whole suite.
    selected = list(args.names)
    if args.only:
        selected.extend(n.strip() for n in args.only.split(",") if n.strip())
    names = list(dict.fromkeys(selected)) or list(reg)
    unknown = [n for n in names if n not in reg]
    if unknown:
        print(f"unknown experiment(s) {', '.join(unknown)}; run "
              "`python -m repro experiments --list`", file=sys.stderr)
        return 2

    # One combined batch across all selected experiments: the runner
    # sees every trial at once, so --jobs fans out across experiments.
    runner = _make_runner(args)
    configs = {name: reg[name].config(quick=args.quick) for name in names}
    if not _apply_overlays(args, configs):
        return 2
    batches = {name: reg[name].specs(configs[name]) for name in names}
    flat = [spec for name in names for spec in batches[name]]
    results = runner.run_batch(flat)

    cursor = 0
    reports = []
    for name in names:
        count = len(batches[name])
        chunk = results[cursor:cursor + count]
        cursor += count
        reports.append(reg[name].assemble(configs[name], chunk).report())
    print("\n\n".join(reports))
    stats = runner.last_stats
    print(f"\n[{stats.summary()}]", file=sys.stderr)
    if stats.trial_seconds:
        # Per-experiment wall-clock (executed trials only; cache hits
        # cost nothing and are not attributed).
        print("[per-experiment wall-clock]", file=sys.stderr)
        for name in names:
            timed = [stats.trial_seconds[s.describe()]
                     for s in batches[name]
                     if s.describe() in stats.trial_seconds]
            if timed:
                print(f"  {name:<21} {sum(timed):>8.2f}s "
                      f"({len(timed)} trials)", file=sys.stderr)
    return 0


def cmd_metrics(_args: argparse.Namespace) -> int:
    from repro.counters import METRICS

    print(f"{'metric':<20} {'kind':<12} channel state")
    for name, metric in sorted(METRICS.items()):
        kind = "gauge" if metric.gauge else "accumulator"
        cs = "no (gauge)" if metric.gauge else (
            "yes" if metric.in_flight else "no rule")
        print(f"{name:<20} {kind:<12} {cs}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.service.pipeline import PipelineConfig
    from repro.sim.engine import US
    from repro.runtime.streaming import ServiceRun, ServiceSpec

    try:
        pipeline = PipelineConfig(retention=args.retention,
                                  keyframe_interval=args.keyframe_interval,
                                  queue_capacity=args.queue_capacity)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    spec = ServiceSpec(
        seed=args.seed,
        num_leaves=args.leaves,
        num_spines=args.spines,
        hosts_per_leaf=args.hosts_per_leaf,
        interval_ns=args.interval_us * US,
        metric=args.metric,
        agg_degree=args.agg_degree,
        pipeline=pipeline)
    run = ServiceRun(spec)

    def progress(r: ServiceRun) -> None:
        print(f"  [{r.pipeline.ingested}/{args.epochs} epochs stored, "
              f"{r.pipeline.store.encoded_bytes} store bytes, "
              f"backlog {r.pipeline.backlog}]", file=sys.stderr)

    report = run.run(args.epochs,
                     on_chunk=progress if args.verbose else None,
                     max_wall_seconds=args.max_wall_seconds)
    engine = run.query_engine()
    # Wall-clock figures stay off stdout, so a seed's stdout is the same
    # on every run.
    wall = {"wall_seconds": round(report.wall_seconds, 3),
            "epochs_per_sec": round(report.epochs_per_sec, 1),
            "events_per_sec": round(report.events_per_sec, 1)}
    doc: dict = {
        "epochs_stored": report.epochs_stored,
        "ticks": report.ticks,
        "sim_time_ms": report.sim_time_ns // 1_000_000,
        "pipeline": report.stats,
        "summary": engine.summary(),
    }
    if args.query_range:
        start, end = args.query_range
        doc["range"] = engine.range(start, end)
    if args.conservation:
        doc["conservation"] = engine.conservation()
    if args.heavy_hitters:
        doc["heavy_hitters"] = engine.heavy_hitters(top=args.heavy_hitters)
    if args.as_json:
        print(json.dumps(wall), file=sys.stderr)
        json.dump(doc, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return 0
    print(f"served {doc['epochs_stored']} epochs "
          f"({wall['epochs_per_sec']} epochs/s wall, "
          f"{doc['sim_time_ms']} ms simulated)")
    summary = doc["summary"]
    print(f"store: {summary['epochs_stored']} epochs "
          f"[{summary['min_epoch']}..{summary['max_epoch']}], "
          f"{summary['encoded_bytes']} bytes, "
          f"{summary['keyframes']} keyframes, "
          f"{summary['evicted']} evicted, "
          f"{summary['merged_epochs']} merged under backpressure")
    if "conservation" in doc:
        cons = doc["conservation"]
        verdict = ("ok" if not cons["violations"]
                   else f"VIOLATIONS: {cons['violations']}")
        print(f"conservation: {cons['checked']} epochs checked, {verdict}")
    if "heavy_hitters" in doc:
        hh = doc["heavy_hitters"]
        print(f"heavy hitters @ epoch {hh['epoch']}:")
        for unit in hh["units"]:
            print(f"  {unit['device']}:{unit['port']}:{unit['direction']} "
                  f"= {unit['value']}")
        for flow in hh["flows"]:
            print(f"  {flow['unit']} {flow['flow']} ~{flow['estimate']}")
    if "range" in doc:
        print(f"range query returned {len(doc['range'])} epochs")
    return 0


def cmd_demo(_args: argparse.Namespace) -> int:
    from repro.core import deploy
    from repro.sim.engine import MS
    from repro.sim.network import Network, NetworkConfig
    from repro.topology import leaf_spine
    from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

    print("building the SIGCOMM'18 testbed (2 leaves x 2 spines x 6 hosts)…")
    network = Network(leaf_spine(), NetworkConfig(seed=1))
    PoissonWorkload(network, PoissonConfig(rate_pps=20_000,
                                           stop_ns=400 * MS,
                                           sport_churn=True)).start()
    deployment = deploy(network, metric="packet_count")
    epochs = deployment.schedule_campaign(count=5, interval_ns=20 * MS)
    network.run(until=400 * MS)
    print(f"{'epoch':>6} {'sync (us)':>10} {'total packets':>14}")
    for epoch in epochs:
        snap = deployment.observer.snapshot(epoch)
        sync = (deployment.sync_spread_ns(epoch) or 0) / 1e3
        print(f"{epoch:>6} {sync:>10.1f} {snap.total_value():>14}")
    print("\neach row is a causally consistent, network-wide cut — "
          "try `python -m repro run fig9 --quick` next.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synchronized Network Snapshots (Speedlight) reproduction")
    sub = parser.add_subparsers(dest="command")

    exp_parser = sub.add_parser(
        "experiments",
        help="run the full experiment suite (or --list to enumerate)")
    exp_parser.add_argument("names", nargs="*", metavar="NAME",
                            help="experiments to run (default: all)")
    exp_parser.add_argument("--list", action="store_true",
                            help="list available experiments and exit")
    exp_parser.add_argument("--only", metavar="A,B",
                            help="comma-separated subset to run")
    _add_runner_flags(exp_parser)

    # `run NAME` is `experiments NAME`: same handler, same flags.
    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("names", nargs=1, metavar="NAME")
    run_parser.set_defaults(list=False, only=None)
    _add_runner_flags(run_parser)

    sub.add_parser("metrics", help="list snapshot-capable metrics")

    # Listed for `repro --help` only: main() hands everything after
    # `statics` to repro.statics.cli, the one declaration of its flags.
    sub.add_parser(
        "statics",
        help="determinism & simulation-invariant static analysis")

    serve_parser = sub.add_parser(
        "serve",
        help="snapshot-as-a-service: continuous epochs under sustained "
             "incast, with queries over the bounded delta store "
             "(docs/SERVICE.md)")
    serve_parser.add_argument("--epochs", type=_positive_int, default=500,
                              metavar="N",
                              help="epochs to store before reporting "
                                   "(default: 500)")
    serve_parser.add_argument("--interval-us", type=_positive_int,
                              default=2000, metavar="US",
                              help="snapshot cadence in microseconds "
                                   "(default: 2000)")
    serve_parser.add_argument("--metric", default="packet_count",
                              help="snapshot metric (heavy_hitter enables "
                                   "flow drilldown; default: packet_count)")
    serve_parser.add_argument("--seed", type=int, default=42)
    serve_parser.add_argument("--leaves", type=_positive_int, default=2)
    serve_parser.add_argument("--spines", type=_positive_int, default=1)
    serve_parser.add_argument("--hosts-per-leaf", type=_positive_int,
                              default=2)
    serve_parser.add_argument("--agg-degree", type=_nonnegative_int,
                              default=None, metavar="D",
                              help="route records through the aggregation "
                                   "fabric (docs/AGGREGATION.md)")
    serve_parser.add_argument("--retention", type=_positive_int,
                              default=1024,
                              help="store ring size in epochs "
                                   "(default: 1024)")
    serve_parser.add_argument("--keyframe-interval", type=_positive_int,
                              default=64,
                              help="entries between full keyframes "
                                   "(default: 64)")
    serve_parser.add_argument("--queue-capacity", type=_positive_int,
                              default=64,
                              help="ingest queue bound, at least 2; overflow "
                                   "coalesces epochs (default: 64)")
    serve_parser.add_argument("--query-range", type=int, nargs=2,
                              metavar=("START", "END"),
                              help="print stored epochs in [START, END]")
    serve_parser.add_argument("--conservation", action="store_true",
                              help="audit stored history against the "
                                   "per-link conservation law")
    serve_parser.add_argument("--heavy-hitters", type=_positive_int,
                              default=None, metavar="N",
                              help="print the N heaviest units (and flows, "
                                   "with --metric heavy_hitter)")
    serve_parser.add_argument("--max-wall-seconds", type=float, default=None,
                              help="stop early after this much wall time")
    serve_parser.add_argument("--json", action="store_true", dest="as_json",
                              help="machine-readable report")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="per-chunk progress on stderr")

    sub.add_parser("demo", help="a 30-second end-to-end tour")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["statics"]:
        # Imported here so the other commands never load the AST rules.
        from repro.statics.cli import main as statics_main

        return statics_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "experiments": cmd_experiments,
        "run": cmd_experiments,
        "metrics": cmd_metrics,
        "serve": cmd_serve,
        "demo": cmd_demo,
    }
    if args.command is None:
        parser.print_help()
        return 0
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
