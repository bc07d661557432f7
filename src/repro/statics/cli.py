"""Command-line front end for the statics pass.

``python -m repro.statics [paths]`` and ``repro statics [paths]`` both
land here.  Exit status: 0 clean, 1 findings, 2 usage error.

Two analysis modes share this front end: the default per-file rule
pass, and ``--flow``, which links every file under the given paths into
one program and runs the whole-program families
(:mod:`repro.statics.flow`).  Both speak the same pragma dialect and
the same output formats (``--json`` enriched JSON, ``--sarif`` for
GitHub code scanning).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from typing import Optional

from repro.statics.engine import Report, Rule, run_paths
from repro.statics.rules import ALL_RULE_IDS, ALL_RULES

DEFAULT_PATHS = ("src", "tests")

#: Where ``--flow`` caches per-file summaries between runs (content
#: keyed: stale entries are misses, not staleness bugs).
DEFAULT_CACHE_DIR = os.path.join(".repro-cache", "statics-flow")

#: Rules that encode repo-local conventions rather than portable
#: determinism contracts.  ``--profile external`` drops them: DET002
#: polices *this* repo's layering (wall-clock reads allowed only in
#: the runtime scope, which doesn't exist out-of-tree), and TRIAL001
#: keys off our ``@trial`` decorator.
EXTERNAL_EXCLUDED = frozenset({"DET002", "TRIAL001"})

#: Scope external files are checked under: out-of-tree paths carry no
#: meaningful package structure, so treat everything as simulation-core
#: code — the strictest scope the portable rules guard.
EXTERNAL_SCOPE = "sim"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro statics",
        description="determinism & simulation-invariant static analysis "
                    "(docs/DETERMINISM.md)")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help=f"files/directories to check "
                             f"(default: {' '.join(DEFAULT_PATHS)}; "
                             f"--flow defaults to src)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output (stable finding "
                             "ids + severities)")
    parser.add_argument("--sarif", metavar="FILE", default=None,
                        help="also write a SARIF 2.1.0 log to FILE "
                             "(GitHub code-scanning format)")
    parser.add_argument("--rules", metavar="A,B", default=None,
                        help="comma-separated subset of rule ids to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the rules and exit")
    parser.add_argument("--flow", action="store_true",
                        help="whole-program mode: link the given paths "
                             "into one program and run the flow "
                             "families (FLOW001/MSG001/MSG002/DET005)")
    parser.add_argument("--graph-dump", action="store_true",
                        help="with --flow: print the linked symbol "
                             "table / call graph / message-flow graph "
                             "instead of findings")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallelize the per-file parse phase "
                             "across N processes (report is identical "
                             "to the serial run)")
    parser.add_argument("--forbid-pragmas", action="store_true",
                        help="fail (exit 1) if any finding was "
                             "suppressed by a pragma — the CI "
                             "statics-clean-no-pragmas gate")
    parser.add_argument("--no-cache", action="store_true",
                        help="with --flow: disable the per-file "
                             "summary cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="with --flow: summary cache location "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--profile", choices=("default", "external"),
                        default="default",
                        help="'external' audits out-of-tree simulation "
                             "models: repo-convention rules "
                             f"({', '.join(sorted(EXTERNAL_EXCLUDED))}) "
                             "are dropped, every file is checked under "
                             f"the '{EXTERNAL_SCOPE}' scope, and "
                             "explicit paths are required")
    return parser


def select_rules(spec: Optional[str]) -> list[Rule]:
    if spec is None:
        return list(ALL_RULES)
    wanted = _parse_rule_spec(spec)
    by_id = {rule.id: rule for rule in ALL_RULES}
    unknown = sorted(wanted - set(by_id))
    if unknown:
        raise SystemExit(
            f"unknown rule id(s): {', '.join(unknown)}; valid ids: "
            f"{', '.join(by_id)}")
    return [by_id[rule_id] for rule_id in by_id if rule_id in wanted]


def _parse_rule_spec(spec: str) -> set[str]:
    return {part.strip().upper() for part in spec.split(",")
            if part.strip()}


def render_human(report: Report) -> str:
    parts = [finding.render() for finding in report.findings]
    status = "clean" if report.ok else f"{len(report.findings)} finding(s)"
    parts.append(f"statics: {status} across {report.files_checked} "
                 f"file(s), {report.suppressed} suppressed by pragmas")
    return "\n".join(parts)


def _emit(report: Report, as_json: bool,
          sarif_path: Optional[str]) -> None:
    from repro.statics.sarif import enriched_dict, to_sarif
    if sarif_path is not None:
        with open(sarif_path, "w", encoding="utf-8") as handle:
            json.dump(to_sarif(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if as_json:
        print(json.dumps(enriched_dict(report), indent=2, sort_keys=True))
    else:
        print(render_human(report))


def _exit_code(report: Report, forbid_pragmas: bool) -> int:
    if not report.ok:
        return 1
    if forbid_pragmas and report.suppressed:
        print(f"repro statics: clean only via {report.suppressed} "
              f"pragma suppression(s), --forbid-pragmas given",
              file=sys.stderr)
        return 1
    return 0


def _main_flow(args: argparse.Namespace) -> int:
    from repro.statics.flow import (FLOW_DEFAULT_PATHS, FLOW_RULE_IDS,
                                    run_flow)
    if args.profile == "external":
        print("repro statics: --flow and --profile external are "
              "mutually exclusive", file=sys.stderr)
        return 2
    rule_ids: Optional[set[str]] = None
    if args.rules is not None:
        wanted = _parse_rule_spec(args.rules)
        unknown = sorted(wanted - set(FLOW_RULE_IDS))
        if unknown:
            print(f"repro statics: not flow rule id(s): "
                  f"{', '.join(unknown)}; valid: "
                  f"{', '.join(FLOW_RULE_IDS)}", file=sys.stderr)
            return 2
        rule_ids = wanted
    paths = tuple(args.paths) if args.paths else FLOW_DEFAULT_PATHS
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"repro statics: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    cache_dir = None if args.no_cache else args.cache_dir
    known = set(ALL_RULE_IDS) | set(FLOW_RULE_IDS)
    report, program = run_flow(paths, cache_dir=cache_dir,
                               rule_ids=rule_ids, known_rules=known)
    if args.graph_dump:
        print(program.dump())
        return 0
    _emit(report, args.as_json, args.sarif)
    return _exit_code(report, args.forbid_pragmas)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        from repro.statics.flow import FLOW_RULES
        for rule in ALL_RULES:
            scope = ("everywhere" if rule.scopes is None
                     else "/".join(sorted(rule.scopes)))
            if rule.excluded_scopes:
                scope += f" except {'/'.join(sorted(rule.excluded_scopes))}"
            print(f"  {rule.id:<9} {rule.title}  [{scope}]")
        for info in FLOW_RULES:
            print(f"  {info.id:<9} {info.title}  [--flow, whole-program]")
        return 0
    if args.graph_dump and not args.flow:
        print("repro statics: --graph-dump requires --flow",
              file=sys.stderr)
        return 2
    if args.flow:
        return _main_flow(args)
    rules = select_rules(args.rules)
    scope: Optional[str] = None
    report_unused = True
    if args.profile == "external":
        if args.rules is not None:
            print("repro statics: --profile external and --rules are "
                  "mutually exclusive", file=sys.stderr)
            return 2
        if not args.paths:
            # The default src/tests paths are this repo; an external
            # audit without a target would silently re-check ourselves.
            print("repro statics: --profile external requires explicit "
                  "paths", file=sys.stderr)
            return 2
        rules = [rule for rule in rules
                 if rule.id not in EXTERNAL_EXCLUDED]
        scope = EXTERNAL_SCOPE
        # External code has no reason to know our pragma dialect, so an
        # unused allow[] there is noise, not a stale suppression.
        report_unused = False
    paths = args.paths or list(DEFAULT_PATHS)
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        # A typo'd path must not let the CI gate pass vacuously.
        print(f"repro statics: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # The unused-pragma audit is per *active* rule id: under a --rules
    # subset, pragmas for rules that didn't run are neither used nor
    # unused, so auditing stays on instead of being disabled wholesale.
    # Flow-family ids are *known* (pragmas may name them) but never
    # active here — the --flow pass audits those.
    from repro.statics.flow import FLOW_RULE_IDS
    report = run_paths(paths, rules, scope=scope,
                       report_unused_pragmas=report_unused,
                       known_rules=set(ALL_RULE_IDS) | set(FLOW_RULE_IDS),
                       active_rules={rule.id for rule in rules},
                       jobs=max(1, args.jobs))
    _emit(report, args.as_json, args.sarif)
    return _exit_code(report, args.forbid_pragmas)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
