"""Command-line front end for the statics pass.

``python -m repro.statics [paths]`` and ``repro statics [paths]`` both
land here — :func:`build_parser` is the one declaration of the flags.
Exit status: 0 clean, 1 findings, 2 usage error.  Output is
human-readable by default, ``--json`` for enriched JSON, ``--sarif``
for GitHub code scanning.
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro statics",
        description="determinism & simulation-invariant static analysis "
                    "(docs/DETERMINISM.md)")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help=f"files/directories to check "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
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
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallelize the per-file parse phase "
                             "across N processes (report is identical "
                             "to the serial run)")
    parser.add_argument("--forbid-pragmas", action="store_true",
                        help="fail (exit 1) if any finding was "
                             "suppressed by a pragma — the CI "
                             "statics-clean-no-pragmas gate")
    return parser


def select_rules(spec: Optional[str]) -> list[Rule]:
    if spec is None:
        return list(ALL_RULES)
    wanted = {part.strip().upper() for part in spec.split(",")
              if part.strip()}
    by_id = {rule.id: rule for rule in ALL_RULES}
    unknown = sorted(wanted - set(by_id))
    if unknown:
        raise SystemExit(
            f"unknown rule id(s): {', '.join(unknown)}; valid ids: "
            f"{', '.join(by_id)}")
    return [by_id[rule_id] for rule_id in by_id if rule_id in wanted]


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            scope = ("everywhere" if rule.scopes is None
                     else "/".join(sorted(rule.scopes)))
            if rule.excluded_scopes:
                scope += f" except {'/'.join(sorted(rule.excluded_scopes))}"
            print(f"  {rule.id:<9} {rule.title}  [{scope}]")
        return 0
    rules = select_rules(args.rules)
    paths = args.paths or list(DEFAULT_PATHS)
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        # A typo'd path must not let the CI gate pass vacuously.
        print(f"repro statics: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # Under a --rules subset, pragmas may still name any registered
    # rule; the unused-pragma audit covers only the rules that ran.
    report = run_paths(paths, rules, known_rules=set(ALL_RULE_IDS),
                       jobs=max(1, args.jobs))
    _emit(report, args.as_json, args.sarif)
    return _exit_code(report, args.forbid_pragmas)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
