"""The statics rule engine: file walking, scoping, suppression.

The engine owns everything rule-independent: parsing files, deriving the
*scope* a file belongs to (which packages a rule guards), applying
``# statics: allow[...]`` pragmas, and aggregating findings into a
deterministic, sorted report.  Rules themselves live in
:mod:`repro.statics.rules` and are small AST visitors.

Scopes
------
Rules guard contracts that hold in specific layers: the simulation core
must be seeded-RNG-only, but the trial runner is *supposed* to read the
wall clock.  A file's scope is derived from its path — the first package
segment under ``repro/`` (``sim``, ``core``, ``faults`` …), or the
top-level directory name for non-package trees (``tests``,
``benchmarks``, ``examples``).  Each rule declares the scopes it applies
to (``scopes=None`` means everywhere) and the scopes it exempts.

Skipping
--------
A directory containing a ``.statics-skip`` marker file is not descended
into — this is how the intentionally-violating fixture corpus under
``tests/statics/fixtures/`` stays out of the CI gate.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from repro.statics.findings import Finding
from repro.statics.pragmas import PARSE_RULE, PragmaTable, parse_pragmas

#: Marker file: a directory containing one is skipped entirely.
SKIP_MARKER = ".statics-skip"


def scope_of(path: str) -> str:
    """Derive the rule scope of ``path``.

    ``src/repro/sim/engine.py`` → ``sim``; ``src/repro/cli.py`` →
    ``cli``; ``tests/core/test_ids.py`` → ``tests``; anything else
    falls back to its top-level directory (or file stem).
    """
    parts = os.path.normpath(path).split(os.sep)
    if "repro" in parts:
        idx = parts.index("repro")
        if idx + 1 < len(parts):
            nxt = parts[idx + 1]
            return nxt[:-3] if nxt.endswith(".py") else nxt
    for top in ("tests", "benchmarks", "examples"):
        if top in parts:
            return top
    head = parts[0] if len(parts) > 1 else parts[-1]
    return head[:-3] if head.endswith(".py") else head


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: str
    source: str
    tree: ast.AST
    scope: str
    lines: Sequence[str] = field(default_factory=list)


class Rule:
    """Base class for statics rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scopes=None`` applies everywhere; otherwise only to files whose
    derived scope is in the set.  ``excluded_scopes`` always wins.
    """

    id: str = ""
    title: str = ""
    hint: str = ""
    scopes: Optional[frozenset[str]] = None
    excluded_scopes: frozenset[str] = frozenset()

    def applies(self, ctx: FileContext) -> bool:
        if ctx.scope in self.excluded_scopes:
            return False
        return self.scopes is None or ctx.scope in self.scopes

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                hint: Optional[str] = None) -> Finding:
        return Finding(rule=self.id, path=ctx.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message,
                       hint=self.hint if hint is None else hint)


@dataclass
class Report:
    """Aggregated result of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "findings": [f.to_dict() for f in self.findings],
        }


def check_source(source: str, path: str, rules: Sequence[Rule], *,
                 scope: Optional[str] = None,
                 known_rules: Optional[set[str]] = None) -> Report:
    """Run ``rules`` over one source blob.

    ``scope`` overrides path-derived scoping (the unit tests use this to
    exercise scoped rules on in-memory snippets).  ``known_rules`` is
    the id set pragmas may legitimately name — pass the full registry
    when running a ``--rules`` subset, so a pragma for an inactive rule
    is not misreported as unknown.  The unused-pragma audit covers only
    the rules that actually ran: a pragma for a rule outside this run
    is neither used nor unused.  Returns a :class:`Report` for this
    file alone.
    """
    report = Report(files_checked=1)
    lines = source.splitlines()
    active = {rule.id for rule in rules}
    table: PragmaTable = parse_pragmas(
        source, path, active if known_rules is None else known_rules)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.findings.append(Finding(
            rule=PARSE_RULE, path=path, line=exc.lineno or 1,
            col=(exc.offset or 0) + 1 or 1,
            message=f"file does not parse: {exc.msg}",
            hint="statics needs a syntactically valid tree"))
        return report
    ctx = FileContext(path=path, source=source, tree=tree,
                      scope=scope_of(path) if scope is None else scope,
                      lines=lines)
    raw: list[Finding] = []
    for rule in rules:
        if rule.applies(ctx):
            raw.extend(rule.check(ctx))
    for finding in raw:
        if table.suppresses(finding):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.findings.extend(table.problems)
    report.findings.extend(table.unused_findings(path, active_rules=active))
    report.findings.sort(key=Finding.sort_key)
    return report


def check_file(path: str, rules: Sequence[Rule], *,
               known_rules: Optional[set[str]] = None) -> Report:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return check_source(source, path, rules, known_rules=known_rules)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic
    order, skipping hidden directories, ``__pycache__``, and any
    directory carrying a ``.statics-skip`` marker."""
    for root_path in paths:
        if os.path.isfile(root_path):
            if root_path.endswith(".py"):
                yield root_path
            continue
        for dirpath, dirnames, filenames in os.walk(root_path):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
                and not os.path.exists(os.path.join(dirpath, d, SKIP_MARKER)))
            if SKIP_MARKER in filenames:
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _check_file_task(task: tuple[str, tuple[str, ...],
                                 Optional[set[str]]]) -> Report:
    """Worker-side unit for the parallel parse phase: rules travel as
    ids (instances reconstructed from the registry) so the task tuple
    pickles under both fork and spawn start methods."""
    path, rule_ids, known_rules = task
    from repro.statics.rules import ALL_RULES
    by_id = {rule.id: rule for rule in ALL_RULES}
    rules = [by_id[rule_id] for rule_id in rule_ids]
    return check_file(path, rules, known_rules=known_rules)


def run_paths(paths: Iterable[str], rules: Sequence[Rule], *,
              known_rules: Optional[set[str]] = None,
              jobs: int = 1) -> Report:
    """Check every python file under ``paths``; aggregate one Report.

    ``jobs > 1`` fans the per-file parse+check phase out over a process
    pool.  Files are independent and the aggregate is re-sorted, so the
    parallel report is byte-identical to the serial one (asserted in
    the test suite).  Custom rule instances outside the registry can't
    be shipped to workers; such runs fall back to serial silently.
    """
    total = Report()
    files = list(iter_python_files(paths))
    reports: Iterable[Report]
    registry_ids: set[str] = set()
    if jobs > 1:
        from repro.statics.rules import ALL_RULES
        registry_ids = {rule.id for rule in ALL_RULES}
    if jobs > 1 and len(files) > 1 and \
            all(rule.id in registry_ids for rule in rules):
        import multiprocessing as mp
        try:
            context = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            context = mp.get_context("spawn")
        rule_ids = tuple(rule.id for rule in rules)
        tasks = [(path, rule_ids, known_rules) for path in files]
        with context.Pool(processes=min(jobs, len(files))) as pool:
            reports = pool.map(_check_file_task, tasks)
    else:
        reports = (check_file(path, rules, known_rules=known_rules)
                   for path in files)
    for one in reports:
        total.findings.extend(one.findings)
        total.suppressed += one.suppressed
        total.files_checked += 1
    total.findings.sort(key=Finding.sort_key)
    return total
