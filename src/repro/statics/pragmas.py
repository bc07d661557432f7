"""Inline suppression pragmas for the statics pass.

Syntax (a regular ``#`` comment, anywhere ruff would accept a ``noqa``)::

    x = sorted(peers)  # statics: allow[DET003] consumer is order-insensitive
    # statics: allow[SIM001,DET004] float literal is validated by exact_ns below
    y = schedule(delay / 1, fn)

A pragma names one or more rule ids and **must** carry a free-text
reason — an allow without a reason is itself reported (``PRAGMA001``),
and an allow that suppresses nothing is reported as unused
(``PRAGMA002``, audited per rule that ran, so partial ``--rules``
invocations do not misreport).

Attribution: a trailing pragma suppresses findings on its own physical
line; a standalone comment-line pragma suppresses findings on the next
line.  This mirrors how ``noqa``/``type: ignore`` are written and keeps
suppression reviewable right next to the code it excuses.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.statics.findings import Finding

PRAGMA_RE = re.compile(
    r"#\s*statics:\s*allow\[([A-Za-z0-9_,\s]*)\]\s*(.*)$")

#: Engine-level rule ids (not suppressible themselves).
PARSE_RULE = "PARSE001"
PRAGMA_NO_REASON = "PRAGMA001"
PRAGMA_UNUSED = "PRAGMA002"


@dataclass
class Pragma:
    """One parsed ``# statics: allow[...]`` comment."""

    line: int            #: physical line the comment sits on (1-based)
    target: int          #: line whose findings it suppresses
    rules: set[str] = field(default_factory=set)
    reason: str = ""
    #: rule ids that actually suppressed at least one finding
    used: set[str] = field(default_factory=set)


def _iter_comments(source: str) -> Iterator[tuple[int, int, str, bool]]:
    """Yield ``(line, col, text, standalone)`` for every real comment
    token.  Tokenizing (rather than regexing raw lines) keeps pragma
    examples inside docstrings and string literals inert."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                lineno, col = tok.start
                standalone = tok.line[:col].strip() == ""
                yield lineno, col, tok.string, standalone
    except (tokenize.TokenError, IndentationError):
        # Unparseable file: the engine reports PARSE001 separately.
        return


def parse_pragmas(source: str, path: str,
                  known_rules: set[str]) -> "PragmaTable":
    """Scan a file's comment tokens for allow pragmas.

    Malformed pragmas (empty rule list, unknown rule id, missing reason)
    become findings instead of silently suppressing; they never suppress.
    """
    table = PragmaTable()
    for lineno, tok_col, comment, standalone in _iter_comments(source):
        match = PRAGMA_RE.search(comment)
        if match is None:
            continue
        names = {part.strip() for part in match.group(1).split(",")
                 if part.strip()}
        reason = match.group(2).strip()
        target = lineno + 1 if standalone else lineno
        col = tok_col + match.start() + 1
        if not names:
            table.problems.append(Finding(
                rule=PRAGMA_NO_REASON, path=path, line=lineno, col=col,
                message="allow pragma names no rules",
                hint="write `# statics: allow[RULEID] reason`"))
            continue
        unknown = sorted(names - known_rules)
        if unknown:
            table.problems.append(Finding(
                rule=PRAGMA_NO_REASON, path=path, line=lineno, col=col,
                message=f"allow pragma names unknown rule(s): "
                        f"{', '.join(unknown)}",
                hint="run `repro statics --list-rules` for valid ids"))
            names -= set(unknown)
            if not names:
                continue
        if not reason:
            table.problems.append(Finding(
                rule=PRAGMA_NO_REASON, path=path, line=lineno, col=col,
                message="allow pragma carries no reason",
                hint="every suppression must say why it is safe, e.g. "
                     "`# statics: allow[DET003] order-insensitive sum`"))
            continue
        table.add(Pragma(line=lineno, target=target, rules=names,
                         reason=reason))
    return table


class PragmaTable:
    """All pragmas of one file, indexed by the line they suppress."""

    def __init__(self) -> None:
        self.pragmas: list[Pragma] = []
        self.by_target: dict[int, list[Pragma]] = {}
        self.problems: list[Finding] = []

    def add(self, pragma: Pragma) -> None:
        self.pragmas.append(pragma)
        self.by_target.setdefault(pragma.target, []).append(pragma)

    def suppresses(self, finding: Finding) -> bool:
        """True (and mark the pragma used) if ``finding`` is allowed."""
        for pragma in self.by_target.get(finding.line, ()):
            if finding.rule in pragma.rules:
                pragma.used.add(finding.rule)
                return True
        return False

    def unused_findings(self, path: str,
                        active_rules: set[str]) -> list[Finding]:
        """PRAGMA002 findings for allows that suppressed nothing.

        Audited **per rule id**: a multi-rule pragma
        (``allow[DET003,DET004]``) where only DET003 fired is reported
        unused for DET004 alone, not wholesale.  ``active_rules`` is the
        set of rules that actually ran — ids outside it *cannot* have
        fired this run, so reporting them would be noise (this is what
        lets a ``--rules`` subset audit pragmas without misreporting
        the others')."""
        out = []
        for pragma in self.pragmas:
            for rule in sorted((pragma.rules - pragma.used) & active_rules):
                out.append(Finding(
                    rule=PRAGMA_UNUSED, path=path, line=pragma.line, col=1,
                    message=f"unused suppression: allow[{rule}] matched "
                            "no finding on its target line",
                    hint="remove the pragma (or move it onto the "
                         "offending line)"))
        return out
