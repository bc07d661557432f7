"""Machine-readable statics output: SARIF 2.1.0 and enriched JSON.

GitHub's code-scanning UI ingests SARIF, so the CI static-checks job
uploads the ``--sarif`` artifact and findings render as PR annotations.
Both formats carry a **stable finding id**: the sha256 of
``rule:path:message`` plus an occurrence ordinal for repeats — line
numbers are deliberately *not* hashed, so an unrelated edit above a
finding shifts its location but not its identity (dashboards and
baselines track it across commits).
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.statics.engine import Report
from repro.statics.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: Engine bookkeeping rules are advisory; everything else is a broken
#: invariant.
_WARNING_RULES = frozenset({"PRAGMA001", "PRAGMA002"})


def severity_of(rule: str) -> str:
    return "warning" if rule in _WARNING_RULES else "error"


def stable_id(finding: Finding, occurrence: int) -> str:
    """Content-stable identity: independent of line/col so findings
    survive unrelated edits; the occurrence ordinal disambiguates
    repeats of the same message in one file."""
    basis = f"{finding.rule}:{finding.path}:{finding.message}:{occurrence}"
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


def _with_ids(findings: list[Finding]) -> list[tuple[Finding, str]]:
    seen: dict[tuple[str, str, str], int] = {}
    out: list[tuple[Finding, str]] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.message)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        out.append((finding, stable_id(finding, occurrence)))
    return out


def enriched_dict(report: Report) -> dict[str, Any]:
    """``report.to_dict()`` plus per-finding ``id`` and ``severity`` —
    the ``--json`` payload."""
    data = report.to_dict()
    enriched = []
    for finding, fid in _with_ids(report.findings):
        row = finding.to_dict()
        row["id"] = fid
        row["severity"] = severity_of(finding.rule)
        enriched.append(row)
    data["findings"] = enriched
    return data


def _rule_index(findings: list[Finding]) -> list[dict[str, Any]]:
    """SARIF rule metadata for every rule that appears in the report."""
    from repro.statics.rules import ALL_RULES
    titles: dict[str, str] = {}
    hints: dict[str, str] = {}
    for rule in ALL_RULES:
        titles[rule.id], hints[rule.id] = rule.title, rule.hint
    titles.setdefault("PARSE001", "file does not parse")
    titles.setdefault("PRAGMA001", "malformed allow pragma")
    titles.setdefault("PRAGMA002", "unused allow pragma")
    out = []
    for rule_id in sorted({f.rule for f in findings}):
        entry: dict[str, Any] = {
            "id": rule_id,
            "shortDescription": {
                "text": titles.get(rule_id, rule_id)},
            "defaultConfiguration": {
                "level": severity_of(rule_id)},
        }
        hint = hints.get(rule_id)
        if hint:
            entry["help"] = {"text": hint}
        out.append(entry)
    return out


def to_sarif(report: Report,
             tool_version: Optional[str] = None) -> dict[str, Any]:
    """Render a report as a single-run SARIF 2.1.0 log."""
    results = []
    for finding, fid in _with_ids(report.findings):
        result: dict[str, Any] = {
            "ruleId": finding.rule,
            "level": severity_of(finding.rule),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                },
            }],
            "partialFingerprints": {"reproStaticsId/v1": fid},
        }
        if finding.hint:
            result["message"]["text"] += f" (hint: {finding.hint})"
        results.append(result)
    driver: dict[str, Any] = {
        "name": "repro-statics",
        "informationUri":
            "https://example.invalid/repro/docs/DETERMINISM.md",
        "rules": _rule_index(report.findings),
    }
    if tool_version is not None:
        driver["version"] = tool_version
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": driver},
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }
