"""Determinism & simulation-invariant static analysis.

An AST-based rule engine (``repro statics`` / ``make statics``) that
encodes this repository's determinism contracts as pre-execution checks:
seeded-RNG-only simulation layers, no wall-clock outside runtime,
no unordered-set iteration anywhere under ``src/repro``, no
PYTHONHASHSEED-dependent ordering keys, integer-only simulation time,
and link-only packet delivery.  See
docs/DETERMINISM.md for the contract and each rule's rationale, and
``# statics: allow[RULE] reason`` for the suppression syntax.
"""

from repro.statics.engine import (FileContext, Report, Rule, check_file,
                                  check_source, iter_python_files,
                                  run_paths, scope_of)
from repro.statics.findings import Finding
from repro.statics.pragmas import Pragma, PragmaTable, parse_pragmas
from repro.statics.rules import ALL_RULE_IDS, ALL_RULES

__all__ = [
    "ALL_RULES",
    "ALL_RULE_IDS",
    "FileContext",
    "Finding",
    "Pragma",
    "PragmaTable",
    "Report",
    "Rule",
    "check_file",
    "check_source",
    "iter_python_files",
    "parse_pragmas",
    "run_paths",
    "scope_of",
]
