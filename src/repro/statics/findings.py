"""Finding records produced by the statics rule engine.

A :class:`Finding` is one rule violation at one source location.  It is
deliberately plain data — JSON-able via :meth:`Finding.to_dict`, ordered
by location via :meth:`Finding.sort_key` — so the engine, the CLI, and
the test suite all consume the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line:col``.

    ``rule`` is the rule id (``DET001`` … ``SIM003``, or the engine's
    own ``PARSE001`` / ``PRAGMA001`` / ``PRAGMA002``); ``message`` states
    the specific violation; ``hint`` states the repo-approved fix.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def sort_key(self) -> Any:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        """Human-readable one-or-two-line rendering."""
        text = f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
