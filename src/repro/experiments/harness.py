"""Shared experiment utilities: text tables and ASCII CDF plots."""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.analysis.stats import Cdf


class TextTable:
    """Minimal aligned-column text table for experiment reports."""

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} cells, "
                             f"got {len(cells)}")
        self.rows.append([self._fmt(c) for c in cells])

    @staticmethod
    def _fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        sep = "  ".join("-" * w for w in widths)
        return "\n".join([line(self.columns), sep,
                          *(line(r) for r in self.rows)])


def ascii_cdf(curves: dict[str, Cdf], width: int = 64, height: int = 12,
              log_x: bool = True, x_label: str = "",
              x_scale: float = 1.0) -> str:
    """Render one or more CDFs as an ASCII plot (the paper's figures are
    CDF plots; this keeps the terminal reports visually comparable).

    ``log_x`` matches the log-scale x-axes of Figures 9/10; each curve
    gets a distinct glyph; overlapping cells show the later curve.
    """
    if not curves:
        raise ValueError("need at least one curve")
    glyphs = "*o+x#@"
    lo = min(cdf.min for cdf in curves.values()) / x_scale
    hi = max(cdf.max for cdf in curves.values()) / x_scale
    if log_x:
        lo = max(lo, 1e-12)
        hi = max(hi, lo)
    if hi <= lo:
        # Degenerate range (single sample, or zero spread across every
        # curve): widen symmetrically around the value so the curve
        # renders mid-plot instead of collapsing onto the left axis
        # under a sliver of an x-range that reads as real spread.
        if log_x:
            lo, hi = lo / 2, hi * 2
        else:
            pad = max(abs(lo) / 2, 0.5)
            lo, hi = lo - pad, hi + pad
    if log_x:
        lo_t, hi_t = math.log10(lo), math.log10(hi)
        def to_col(value: float) -> int:
            t = (math.log10(max(value, 1e-12)) - lo_t) / (hi_t - lo_t)
            return min(width - 1, max(0, int(t * (width - 1))))
    else:
        def to_col(value: float) -> int:
            t = (value - lo) / (hi - lo)
            return min(width - 1, max(0, int(t * (width - 1))))

    grid = [[" "] * width for _ in range(height)]
    for index, (_label, cdf) in enumerate(sorted(curves.items())):
        glyph = glyphs[index % len(glyphs)]
        for row in range(height):
            fraction = (row + 0.5) / height  # bottom row ~ small fractions
            value = cdf.percentile(fraction * 100) / x_scale
            grid[height - 1 - row][to_col(value)] = glyph
    lines = ["1.0 |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("    |" + "".join(row))
    lines.append("0.0 |" + "".join(grid[-1]))
    lines.append("    +" + "-" * width)
    left = f"{lo:.3g}"
    right = f"{hi:.3g} {x_label}".rstrip()
    lines.append("     " + left + " " * max(1, width - len(left) - len(right))
                 + right)
    legend = "  ".join(f"{glyphs[i % len(glyphs)]} {label}"
                       for i, label in enumerate(sorted(curves)))
    lines.append("     " + legend)
    return "\n".join(lines)


def header(title: str, subtitle: str = "") -> str:
    bar = "=" * max(len(title), len(subtitle), 40)
    lines = [bar, title]
    if subtitle:
        lines.append(subtitle)
    lines.append(bar)
    return "\n".join(lines)
