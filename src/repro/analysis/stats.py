"""Statistics used by the paper's evaluation.

* CDFs (Figures 9 and 12 are CDF plots);
* standard deviation of per-uplink load (Figure 12's balance metric:
  "the standard deviation of the EWMA of packet interarrival times
  across uplink ports ... uplinks were compared only to other uplinks on
  the same switch");
* pairwise Spearman rank correlation with significance filtering
  (Figure 13: "calculated pairwise correlation between ports using
  Spearman tests ... statistically significant (ρ < 0.1)" — the paper's
  ρ here is the p-value threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

#: The significance level of Figure 13's pairwise tests: a pair counts
#: when its p-value is below it (§8.4's "ρ < 0.1").
ALPHA = 0.1


class Cdf:
    """An empirical CDF over a sample."""

    def __init__(self, samples: Iterable[float]) -> None:
        self.samples = np.sort(np.asarray(list(samples), dtype=float))
        if self.samples.size == 0:
            raise ValueError("CDF needs at least one sample")

    def __len__(self) -> int:
        return int(self.samples.size)

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` (0-100)."""
        return float(np.percentile(self.samples, q))

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def min(self) -> float:
        return float(self.samples[0])

    @property
    def max(self) -> float:
        return float(self.samples[-1])

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    def at(self, value: float) -> float:
        """Fraction of samples <= value (the y of the CDF plot)."""
        return float(np.searchsorted(self.samples, value, side="right")
                     / self.samples.size)

    def points(self, max_points: int = 200) -> list[tuple[float, float]]:
        """(value, cumulative fraction) pairs, decimated for plotting or
        tabular output."""
        n = self.samples.size
        step = max(1, n // max_points)
        pts = [(float(self.samples[i]), (i + 1) / n)
               for i in range(0, n, step)]
        if pts[-1][1] != 1.0:
            pts.append((float(self.samples[-1]), 1.0))
        return pts


def balance_stddevs(rounds: Sequence[dict[str, dict[int, float]]]) -> list[float]:
    """Figure 12's balance metric over a measurement campaign.

    ``rounds`` is a sequence of measurement rounds; each round maps a
    switch name to {uplink port: measured value}.  For every round and
    every switch with at least two uplinks, emit the standard deviation
    across that switch's uplinks ("uplinks were compared only to other
    uplinks on the same switch").
    """
    out: list[float] = []
    for round_ in rounds:
        for _switch, by_port in sorted(round_.items()):
            values = [v for _p, v in sorted(by_port.items())]
            if len(values) >= 2:
                out.append(float(np.std(values)))
    return out


@dataclass
class CorrelationResult:
    """Pairwise Spearman correlations over a set of named series."""

    names: list[str]
    rho: np.ndarray      # correlation coefficients, NaN on diagonal
    pvalue: np.ndarray   # two-sided p-values

    def significant(self, alpha: float = ALPHA) -> dict[tuple[str, str], float]:
        """Significant pairs (p < alpha) → coefficient."""
        out: dict[tuple[str, str], float] = {}
        n = len(self.names)
        for i in range(n):
            for j in range(i + 1, n):
                if self.pvalue[i, j] < alpha:
                    out[(self.names[i], self.names[j])] = float(self.rho[i, j])
        return out

    def coefficient(self, a: str, b: str) -> float:
        i, j = self.names.index(a), self.names.index(b)
        return float(self.rho[i, j])

    def p_of(self, a: str, b: str) -> float:
        i, j = self.names.index(a), self.names.index(b)
        return float(self.pvalue[i, j])


def spearman_matrix(series: dict[str, Sequence[float]]) -> CorrelationResult:
    """Pairwise Spearman rank correlation of equally long series.

    Computed in one vectorised ``scipy.stats.spearmanr`` call over the
    sample matrix.  Degenerate (constant) series produce NaN
    coefficients with p=1, which downstream significance filters
    naturally ignore.
    """
    names = sorted(series)
    if len(names) < 2:
        raise ValueError("need at least two series")
    lengths = {len(series[n]) for n in names}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    n = len(names)
    matrix = np.column_stack([np.asarray(series[name], dtype=float)
                              for name in names])
    constant = np.all(matrix == matrix[0, :], axis=0)
    import warnings
    # scipy is Figure 13's alone: loading it here keeps it out of every
    # other experiment's process.
    from scipy import stats as sps
    with warnings.catch_warnings():
        # Constant columns are legal input here (idle ports); they are
        # masked out below rather than warned about.
        warnings.simplefilter("ignore", sps.ConstantInputWarning)
        rho_full, pval_full = sps.spearmanr(matrix, axis=0)
    if n == 2:  # scipy returns scalars for exactly two columns
        rho_full = np.array([[1.0, rho_full], [rho_full, 1.0]])
        pval_full = np.array([[0.0, pval_full], [pval_full, 0.0]])
    rho = np.array(rho_full, dtype=float)
    pval = np.array(pval_full, dtype=float)
    np.fill_diagonal(rho, np.nan)
    np.fill_diagonal(pval, 1.0)
    # Degenerate series: scipy yields NaN rho; normalise their p to 1.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if constant[i] or constant[j] or math.isnan(rho[i, j]):
                rho[i, j] = np.nan
                pval[i, j] = 1.0
    return CorrelationResult(names=names, rho=rho, pvalue=pval)


def significant_fraction(result: CorrelationResult,
                         alpha: float = ALPHA) -> float:
    """Fraction of all port pairs whose correlation is significant —
    the "43% more of the port pairs" comparison of §8.4."""
    n = len(result.names)
    total = n * (n - 1) // 2
    if total == 0:
        return 0.0
    return len(result.significant(alpha)) / total
