"""Empirical cumulative distribution functions (Fig. 9's plot type)."""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.errors import AnalysisError


class ECDF:
    """An empirical CDF over a sample of non-negative values.

    >>> cdf = ECDF([1.0, 2.0, 4.0, 8.0])
    >>> cdf(2.0)
    0.5
    >>> cdf.fraction_below(10_000)
    1.0
    """

    def __init__(self, values: Iterable[float]) -> None:
        if not isinstance(values, np.ndarray):
            values = list(values)
        # Stable, so equal values keep the order ``sorted`` gave them.
        data = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
        if data.size == 0:
            raise AnalysisError("cannot build an ECDF from an empty sample")
        self._values = data

    @property
    def n(self) -> int:
        """Sample size."""
        return int(self._values.size)

    @property
    def values(self) -> np.ndarray:
        """The sorted sample (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def __call__(self, x: float) -> float:
        """P(X <= x), the right-continuous empirical CDF."""
        return float(np.searchsorted(self._values, x, side="right")) / self.n

    def fraction_below(self, threshold: float) -> float:
        """P(X < threshold) — the paper's "within 10,000 s" statistic."""
        return float(np.searchsorted(self._values, threshold, side="left")) / self.n

    def quantile(self, q: float) -> float:
        """The q-quantile of the sample (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError("quantile must be in [0, 1], got %r" % q)
        return float(np.quantile(self._values, q))

    def steps(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) arrays for plotting the step function."""
        fractions = np.arange(1, self.n + 1, dtype=float) / self.n
        return self._values.copy(), fractions

    def series(self, points: Iterable[float]) -> List[Tuple[float, float]]:
        """Evaluate at the given points: ``[(x, F(x)), ...]`` for tables."""
        return [(float(x), self(float(x))) for x in points]
