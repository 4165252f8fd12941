"""Empirical cumulative distribution functions.

Every evaluation plot of the paper is an empirical CDF (or a statistic
derived from one), so the class below is the common currency of the
experiment harness: it evaluates ``P[X <= x]``, inverts to quantiles,
and renders fixed-grid series for textual reports.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


class EmpiricalCDF:
    """Right-continuous empirical CDF of a one-dimensional sample.

    Optionally weighted: ``weights`` lets published samples count once
    per subscriber they represent.
    """

    def __init__(self, values: Iterable[float], weights: Iterable[float] = None):
        values = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                            dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if values.size == 0:
            raise ValueError("cannot build a CDF from an empty sample")
        if weights is None:
            w = np.ones_like(values)
        else:
            w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                           dtype=np.float64)
            if w.shape != values.shape:
                raise ValueError("weights must match values in shape")
            if (w < 0).any() or w.sum() <= 0:
                raise ValueError("weights must be non-negative with positive sum")
        order = np.argsort(values, kind="stable")
        self.values = values[order]
        self._cum = np.cumsum(w[order])
        self._cum /= self._cum[-1]

    @property
    def n(self) -> int:
        """Number of underlying observations."""
        return self.values.shape[0]

    def __call__(self, x) -> np.ndarray:
        """Evaluate ``P[X <= x]`` at scalar or array ``x``."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.values, x, side="right")
        out = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def quantile(self, q) -> np.ndarray:
        """Smallest value whose CDF reaches ``q`` (generalized inverse)."""
        q = np.asarray(q, dtype=np.float64)
        if ((q < 0) | (q > 1)).any():
            raise ValueError("quantiles must be in [0, 1]")
        idx = np.searchsorted(self._cum, q, side="left")
        idx = np.minimum(idx, self.n - 1)
        out = self.values[idx]
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def median(self) -> float:
        """The distribution median."""
        return float(self.quantile(0.5))

    @property
    def mean(self) -> float:
        """Weighted mean of the sample."""
        w = np.diff(np.concatenate([[0.0], self._cum]))
        return float((self.values * w).sum())

    def series(self, grid: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """``(grid, cdf(grid))`` pair for report tables."""
        grid = np.asarray(grid, dtype=np.float64)
        return grid, np.asarray(self(grid), dtype=np.float64)

    def __repr__(self) -> str:
        return (
            f"EmpiricalCDF(n={self.n}, median={self.median:.4g}, "
            f"range=[{self.values[0]:.4g}, {self.values[-1]:.4g}])"
        )
