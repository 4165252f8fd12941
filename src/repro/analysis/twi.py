"""Tail Weight Index (TWI) of a distribution (paper Section 5.3).

The paper cites Hoaglin, Mosteller & Tukey's robust tail-weight
measures and calibrates its index with two anchors (footnote 5): an
``Exp(1)`` distribution has TWI ~1.6 and a Pareto with shape 1 has TWI
~14.  The quantile-ratio index

    TWI = [ (Q(0.99) - Q(0.5)) / (Q(0.75) - Q(0.5)) ] / g

with ``g`` the same ratio for the standard Gaussian (~3.449), matches
both anchors (1.64 and 14.2 respectively) and is what this module
implements.  Higher TWI means a heavier right tail; values around 1
indicate Gaussian-like decay, values at or above ~1.5 indicate
exponential-or-heavier tails.
"""

from __future__ import annotations

import numpy as np

#: Upper-tail quantile used by the index.
TAIL_Q = 0.99
#: Body quantile used by the index.
BODY_Q = 0.75


def gaussian_twi_norm(tail_q: float = TAIL_Q, body_q: float = BODY_Q) -> float:
    """Gaussian normalization constant of the quantile-ratio index."""
    # Imported here, where it is used: importing repro.analysis loads no scipy.
    from scipy.stats import norm

    return float((norm.ppf(tail_q) - norm.ppf(0.5)) / (norm.ppf(body_q) - norm.ppf(0.5)))


def tail_weight_index(
    values: np.ndarray,
    tail_q: float = TAIL_Q,
    body_q: float = BODY_Q,
) -> float:
    """TWI of a one-dimensional sample.

    Degenerate cases: with fewer than 4 observations, or when the body
    quantile spread ``Q(body) - Q(0.5)`` is zero (at least half the
    mass concentrated on one value), the index is defined as 0 — the
    distribution has no measurable tail.  So is a positive spread whose
    ratio is not finite: a subnormal spread overflows the ratio, and it
    is a zero spread at float resolution.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if values.size < 4:
        return 0.0
    q50, qb, qt = np.quantile(values, [0.5, body_q, tail_q])
    body = qb - q50
    if body <= 0:
        return 0.0
    with np.errstate(over="ignore"):
        ratio = (qt - q50) / body
    if not np.isfinite(ratio):
        return 0.0
    return float(ratio / gaussian_twi_norm(tail_q, body_q))
