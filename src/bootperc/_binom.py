"""Binomial tail probabilities by direct log-space summation.

Tails are summed from the smaller side with compensated accumulation, so
the results keep full relative precision without relying on
incomplete-beta implementations.  Scalar routines are pure ``math``;
array routines use numpy for grid workloads.
"""

from __future__ import annotations

import math

import numpy as np

_TERM_CUTOFF = 1e-30  # relative term size below which a tail sum is closed


def _validate(m: int, q: float, what: str = "q") -> None:
    if m < 0:
        raise ValueError("number of trials must be nonnegative")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1]")


def log_binom_pmf(m: int, q: float, k: int) -> float:
    """log P(Bin(m, q) = k); -inf outside the support."""
    _validate(m, q)
    if k < 0 or k > m:
        return -math.inf
    if q == 0.0:
        return 0.0 if k == 0 else -math.inf
    if q == 1.0:
        return 0.0 if k == m else -math.inf
    return (math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
            + k * math.log(q) + (m - k) * math.log1p(-q))


def _tail_sum_from_anchor(m: int, q: float, anchor: int, upward: bool) -> float:
    """log of a monotone tail sum anchored at its largest term.

    Caller guarantees the terms decrease away from `anchor` (anchor at or
    beyond the mode in the summing direction), so every relative term is
    <= 1 and plain compensated summation is exact to ~1 ulp.
    """
    log_anchor = log_binom_pmf(m, q, anchor)
    if log_anchor == -math.inf:
        return -math.inf
    odds = q / (1.0 - q)
    rel = 1.0
    terms = [1.0]
    j = anchor
    if upward:
        while j < m:
            rel *= (m - j) / (j + 1.0) * odds
            if rel < _TERM_CUTOFF:
                break
            terms.append(rel)
            j += 1
    else:
        while j > 0:
            rel *= j / ((m - j + 1.0) * odds)
            if rel < _TERM_CUTOFF:
                break
            terms.append(rel)
            j -= 1
    return log_anchor + math.log(math.fsum(terms))


def log_binom_sf(m: int, q: float, k: int) -> float:
    """log P(Bin(m, q) >= k)."""
    _validate(m, q)
    if k <= 0:
        return 0.0
    if k > m:
        return -math.inf
    if q == 0.0:
        return -math.inf
    if q == 1.0:
        return 0.0
    if k >= (m + 1) * q:
        return _tail_sum_from_anchor(m, q, k, upward=True)
    # k below the mode: the upper tail is the big side, go through the
    # complement, itself summed from its own small side.
    log_cdf = _tail_sum_from_anchor(m, q, k - 1, upward=False)
    return math.log1p(-math.exp(log_cdf))


def log_binom_cdf(m: int, q: float, k: int) -> float:
    """log P(Bin(m, q) <= k)."""
    _validate(m, q)
    if k >= m:
        return 0.0
    if k < 0:
        return -math.inf
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return -math.inf
    if k <= (m + 1) * q - 1.0:
        return _tail_sum_from_anchor(m, q, k, upward=False)
    log_sf = _tail_sum_from_anchor(m, q, k + 1, upward=True)
    return math.log1p(-math.exp(log_sf))


# ---------------------------------------------------------------------------
# numpy grid variants


def log_pmf_array(m: int, q: float) -> np.ndarray:
    """log pmf of Bin(m, q) over the full support 0..m."""
    _validate(m, q)
    k = np.arange(m + 1, dtype=np.float64)
    if q == 0.0 or q == 1.0:
        out = np.full(m + 1, -np.inf)
        out[0 if q == 0.0 else m] = 0.0
        return out
    from scipy.special import gammaln

    return (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
            + k * math.log(q) + (m - k) * math.log1p(-q))


def log_sf_array(m: int, q: float) -> np.ndarray:
    """log P(Bin(m, q) >= k) for every k in 0..m."""
    lp = log_pmf_array(m, q)
    return np.logaddexp.accumulate(lp[::-1])[::-1]


def log_cdf_array(m: int, q: float) -> np.ndarray:
    """log P(Bin(m, q) <= k) for every k in 0..m."""
    return np.logaddexp.accumulate(log_pmf_array(m, q))


def log_cdf_head(m, q: float, k: int) -> np.ndarray:
    """log P(Bin(m, q) <= k) for an array of trial counts `m`, as a
    (k + 1)-term log-sum; meant for small k, such as the r - 1 marks an
    inactive node may hold.  Absolute error is a few ulps of the largest
    term, so log values near 0 carry about 1e-16 absolute error."""
    m = np.asarray(m, dtype=np.float64)
    if q == 0.0:
        return np.zeros(m.shape)
    if q == 1.0:
        return np.where(m <= k, 0.0, -np.inf)
    from scipy.special import gammaln

    j = np.arange(k + 1, dtype=np.float64)
    terms = (gammaln(m[:, None] + 1) - gammaln(j[None, :] + 1)
             - gammaln(m[:, None] - j[None, :] + 1)
             + j[None, :] * math.log(q)
             + (m[:, None] - j[None, :]) * math.log1p(-q))
    terms = np.where(j[None, :] > m[:, None], -np.inf, terms)
    with np.errstate(invalid="ignore"):
        shift = terms.max(axis=1)
        return shift + np.log(np.exp(terms - shift[:, None]).sum(axis=1))


def log_pmf_window(m, log_q: float, log_1mq: float, j: np.ndarray) -> np.ndarray:
    """Vectorized log pmf over increment window `j`, trial counts `m`.

    `m` may be a scalar or an array broadcastable against `j`.  The success
    probability enters through its log and log-complement so callers can
    keep full precision when q is within 1e-16 of 0 or 1; 0 * (-inf)
    products at the support edges are defined as 0.
    """
    from scipy.special import gammaln

    m = np.asarray(m, dtype=np.float64)
    j = np.asarray(j, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        term_q = np.where(j > 0, j * log_q, 0.0)
        term_c = np.where(m - j > 0, (m - j) * log_1mq, 0.0)
        out = (gammaln(m + 1) - gammaln(j + 1) - gammaln(m - j + 1)
               + term_q + term_c)
    return np.where((j > m) | (j < 0), -np.inf, out)
