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
# below this min(k, m - k), log C(m, k) is a falling factorial rather than
# a difference of log-gamma values, which loses ~1e-16 m log m
_FALLING_MAX = 64


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
    j = min(k, m - k)
    if j < _FALLING_MAX:  # exact to a few ulps, like log_cdf_head
        log_comb = math.fsum(math.log((m - i) / (i + 1.0)) for i in range(j))
    else:
        log_comb = math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
    return log_comb + k * math.log(q) + (m - k) * math.log1p(-q)


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
    """log P(Bin(m, q) <= k) for an array (or scalar) of trial counts `m`;
    meant for small k, such as the r - 1 marks an inactive node may hold.

    Writes the head as (1 - q)^m * sum_{j <= k} C(m, j) (q / (1 - q))^j
    and takes C(m, j) as the falling factorial prod_{i<j} (m - i) / j! in
    log space, so no large log-gamma values are differenced.  Against
    50-digit arithmetic up to m = 1e7 the error stays within 11 ulps of
    max(|log P|, m q): 3e-15 relative wherever |log P| > 1/2."""
    m = np.asarray(m, dtype=np.float64)
    if q == 0.0:
        return np.zeros(m.shape)
    if q == 1.0:
        return np.where(m <= k, 0.0, -np.inf)
    # c[j - 1] = log C(m, j) + j log(q / (1 - q)) for j = 1..k
    i = np.arange(k)
    with np.errstate(divide="ignore"):  # C(m, j) = 0 once j > m
        c = np.cumsum(np.log(np.maximum(m[..., None] - i, 0.0) / (i + 1.0))
                      + (math.log(q) - math.log1p(-q)), axis=-1)
    # log(1 + sum_j e^c[j]) around the largest of 0 and the c[j]
    top = c.max(axis=-1, initial=0.0)
    rest = np.exp(c - top[..., None]).sum(axis=-1)
    return m * math.log1p(-q) + np.where(
        top > 0.0, top + np.log(np.exp(-top) + rest), np.log1p(rest))

