"""Binomial and Poisson tail probabilities by direct log-space summation.

Scalar tails are summed from the smaller side by one compensated loop,
_log_anchored_sum, so the results keep full relative precision without
relying on incomplete-beta implementations.  Scalar routines are pure
``math``; array routines use numpy for grid workloads.  Log-factorials
come from one cached table, log_factorials, so numpy is the only
dependency.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ParameterError

_TERM_CUTOFF = 1e-30  # relative term size below which a tail sum is closed
# below this min(k, m - k), log C(m, k) is a falling factorial rather than
# a difference of log-gamma values, which loses ~1e-16 m log m
_FALLING_MAX = 64
# cephes lgam: log sqrt(2 pi) and the Stirling series below x = 1000
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
             7.93650340457716943945E-4, -2.77777777730099687205E-3,
             8.33333333333331927722E-2)
_ln_factorial = np.zeros(1)  # ln k! for k = 0..len - 1


def log_factorials(k_max: int) -> np.ndarray:
    """ln k! for k = 0..k_max at least, as one read-only cached array,
    grown on demand to twice its size or to k_max, whichever is larger.

    Entry k is cephes lgam(k + 1), the formula scipy.special.gammaln
    evaluates, bit for bit: log of the exact product below x = 13,
    otherwise Stirling, (x - 1/2) log x - x + log sqrt(2 pi), plus a
    five-term series in 1/x^2 (three terms from x = 1000, none above
    1e8).  Each log x is taken by math.log, libm's log; numpy's
    vectorised log is not correctly rounded and differs at a few points.
    """
    global _ln_factorial
    have = len(_ln_factorial)
    if k_max < have:
        return _ln_factorial
    x = np.arange(have + 1, max(k_max + 1, 2 * have) + 1, dtype=np.float64)
    log_x = np.fromiter(map(math.log, x.tolist()), np.float64, len(x))
    new = (x - 0.5) * log_x - x + _LS2PI
    inv2 = 1.0 / (x * x)
    series = np.full(len(x), _STIRLING[0])
    for coef in _STIRLING[1:]:
        series = series * inv2 + coef
    short = ((7.9365079365079365079365e-4 * inv2 - 2.7777777777777777777778e-3)
             * inv2 + 0.0833333333333333333333)
    series = np.where(x >= 1000.0, short, series)
    new = np.where(x > 1e8, new, new + series / x)
    for i in range(min(len(x), 13 - (have + 1))):  # x < 13: log((x - 1)!)
        new[i] = math.log(math.factorial(have + i))
    _ln_factorial = np.concatenate([_ln_factorial, new])
    _ln_factorial.setflags(write=False)
    return _ln_factorial


def _validate(m: int, q: float) -> None:
    if m < 0:
        raise ParameterError("number of trials must be nonnegative")
    if not 0.0 <= q <= 1.0:
        raise ParameterError("q must lie in [0, 1]")


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


def _log_anchored_sum(log_anchor: float, ratios) -> float:
    """log of a monotone tail sum anchored at its largest term e^log_anchor.

    `ratios` yields each next term's ratio to the one before, away from
    the anchor; the sum closes at the first relative term below
    _TERM_CUTOFF.  Callers anchor at or beyond the mode in the summing
    direction, so every relative term is <= 1 and plain compensated
    summation is exact to ~1 ulp.
    """
    rel = 1.0
    terms = [1.0]
    for ratio in ratios:
        rel *= ratio
        if rel < _TERM_CUTOFF:
            break
        terms.append(rel)
    return log_anchor + math.log(math.fsum(terms))


def _tail_sum_from_anchor(m: int, q: float, anchor: int, upward: bool) -> float:
    """log of the Bin(m, q) tail from `anchor` upward or downward; 0 < q < 1."""
    odds = q / (1.0 - q)
    if upward:
        ratios = ((m - j) / (j + 1.0) * odds for j in range(anchor, m))
    else:
        ratios = (j / ((m - j + 1.0) * odds) for j in range(anchor, 0, -1))
    return _log_anchored_sum(log_binom_pmf(m, q, anchor), ratios)


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


def log_poisson_sf(k: int, b: float) -> float:
    """log P(Poisson(b) > k) for b > 0, summed like the binomial tails:
    from the anchor k + 1 upward when it lies at or above the mode,
    otherwise through the lower tail summed downward from k."""
    if k < 0:
        return 0.0
    upward = k + 1 >= b
    anchor = k + 1 if upward else k
    if upward:
        ratios = (b / (j + 1.0) for j in itertools.count(anchor))
    else:
        ratios = (j / b for j in range(anchor, 0, -1))
    log_tail = _log_anchored_sum(
        anchor * math.log(b) - b - float(log_factorials(anchor)[anchor]), ratios)
    return log_tail if upward else math.log1p(-math.exp(log_tail))


# ---------------------------------------------------------------------------
# numpy grid variants


def log_pmf_array(m, q) -> np.ndarray:
    """log pmf of Bin(m, q) over the full support 0..m.

    Row form: integer arrays `m` and matching `q` (broadcast together) give
    one row per entry over 0..max m, -inf past the row's own m, each row
    the scalar call's floats bit for bit.  log q and log1p(-q) are taken
    by libm per entry, as numpy's vectorised log is not correctly rounded.
    A bool is not a trial count, also inside a list of ints.
    """
    if not isinstance(m, np.ndarray) and any(
            isinstance(x, (bool, np.bool_))
            for x in np.asarray(m, dtype=object).flat):
        raise ParameterError("number of trials must be an integer, not a bool")
    m = np.asarray(m)
    if m.dtype.kind not in "iu":
        raise ParameterError(f"number of trials must be an integer, not {m.dtype}")
    m, q = np.broadcast_arrays(m.astype(np.int64), np.asarray(q, dtype=np.float64))
    if (m < 0).any():
        raise ParameterError("number of trials must be nonnegative")
    if not ((0.0 <= q) & (q <= 1.0)).all():
        raise ParameterError("q must lie in [0, 1]")
    k = np.arange(m.max(initial=0) + 1)
    m_col = m[..., None]
    rest = m_col - k  # m - k, negative past m
    inner = ((0.0 < q) & (q < 1.0))[..., None]
    safe = np.where(inner, q[..., None], 0.5)  # q in {0, 1}: point masses
    qs = safe.ravel().tolist()
    log_q = np.reshape([math.log(x) for x in qs], safe.shape)
    log_1mq = np.reshape([math.log1p(-x) for x in qs], safe.shape)
    lnf = log_factorials(k[-1])
    out = (lnf[m_col] - lnf[k] - lnf[np.maximum(rest, 0)]
           + k * log_q + rest * log_1mq)
    atom = np.where(q == 0.0, 0, m)[..., None]
    out = np.where(inner, out, np.where(k == atom, 0.0, -np.inf))
    out[rest < 0] = -np.inf
    return out


def log_sf_array(log_pmf: np.ndarray) -> np.ndarray:
    """log P(X >= k) from log P(X = k), k = 0, 1, ... along the last axis."""
    return np.logaddexp.accumulate(log_pmf[..., ::-1], axis=-1)[..., ::-1]


def log_cdf_array(log_pmf: np.ndarray) -> np.ndarray:
    """log P(X <= k) from log P(X = k), k = 0, 1, ... along the last axis."""
    return np.logaddexp.accumulate(log_pmf, axis=-1)


def _log_head_terms(m: np.ndarray, q: float, k: int) -> np.ndarray:
    """c[..., j - 1] = log C(m, j) + j log(q / (1 - q)) for j = 1..k, with
    C(m, j) as the falling factorial prod_{i<j} (m - i) / j!; 0 < q < 1."""
    i = np.arange(k)
    c = m[..., None] - i
    np.maximum(c, 0.0, out=c)
    c /= i + 1.0
    with np.errstate(divide="ignore"):  # C(m, j) = 0 once j > m
        np.log(c, out=c)
    c += math.log(q) - math.log1p(-q)
    return np.cumsum(c, axis=-1, out=c)


def _log1p_sum_exp(c: np.ndarray) -> np.ndarray:
    """log(1 + sum_j e^c[..., j]), around the largest of 0 and the c."""
    top = c.max(axis=-1, initial=0.0)
    rest = np.exp(c - top[..., None]).sum(axis=-1)
    return np.where(top > 0.0, top + np.log(np.exp(-top) + rest),
                    np.log1p(rest))


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
    return m * math.log1p(-q) + _log1p_sum_exp(_log_head_terms(m, q, k))

