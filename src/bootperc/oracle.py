"""Exact law of the final size via the binomial-increment Markov chain.

Writing S(t) for the number of non-seed activations by time t, the count
process is Markov: given S(t) = s, the next increment is
Bin(n - a - s, q_t) with q_t = (pi(t+1) - pi(t)) / (1 - pi(t)), and the
process stops at the first t with a + S(t) = t.  A forward pass over the
alive states (those with a + S(u) > u for all u <= t) therefore yields
the exact distribution of T = A*.

All state masses are carried in log space and reported as ScaledFloat, so
tail atoms far below 1e-308 survive.  One private kernel, _forward, runs
the pass for every query: each step keeps the increments in one window
whose edge lies below 1e-30 of every row's peak, and the transition mass
it drops is bounded and reported alongside the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._binom import log_binom_cdf, log_binom_pmf, log_pmf_window
from .core import ModelParams, _pi, critical_quantities
from .errors import NumericalDegeneracyError, ParameterError
from .ratefun import ScalingFamily
from .scaled import ScaledFloat, scaled_sum

__all__ = [
    "FinalSizePmf", "exact_pmf", "exact_stop_cdf", "exact_tail_query",
    "auxiliary_tail", "brute_force_pmf", "PMF_NODE_CAP", "BRUTE_FORCE_CAP",
]

PMF_NODE_CAP = 2000
BRUTE_FORCE_CAP = 7
_ROW_REL_TOL = 1e-30
_LN_ROW_REL_TOL = math.log(_ROW_REL_TOL)


@dataclass(frozen=True)
class FinalSizePmf:
    """Exact pmf of A* over {a, ..., n}, entries as ScaledFloat.

    truncation_bound certifies the transition mass dropped by the forward
    pass's increment window (exactly 0.0 when n - a <= 45).  It does not
    cover rounding, which dominates |total() - 1|: 1e-12 at n = 500.
    """

    params: ModelParams
    probs: dict
    truncation_bound: float = 0.0

    def prob(self, k: int) -> float:
        return float(self.probs.get(k, ScaledFloat(0.0)))

    def log2_prob(self, k: int) -> float:
        return self.probs.get(k, ScaledFloat(0.0)).log2()

    def total(self) -> ScaledFloat:
        return scaled_sum(self.probs.values())

    def support(self):
        return sorted(self.probs)

    def cdf_at(self, k: int) -> ScaledFloat:
        return scaled_sum(v for t, v in self.probs.items() if t <= k)

    def csv_rows(self):
        for k in self.support():
            yield k, self.prob(k), self.log2_prob(k)


# ---------------------------------------------------------------------------
# conditional activation hazard

def _log_q_schedule(p: float, r: int, t_max: int):
    """For t = 0..t_max-1, the log of q_t and of 1 - q_t, where q_t is the
    chance an inactive node activates at step t+1 given inactivity at t.

    Computed from the log of the inactivity probability Q(t), whose
    difference gives log(1 - q_t) without cancellation even when pi ~ 1.
    """
    if p == 0.0:
        return (np.full(t_max, -np.inf), np.zeros(t_max))
    from scipy.special import gammaln

    t = np.arange(t_max + 1, dtype=np.float64)
    k = np.arange(r, dtype=np.float64)
    if p < 1.0:
        terms = (gammaln(t[:, None] + 1) - gammaln(k[None, :] + 1)
                 - gammaln(t[:, None] - k[None, :] + 1)
                 + k[None, :] * math.log(p)
                 + (t[:, None] - k[None, :]) * math.log1p(-p))
        terms = np.where(k[None, :] > t[:, None], -np.inf, terms)
        with np.errstate(invalid="ignore"):
            shift = terms.max(axis=1)
            log_q_inactive = shift + np.log(
                np.exp(terms - shift[:, None]).sum(axis=1))
    else:
        log_q_inactive = np.where(t < r, 0.0, -np.inf)

    with np.errstate(invalid="ignore"):
        delta = log_q_inactive[1:] - log_q_inactive[:-1]
    dead = ~np.isfinite(log_q_inactive[:-1])
    delta = np.where(dead, -np.inf, delta)  # no inactive nodes remain
    with np.errstate(invalid="ignore"):
        q = -np.expm1(delta)
    q = np.where(dead, 1.0, q)
    bad = (q < -1e-12) | (q > 1.0 + 1e-12)
    if bad.any():
        t_bad = int(np.nonzero(bad)[0][0])
        raise NumericalDegeneracyError(
            f"conditional activation probability q_{t_bad} = {q[t_bad]} "
            "left [0, 1] by more than 1e-12")
    q = np.clip(q, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
    log_1mq = np.where(dead, -np.inf, delta)
    return log_q, log_1mq


# ---------------------------------------------------------------------------
# forward pass over (t, S(t))

def _forward(params: ModelParams, t_max: int, s_hi: int, absorb: bool = True):
    """Run the chain for t_max steps over the states S = 0..s_hi.

    Returns (absorbed, logvec, bound): absorbed[t] is the log-mass that
    stops at time t + 1 (all -inf when absorb is False), logvec the
    log-mass alive in each state after the last step, and bound the
    certified transition mass lost to the increment window.  Mass moving
    above s_hi is dropped on purpose and not counted in bound.

    Each step keeps the increments 0..j_win for every state, with j_win
    grown until each row's pmf at j_win is below _ROW_REL_TOL of its
    peak; log-concavity puts every dropped increment below that cutoff.
    Each target state adds its sources in ascending order.
    """
    n, p, r, a = params.n, params.p, params.r, params.a
    big = n - a
    log_q, log_1mq = _log_q_schedule(p, r, t_max)
    states = np.arange(s_hi + 1, dtype=np.int64)
    m_arr = (big - states).astype(np.float64)
    logvec = np.full(s_hi + 1, -np.inf)
    logvec[0] = 0.0
    absorbed = np.full(t_max, -np.inf)
    discard_ln = -math.inf

    for t in range(t_max):
        lq, l1 = float(log_q[t]), float(log_1mq[t])
        if lq > -math.inf:  # otherwise increments are identically zero
            q = math.exp(lq)
            modes = np.clip(np.floor((m_arr + 1) * q), 0, m_arr)
            log_cut = log_pmf_window(m_arr, lq, l1, modes) + _LN_ROW_REL_TOL
            sigma = math.sqrt(max(big * q * (1.0 - q), 1.0))
            j_win = min(s_hi, int(big * q + 12.0 * sigma) + 45)
            while j_win < s_hi and np.any(log_pmf_window(
                    m_arr, lq, l1, np.full(s_hi + 1, j_win)) >= log_cut):
                j_win = min(s_hi, j_win + 32)
            rows = log_pmf_window(m_arr[:, None], lq, l1,
                                  np.arange(j_win + 1)[None, :])
            new = np.full(s_hi + 1, -np.inf)
            for jj in range(j_win, -1, -1):
                hi = s_hi + 1 - jj
                new[jj:] = np.logaddexp(new[jj:], logvec[:hi] + rows[:hi, jj])
            with np.errstate(divide="ignore"):
                lost = logvec + np.log(np.maximum(s_hi - states - j_win, 0))
            discard_ln = float(np.logaddexp.reduce(lost + log_cut,
                                                   initial=discard_ln))
            logvec = new
        k = t + 1 - a
        if absorb and 0 <= k <= s_hi:
            absorbed[t] = logvec[k]
            logvec[k] = -np.inf
        if not np.isfinite(logvec).any():
            break
    return absorbed, logvec, math.exp(discard_ln)


# ---------------------------------------------------------------------------
# full pmf and truncated early-stop probability

def exact_pmf(params: ModelParams, cap: int = PMF_NODE_CAP) -> FinalSizePmf:
    """Exact distribution of A* by dynamic programming over (t, S(t))."""
    n, a = params.n, params.a
    if n > cap:
        raise ParameterError(
            f"exact_pmf refuses n = {n} above the cap {cap}; "
            "use exact_stop_cdf for truncated queries at large n")
    absorbed, _, bound = _forward(params, n, n - a)
    probs = {k: ScaledFloat.from_ln(float(absorbed[k - 1]))
             for k in range(a, n + 1)}
    return FinalSizePmf(params=params, probs=probs, truncation_bound=bound)


def _chain_marginal_log_pmf(params: ModelParams, t: int) -> np.ndarray:
    """Marginal law of S(t) from the same transitions, survival ignored.

    Test hook: must reproduce Bin(n - a, pi(t)) and thereby validate the
    q_t construction.
    """
    return _forward(params, t, params.n - params.a, absorb=False)[1]


def exact_stop_cdf(params: ModelParams, tau: int,
                   with_bound: bool = False):
    """P(T <= tau), exactly, with states capped at S = tau - a + 1.

    Once a + S(t) > tau the chain can never stop by tau, so such states
    are dropped as permanently safe.  The cost is O(tau^2 * window),
    independent of n, which keeps n up to 1e6 cheap when tau = O(a_c).
    With with_bound=True also returns the certified bound on transition
    mass lost to the increment window (0.0 whenever the band is narrow).
    """
    n, a = params.n, params.a
    if tau > n:
        raise ParameterError("tau must not exceed n")
    if tau < a:
        return (ScaledFloat(0.0), 0.0) if with_bound else ScaledFloat(0.0)
    absorbed, _, bound = _forward(params, tau, min(tau - a + 1, n - a))
    result = ScaledFloat.from_ln(float(np.logaddexp.reduce(absorbed)))
    return (result, bound) if with_bound else result


def exact_tail_query(params: ModelParams, family: ScalingFamily,
                     eps: float) -> ScaledFloat:
    """P((n - A*)/f(n) > eps) = P(T <= floor(n - eps f(n))).

    Follows the inclusive union convention for the stopping events, i.e.
    the threshold floor(n - eps f(n)) itself is included; strict vs weak
    inequality only differs when eps f(n) hits the integer lattice.
    """
    if eps <= 0.0:
        raise ParameterError("eps must be positive")
    crit = critical_quantities(params)
    f_val = family.scale_at(params.n, params.p, crit)
    threshold = math.floor(params.n - eps * f_val)
    if threshold < params.a:
        return ScaledFloat(0.0)
    return exact_stop_cdf(params, int(threshold))


# ---------------------------------------------------------------------------
# auxiliary process and brute force

def auxiliary_tail(params: ModelParams, t: int):
    """(P(S(t) + a <= t), P(S'(t) <= t)) where S' adds Bin(a, pi(t)).

    The second is an exact convolution; the first is never larger because
    the added count is at most a.
    """
    n, p, r, a = params.n, params.p, params.r, params.a
    if t > n:
        raise ParameterError("t must not exceed n")
    pi = _pi(t, p, r)
    p_event = math.exp(log_binom_cdf(n - a, pi, t - a)) if t >= a else 0.0
    terms = []
    for j in range(min(a, t) + 1):
        lp = log_binom_pmf(a, pi, j) + log_binom_cdf(n - a, pi, t - j)
        if lp > -math.inf:
            terms.append(math.exp(lp))
    p_aux = min(math.fsum(terms), 1.0) if terms else 0.0
    return p_event, p_aux


def brute_force_pmf(params: ModelParams, cap: int = BRUTE_FORCE_CAP) -> FinalSizePmf:
    """Exhaustive enumeration of all 2^C(n,2) graphs for n <= 7.

    Graphs are grouped by edge count, so the per-graph weights are applied
    to exact integer counts; the final summation is compensated.
    """
    n, p, r, a = params.n, params.p, params.r, params.a
    if n > cap:
        raise ParameterError(f"brute force enumeration is capped at n = {cap}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ui = np.array([ij[0] for ij in pairs], dtype=np.int64)
    vi = np.array([ij[1] for ij in pairs], dtype=np.int64)
    n_edges = len(pairs)
    counts = np.zeros((n_edges + 1, n + 1), dtype=np.int64)

    from .process import _vector_cascade_sizes

    chunk = 1 << 15
    for start in range(0, 1 << n_edges, chunk):
        ids = np.arange(start, min(start + chunk, 1 << n_edges), dtype=np.int64)
        bits = ((ids[:, None] >> np.arange(n_edges)[None, :]) & 1).astype(bool)
        sizes = _vector_cascade_sizes(bits, ui, vi, n, r, a)
        np.add.at(counts, (bits.sum(axis=1), sizes), 1)

    probs = {}
    for k in range(a, n + 1):
        if p == 0.0:
            val = 1.0 if counts[0, k] else 0.0
        elif p == 1.0:
            val = 1.0 if counts[n_edges, k] else 0.0
        else:
            terms = [
                count * math.exp(e * math.log(p) + (n_edges - e) * math.log1p(-p))
                for e, count in enumerate(counts[:, k]) if count
            ]
            val = math.fsum(terms)
        probs[k] = ScaledFloat(val)
    return FinalSizePmf(params=params, probs=probs)
