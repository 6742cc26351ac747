"""Exact law of the final size via the binomial-increment Markov chain.

Writing S(t) for the number of non-seed activations by time t, the count
process is Markov: given S(t) = s, the next increment is
Bin(n - a - s, q_t) with q_t = (pi(t+1) - pi(t)) / (1 - pi(t)), and the
process stops at the first t with a + S(t) = t.  A forward pass over the
alive states (those with a + S(u) > u for all u <= t) therefore yields
the exact distribution of T = A*.

All state masses are carried in log space and reported as ScaledFloat, so
tail atoms far below 1e-308 survive.  One private kernel, _forward, runs
the pass for every query.  The binomial kernel of a step factorises into
a part of the source state, a part of the increment and a part of the
target state, so each step is one 1-D log-space convolution over the
live band of states; the log-factorials it needs are a running sum of
logs centred at S = 0, never a difference of large log-gamma values.
Each step keeps the increments in one window whose edge lies below 1e-30
of every row's peak, and the transition mass it drops is bounded and
reported alongside the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._binom import log_binom_cdf, log_binom_pmf, log_cdf_head
from .core import ModelParams, _pi, critical_quantities
from .errors import (MemoryGuardError, NumericalDegeneracyError,
                     ParameterError)
from .ratefun import ScalingFamily
from .scaled import ScaledFloat, scaled_sum

__all__ = [
    "FinalSizePmf", "exact_pmf", "exact_stop_cdf", "exact_tail_query",
    "auxiliary_tail", "brute_force_pmf", "PMF_NODE_CAP", "BRUTE_FORCE_CAP",
]

PMF_NODE_CAP = 5000
BRUTE_FORCE_CAP = 7
_ROW_REL_TOL = 1e-30
_LN_ROW_REL_TOL = math.log(_ROW_REL_TOL)


@dataclass(frozen=True)
class FinalSizePmf:
    """Exact pmf of A* over {a, ..., n}, entries as ScaledFloat.

    truncation_bound certifies the transition mass dropped by the forward
    pass's increment window (exactly 0.0 when n - a <= 45).  It does not
    cover rounding in the factorised log-space steps, which dominates
    |total() - 1|: 3.5e-14 at n = 500 and 2e-12 at n = PMF_NODE_CAP
    (p = n^-0.7, r = 2, a = ceil(2 a_c)).
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
    log_q_inactive = log_cdf_head(np.arange(t_max + 1), p, r - 1)
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

    With N = n - a, the increment from state s is Bin(N - s, q_t), and
    its log pmf at the target k = s + j factorises as
        H[s] - H[k] - lnG(j + 1) + j log q_t + (N - k) log(1 - q_t),
    where H[s] = lnG(N - s + 1) - lnG(N + 1) = -sum_{i<s} log(N - i) is
    built once as a running sum, centred at H[0] = 0, and never as a
    difference of log-gamma values.  The pass carries u = log-mass + H
    - shift, so a step is one 1-D log-space convolution
        u'[k] = (N - k) log(1 - q_t) + logsumexp_j(u[k - j] + j log q_t
                                                   - lnG(j + 1))
    over the targets from the lowest live state to the highest one plus
    j_win.  The integral shift puts the state of largest mass at u ~ 0
    after each step and sums exactly, so rounding scales with the spread
    of u over the band, not with |H| (~ N log N).

    Each step keeps the increments 0..j_win for every state, with j_win
    grown until each row's pmf at j_win is below _ROW_REL_TOL of its
    peak; log-concavity puts every dropped increment below that cutoff.
    The rows are evaluated from the same H, for every state 0..s_hi.
    A step with q_t = 1 (p = 1, or no inactive node left) moves all mass
    to S = N.
    """
    from scipy.special import gammaln

    n, p, r, a = params.n, params.p, params.r, params.a
    big = n - a
    log_q, log_1mq = _log_q_schedule(p, r, t_max)
    moving = (log_q > -np.inf) & (log_1mq > -np.inf)
    q_max = math.exp(float(log_q[moving].max())) if moving.any() else 0.0
    # rows reach H at s + mode <= s_hi + (N + 1) q and at s + j_win <= 2 s_hi
    h_top = min(big, 2 * s_hi + math.ceil((big + 1) * q_max))
    # extended-precision accumulation where numpy has it: a float64 cumsum
    # errs by ~1e-12 at s ~ 500, and H[k] enters every atom at k
    h = np.zeros(h_top + 1)
    h[1:] = np.cumsum(-np.log(big - np.arange(h_top, dtype=np.float64)),
                      dtype=np.longdouble)
    states = np.arange(s_hi + 1)
    m_arr = (big - states).astype(np.float64)
    u = np.full(s_hi + 1, -np.inf)
    u[0] = 0.0
    shift = 0.0
    absorbed = np.full(t_max, -np.inf)
    discard_ln = -math.inf

    def row_log_pmf(j, lq, l1):
        """log P(Bin(N - s, q_t) = j) for every state s, from H."""
        j = np.asarray(j, dtype=np.int64)
        target = np.minimum(states + j, h_top)
        out = (h[states] - h[target] - gammaln(j + 1.0)
               + j * lq + (m_arr - j) * l1)
        return np.where(j > m_arr, -np.inf, out)

    for t in range(t_max):
        lq, l1 = float(log_q[t]), float(log_1mq[t])
        if l1 == -math.inf:  # q_t = 1: every inactive node activates
            new = np.full(s_hi + 1, -np.inf)
            if big <= s_hi:
                new[big] = np.logaddexp.reduce(u - h[:s_hi + 1]) + h[big]
            u = new
        elif lq > -math.inf:  # otherwise increments are identically zero
            q = math.exp(lq)
            modes = np.clip(np.floor((m_arr + 1) * q), 0, m_arr)
            log_cut = row_log_pmf(modes, lq, l1) + _LN_ROW_REL_TOL
            sigma = math.sqrt(max(big * q * (1.0 - q), 1.0))
            j_win = min(s_hi, int(big * q + 12.0 * sigma) + 45)
            while j_win < s_hi and np.any(
                    row_log_pmf(j_win, lq, l1) >= log_cut):
                j_win = min(s_hi, j_win + 32)

            live = np.flatnonzero(u > -np.inf)
            lo, hi = int(live[0]), int(live[-1])
            k_hi = min(hi + j_win, s_hi)
            src = np.full(k_hi - lo + 1 + j_win, -np.inf)
            src[j_win:j_win + hi - lo + 1] = u[lo:hi + 1]
            jj = np.arange(j_win, -1, -1)
            terms = (np.lib.stride_tricks.sliding_window_view(src, j_win + 1)
                     + (jj * lq - gammaln(jj + 1.0)))
            peak = terms.max(axis=1)
            peak[peak == -np.inf] = 0.0
            terms -= peak[:, None]
            np.exp(terms, out=terms)
            with np.errstate(divide="ignore"):
                conv = peak + np.log(terms.sum(axis=1))
            conv += (big - np.arange(lo, k_hi + 1)) * l1
            top = math.floor(conv[np.argmax(conv - h[lo:k_hi + 1])])
            new = np.full(s_hi + 1, -np.inf)
            new[lo:k_hi + 1] = conv - top

            with np.errstate(divide="ignore"):
                lost = u[lo:hi + 1] + (shift - h[lo:hi + 1]) + np.log(
                    np.maximum(s_hi - states[lo:hi + 1] - j_win, 0))
            discard_ln = float(np.logaddexp.reduce(
                lost + log_cut[lo:hi + 1], initial=discard_ln))
            u = new
            shift += top
        k = t + 1 - a
        if absorb and 0 <= k <= s_hi:
            absorbed[t] = u[k] + (shift - h[k])
            u[k] = -np.inf
        if not np.isfinite(u).any():
            break
    return absorbed, u + (shift - h[:s_hi + 1]), math.exp(discard_ln)


# ---------------------------------------------------------------------------
# full pmf and truncated early-stop probability

def exact_pmf(params: ModelParams, cap: int = PMF_NODE_CAP) -> FinalSizePmf:
    """Exact distribution of A* by dynamic programming over (t, S(t))."""
    n, a = params.n, params.a
    if n > cap:
        raise MemoryGuardError(
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
                   with_bound: bool = False, cap: int = PMF_NODE_CAP):
    """P(T <= tau), exactly, with states capped at S = tau - a + 1.

    Once a + S(t) > tau the chain can never stop by tau, so such states
    are dropped as permanently safe.  The cost is O(tau^2 * window),
    independent of n, which keeps n up to 1e6 cheap when tau = O(a_c).
    A state count min(tau - a + 1, n - a) above `cap` is refused before
    anything is allocated.  With with_bound=True also returns the
    certified bound on transition mass lost to the increment window
    (0.0 whenever the band is narrow).
    """
    n, a = params.n, params.a
    if tau > n:
        raise ParameterError("tau must not exceed n")
    if tau < a:
        return (ScaledFloat(0.0), 0.0) if with_bound else ScaledFloat(0.0)
    s_hi = min(tau - a + 1, n - a)
    if s_hi > cap:
        raise MemoryGuardError(
            f"exact_stop_cdf refuses {s_hi} chain states above the cap "
            f"{cap}; pass a larger cap to run it anyway")
    absorbed, _, bound = _forward(params, tau, s_hi)
    result = ScaledFloat.from_ln(float(np.logaddexp.reduce(absorbed)))
    return (result, bound) if with_bound else result


def event_threshold(params: ModelParams, family: ScalingFamily, eps: float) -> int:
    """floor(n - eps f(n)): the inclusive stop-time threshold of the event
    {(n - A*)/f(n) > eps}."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    crit = critical_quantities(params) if params.p > 0 else None
    try:
        f_val = family.scale_at(params.n, params.p, crit)
    except (AttributeError, TypeError) as exc:
        raise ParameterError(
            f"family {family.tag} needs critical quantities, so p > 0") from exc
    return int(math.floor(params.n - eps * f_val))


def exact_tail_query(params: ModelParams, family: ScalingFamily,
                     eps: float) -> ScaledFloat:
    """P((n - A*)/f(n) > eps) = P(T <= event_threshold(params, family, eps)).

    Follows the inclusive union convention for the stopping events, i.e.
    the threshold floor(n - eps f(n)) itself is included; strict vs weak
    inequality only differs when eps f(n) hits the integer lattice.
    """
    threshold = event_threshold(params, family, eps)
    if threshold < params.a:
        return ScaledFloat(0.0)
    return exact_stop_cdf(params, threshold)


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

    Graph number g has slot s occupied iff bit s of g is set; the graph
    sampler's cascade engine runs 4096 of them at a time as one disjoint
    union.  Graphs are grouped by edge count, so the per-graph weights are
    applied to exact integer counts; the final summation is compensated.
    """
    n, p, r, a = params.n, params.p, params.r, params.a
    if n > cap:
        raise ParameterError(f"brute force enumeration is capped at n = {cap}")
    n_edges = n * (n - 1) // 2
    counts = np.zeros((n_edges + 1, n + 1), dtype=np.int64)

    from .process import _slot_pairs, _vector_cascade_sizes

    chunk = 1 << 12  # graphs per disjoint union
    for start in range(0, 1 << n_edges, chunk):
        ids = np.arange(start, min(start + chunk, 1 << n_edges), dtype=np.int64)
        bits = ((ids[:, None] >> np.arange(n_edges)[None, :]) & 1).astype(bool)
        u, v = _slot_pairs(np.flatnonzero(bits), n)
        sizes, _ = _vector_cascade_sizes(u, v, len(ids), n, r, a)
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
