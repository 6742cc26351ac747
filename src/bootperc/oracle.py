"""Exact law of the final size via the binomial-increment Markov chain.

Writing S(t) for the number of non-seed activations by time t, the count
process is Markov: given S(t) = s, the next increment is
Bin(n - a - s, q_t) with q_t = (pi(t+1) - pi(t)) / (1 - pi(t)), and the
process stops at the first t with a + S(t) = t.  A forward pass over the
alive states (those with a + S(u) > u for all u <= t) therefore yields
the exact distribution of T = A*.

All state masses are carried and returned as natural logs, so tail
atoms far below 1e-308 survive.  One private kernel, _forward, runs
the pass for every query.  The binomial kernel of a step factorises into
a part of the source state, a part of the increment and a part of the
target state, so each step is one 1-D log-space convolution over the
live band of states; the log-factorials of the states are a running sum
of logs centred at S = 0, never a difference of large log-factorials, and
those of the increments come from _binom.log_factorials.
Each step keeps the increments in one window whose edge lies below 1e-30
of every row's peak, and the transition mass it drops is bounded and
reported alongside the result.  The row cut-offs and the window test do
not depend on the masses, so they are built for a block of steps at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from ._binom import _log1p_sum_exp, _log_head_terms, log_factorials
from .core import ModelParams, _sure_final_size, critical_quantities
from .errors import MemoryGuardError, ParameterError
from .ratefun import ScalingFamily, _check_eps

__all__ = [
    "FinalSizePmf", "LogProb", "exact_pmf", "exact_stop_cdf", "exact_tail_query",
    "brute_force_pmf", "PMF_NODE_CAP", "BRUTE_FORCE_CAP",
]

PMF_NODE_CAP = 5000
BRUTE_FORCE_CAP = 7
_ROW_REL_TOL = 1e-30
_LN_ROW_REL_TOL = math.log(_ROW_REL_TOL)
_ROW_BLOCK_ELEMENTS = 2 ** 13  # (steps x states) per block of row cut-offs
_LN2 = math.log(2.0)


def _pow2_mean(log_values) -> tuple:
    """(P, log2 P) for the mean P of e^x over the ln values x.  Each e^x
    is split as 2^(l2 - e) 2^e with l2 = x / ln 2 and e = floor(l2), the
    parts are added in order at the largest e, and the mean is put back
    in [1, 2) 2^e before log2 is read.  Every reported P and log2 P comes
    from here, so a single value and the splitting group mean round alike.
    """
    l2s = [float(x) / _LN2 for x in log_values if x > -math.inf]
    if not l2s:
        return 0.0, -math.inf
    top = max(math.floor(l2) for l2 in l2s)
    total = 0.0
    for l2 in l2s:
        e = math.floor(l2)
        total += math.ldexp(2.0 ** (l2 - e), e - top)
    m, e = math.frexp(total / len(log_values))  # m in [0.5, 1)
    return math.ldexp(m, top + e), math.log2(2.0 * m) + (top + e - 1)


def _log_sum_exp(terms: np.ndarray, axis: int) -> np.ndarray:
    """ln sum exp(terms) along `axis` of a 2-D array, each slice shifted
    by its peak (0 for a slice that is all -inf, whose sum is then
    ln 0 = -inf).  Works in place on terms."""
    peak = terms.max(axis=axis, keepdims=True)
    peak[peak == -np.inf] = 0.0
    terms -= peak
    np.exp(terms, out=terms)
    return (peak + np.log(terms.sum(axis=axis, keepdims=True))).ravel()


@dataclass(frozen=True, eq=False)
class LogProb:
    """A probability held as its natural log ln_p; float() is 0.0 below
    the smallest double, while ln() and log2() stay finite.
    truncation_bound is exact_stop_cdf's certified bound on the mass its
    pass dropped, as in FinalSizePmf; 0.0 for every other value."""

    ln_p: float
    truncation_bound: float = 0.0

    def __float__(self) -> float:
        return _pow2_mean([self.ln_p])[0]

    def log2(self) -> float:
        return _pow2_mean([self.ln_p])[1]

    def ln(self) -> float:
        return self.log2() * _LN2


@dataclass(frozen=True, eq=False)
class FinalSizePmf:
    """Exact pmf of A* over {a, ..., n}: log_probs[k - a] = ln P(A* = k).

    truncation_bound certifies the transition mass dropped by the forward
    pass's increment window (exactly 0.0 when n - a <= 45).  It does not
    cover rounding in the factorised log-space steps, which dominates
    |total() - 1|: 4.7e-14 at n = 500 and 1.9e-12 at n = PMF_NODE_CAP
    (p = n^-0.7, r = 2, a = ceil(2 a_c)).
    """

    params: ModelParams
    log_probs: np.ndarray
    truncation_bound: float = 0.0

    def _at(self, k: int) -> LogProb:
        a = self.params.a
        return LogProb(float(self.log_probs[k - a])
                       if a <= k <= self.params.n else -math.inf)

    def prob(self, k: int) -> float:
        return float(self._at(k))

    def log2_prob(self, k: int) -> float:
        return self._at(k).log2()

    @property
    def probs(self):
        """Read-only {k: P(A* = k)} over the support."""
        return MappingProxyType({k: self.prob(k) for k in self.support()})

    def total(self) -> LogProb:
        return self.cdf_at(self.params.n)

    def support(self):
        return list(range(self.params.a, self.params.n + 1))

    def cdf_at(self, k: int) -> LogProb:
        head = self.log_probs[:max(k - self.params.a + 1, 0)]
        return LogProb(float(np.logaddexp.reduce(head, initial=-math.inf)))

    def csv_rows(self):
        for k in self.support():
            yield k, self.prob(k), self.log2_prob(k)


# ---------------------------------------------------------------------------
# conditional activation hazard

def _log_q_schedule(p: float, r: int, t_max: int):
    """For t = 0..t_max-1, the log of q_t and of 1 - q_t, where q_t is the
    chance an inactive node activates at step t+1 given inactivity at t.

    Hazard form: q_t = p P(Bin(t, p) = r - 1) / P(Bin(t, p) <= r - 1), so
        log q_t = log p + c_{r-1}(t) - log(1 + sum_{j<r} e^{c_j(t)})
    with the head terms c_j = log C(t, j) + j log(p / (1 - p)); nothing is
    differenced, and 0 <= q_t <= p.  Needs 0 < p < 1.  q_t = 0 while
    t < r - 1, so head terms are built only from t = r - 1 on.
    """
    log_q = np.full(t_max, -np.inf)
    log_1mq = np.zeros(t_max)
    c = _log_head_terms(np.arange(r - 1, t_max, dtype=np.float64), p, r - 1)
    log_q[r - 1:] = math.log(p) + c[:, -1] - _log1p_sum_exp(c)
    log_1mq[r - 1:] = np.log1p(-np.exp(log_q[r - 1:]))
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
        H[s] - H[k] - ln j! + j log q_t + (N - k) log(1 - q_t),
    where H[s] = ln (N - s)! - ln N! = -sum_{i<s} log(N - i) is built
    once as a running sum, centred at H[0] = 0, and never as a difference
    of log-factorials; ln j! is read from the cached log_factorials table.
    The pass carries u = log-mass + H - shift, so a step is one 1-D
    log-space convolution
        u'[k] = (N - k) log(1 - q_t) + logsumexp_j(u[k - j] + j log q_t
                                                   - ln j!)
    over the targets from the lowest live state to the highest one plus
    j_win.  The integral shift puts the state of largest mass at u ~ 0
    after each step and sums exactly, so rounding scales with the spread
    of u over the band, not with |H| (~ N log N).

    Each step keeps the increments 0..j_win for every state, with j_win
    grown until each row's pmf at j_win is below _ROW_REL_TOL of its
    peak; log-concavity puts every dropped increment below that cutoff.
    The rows are evaluated from the same H, for every state 0..s_hi.
    The row modes, cut-offs and first window test depend on t alone, so
    they are built as (steps x states) arrays, about _ROW_BLOCK_ELEMENTS
    at a time, each element the same float expression that a step-by-step
    pass takes; only a step whose test fails widens its own j_win.
    Needs 0 < p < 1 and r < n (_sure_final_size answers the rest), so
    0 <= q_t <= p < 1 at every step.
    """
    n, p, r, a = params.n, params.p, params.r, params.a
    big = n - a
    log_q, log_1mq = _log_q_schedule(p, r, t_max)
    # ln j! for the increments j <= j_win <= s_hi and the row modes
    # floor((N - s + 1) q_t) <= (N + 1) p, one more for rounding in q_t
    lnf = log_factorials(min(big, max(s_hi, math.ceil((big + 1) * p) + 1)))
    # rows reach H at s + mode <= s_hi + (N + 1) p and at s + j_win <= 2 s_hi
    h_top = min(big, 2 * s_hi + math.ceil((big + 1) * p))
    # extended-precision accumulation where numpy has it: a float64 cumsum
    # errs by ~1e-12 at s ~ 500, and H[k] enters every atom at k
    h = np.zeros(h_top + 1)
    h[1:] = np.cumsum(-np.log(big - np.arange(h_top, dtype=np.float64)),
                      dtype=np.longdouble)
    states = np.arange(s_hi + 1)
    m_arr = (big - states).astype(np.float64)
    # u sits between s_hi and s_hi + 1 -inf entries, so the increment
    # windows of every target are read in place from one strided view:
    # rows[s_hi + k - j] starts at u[k - j], and u is -inf outside the
    # live band u[lo:hi + 1]
    pad = np.full(3 * s_hi + 2, -np.inf)
    u = pad[s_hi:2 * s_hi + 1]
    u[0] = 0.0
    rows = np.lib.stride_tricks.as_strided(
        pad, (2 * s_hi + 2, s_hi + 1), pad.strides * 2, writeable=False)
    lo = hi = 0
    shift = 0.0
    absorbed = np.full(t_max, -np.inf)
    discard_ln = -math.inf
    steps = max(1, _ROW_BLOCK_ELEMENTS // (s_hi + 1))  # per block
    t0 = t_end = 0

    def row_log_pmf(j, lq, l1):
        """log P(Bin(N - s, q_t) = j) for every state s, from H; j, lq and
        l1 may be columns, one row per step."""
        j = np.asarray(j, dtype=np.int64)
        target = np.minimum(states + j, h_top)
        out = (h[:s_hi + 1] - h[target] - lnf[j]
               + j * lq + (m_arr - j) * l1)
        return np.where(j > m_arr, -np.inf, out)

    # ln 0 = -inf is the convolution of a window with no live mass
    with np.errstate(divide="ignore"):
        for t in range(t_max):
            lq, l1 = float(log_q[t]), float(log_1mq[t])
            if lq > -math.inf:  # otherwise increments are identically zero
                if t >= t_end:  # the rows of the next block of steps at once
                    t0, t_end = t, min(t + steps, t_max)
                    qs = [math.exp(x) for x in log_q[t0:t_end]]
                    cols = (log_q[t0:t_end, None], log_1mq[t0:t_end, None])
                    modes = np.clip(
                        np.floor((m_arr + 1) * np.array(qs)[:, None]),
                        0, m_arr)
                    log_cuts = row_log_pmf(modes, *cols) + _LN_ROW_REL_TOL
                    wins = [min(s_hi, int(big * q + 12.0 * math.sqrt(
                        max(big * q * (1.0 - q), 1.0))) + 45) for q in qs]
                    grows = np.any(row_log_pmf(np.array(wins)[:, None], *cols)
                                   >= log_cuts, axis=1)
                log_cut, j_win = log_cuts[t - t0], wins[t - t0]
                if grows[t - t0]:  # then widen the window 32 at a time
                    while j_win < s_hi and np.any(
                            row_log_pmf(j_win, lq, l1) >= log_cut):
                        j_win = min(s_hi, j_win + 32)

                k_hi = min(hi + j_win, s_hi)
                terms = rows[s_hi + lo - j_win:s_hi + k_hi - j_win + 1,
                             :j_win + 1] + (
                    np.arange(j_win, -1, -1) * lq - lnf[j_win::-1])
                conv = _log_sum_exp(terms, axis=1)
                conv += m_arr[lo:k_hi + 1] * l1
                top = math.floor(conv[(conv - h[lo:k_hi + 1]).argmax()])

                # state s drops j_win < j <= s_hi - s, each below its cut-off
                cut = min(hi, s_hi - j_win - 1) + 1
                if lo < cut:
                    lost = u[lo:cut] + (shift - h[lo:cut]) + np.log(
                        s_hi - states[lo:cut] - j_win)
                    discard_ln = float(np.logaddexp.reduce(
                        lost + log_cut[lo:cut], initial=discard_ln))
                u[lo:k_hi + 1] = conv - top
                hi = k_hi
                shift += top
            k = t + 1 - a
            if absorb and 0 <= k <= s_hi:
                absorbed[t] = u[k] + (shift - h[k])
                u[k] = -np.inf
            while lo <= hi and not u[lo] > -np.inf:
                lo += 1
            if lo > hi:
                break
    return absorbed, u + (shift - h[:s_hi + 1]), math.exp(discard_ln)


# ---------------------------------------------------------------------------
# full pmf and truncated early-stop probability

def _stop_atoms(params: ModelParams, tau: int, s_hi: int):
    """(ln P(T = t) for t = a..tau, truncation bound), from one pass over
    the states 0..s_hi, or the point mass of a sure A* with bound 0.0.
    Needs tau >= a."""
    a = params.a
    sure = _sure_final_size(params)
    if sure is not None:
        return np.where(np.arange(a, tau + 1) == sure, 0.0, -np.inf), 0.0
    absorbed, _, bound = _forward(params, tau, s_hi)
    return absorbed[a - 1:], bound


def exact_pmf(params: ModelParams, cap: int = PMF_NODE_CAP) -> FinalSizePmf:
    """Exact distribution of A* by dynamic programming over (t, S(t))."""
    n = params.n
    if n > cap:
        raise MemoryGuardError(
            f"exact_pmf refuses n = {n} above the cap {cap}; "
            "use exact_stop_cdf for truncated queries at large n")
    return FinalSizePmf(params, *_stop_atoms(params, n, n - params.a))


def exact_stop_cdf(params: ModelParams, tau: int,
                   cap: int = PMF_NODE_CAP) -> LogProb:
    """P(T <= tau), exactly, with states capped at S = tau - a + 1.

    Once a + S(t) > tau the chain can never stop by tau, so such states
    are dropped as permanently safe.  The cost is O(tau^2 * window),
    independent of n, which keeps n up to 1e6 cheap when tau = O(a_c).
    A state count min(tau - a + 1, n - a) above `cap` is refused before
    anything is allocated.  The result's truncation_bound certifies the
    transition mass lost to the increment window (0.0 whenever the band
    is narrow).
    """
    n, a = params.n, params.a
    if tau > n:
        raise ParameterError("tau must not exceed n")
    s_hi = min(tau - a + 1, n - a)
    if s_hi > cap:
        raise MemoryGuardError(
            f"exact_stop_cdf refuses {s_hi} chain states above the cap "
            f"{cap}; pass a larger cap to run it anyway")
    if tau < a:  # an empty event: no DP
        return LogProb(-math.inf)
    atoms, bound = _stop_atoms(params, tau, s_hi)
    return LogProb(float(np.logaddexp.reduce(atoms)), bound)


def event_threshold(params: ModelParams, family: ScalingFamily, eps: float) -> int:
    """floor(n - eps f(n)): the inclusive stop-time threshold of the event
    {(n - A*)/f(n) > eps}."""
    _check_eps(eps)
    crit = critical_quantities(params) if params.p > 0 else None
    f_val = family.scale_at(params.n, params.p, crit)
    return int(math.floor(params.n - eps * f_val))


def exact_tail_query(params: ModelParams, family: ScalingFamily,
                     eps: float) -> LogProb:
    """P((n - A*)/f(n) > eps) = P(T <= event_threshold(params, family, eps)).

    Follows the inclusive union convention for the stopping events, i.e.
    the threshold floor(n - eps f(n)) itself is included; strict vs weak
    inequality only differs when eps f(n) hits the integer lattice.
    """
    return exact_stop_cdf(params, event_threshold(params, family, eps))


# ---------------------------------------------------------------------------
# brute force

@lru_cache(maxsize=128)
def _final_size_counts(n: int, r: int, a: int) -> np.ndarray:
    """counts[e, k], the number of graphs on n nodes with e edges whose
    final size is k, summed over the graph sampler's own enumeration of
    every graph id (process._graph_closures, the table its small-n path
    reads).  The table does not depend on p, so it is cached, and
    read-only because the cache hands the same array to every call."""
    from .process import _graph_closures

    counts = np.zeros((n * (n - 1) // 2 + 1, n + 1), dtype=np.int64)
    for edges, sizes in _graph_closures(n, r, a):
        np.add.at(counts, (edges, sizes), 1)
    counts.setflags(write=False)
    return counts


def brute_force_pmf(params: ModelParams) -> FinalSizePmf:
    """Exhaustive enumeration of all 2^C(n,2) graphs for n <= BRUTE_FORCE_CAP.

    Graphs are grouped by edge count (_final_size_counts), so each atom
    is one log-sum-exp, shifted by its largest term, over the edge counts
    e with a nonzero count: log(count) + e log p + (C(n, 2) - e) log(1 - p).
    """
    n, p, r, a = params.n, params.p, params.r, params.a
    if n > BRUTE_FORCE_CAP:
        raise ParameterError(
            f"brute force enumeration is capped at n = {BRUTE_FORCE_CAP}")
    n_edges = n * (n - 1) // 2
    counts = _final_size_counts(n, r, a)
    e = np.arange(n_edges + 1)
    if p == 0.0 or p == 1.0:  # every graph weight is 0 but one
        log_w = np.where(e == (0 if p == 0.0 else n_edges), 0.0, -np.inf)
    else:
        log_w = e * math.log(p) + (n_edges - e) * math.log1p(-p)
    with np.errstate(divide="ignore"):  # log 0 = -inf drops an empty count
        log_probs = _log_sum_exp(log_w[:, None] + np.log(counts[:, a:]), axis=0)
    return FinalSizePmf(params, log_probs)
