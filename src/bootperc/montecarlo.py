"""Replicated tail estimation, multilevel splitting, and limit checks.

Naive estimation counts stop times below a threshold with a Wilson 95%
interval; it, one-level splitting and the Poisson-limit distance draw
their final sizes from the margin-leaping sampler.  For rare early-stop
events the fixed-effort multilevel splitting estimator conditions the
Markov chain (t, S(t)) through a ladder of running-minimum-margin levels
down to 0, multiplying the per-level crossing fractions.  Its stages
leap from level to level on the sampler's kernel, and the level count
spaces the ladder from the lowest mean margin down to 0, so the
ladder costs no draws.  Each estimate above one level tabulates log Q(t)
for t <= tau once, in batch-budget chunks (process._fill_log_q); the
ladder reads the table, and every leap of every stage gathers from it
instead of re-evaluating log_cdf_head.  The four independent groups of
an estimate run as one batch of chains within the batch budget, one leap
call per level; the budget moves the realised draws, not the law.
Probabilities are carried as natural logs so estimates below float
underflow survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._binom import log_factorials, log_poisson_sf
from .core import (ModelParams, SequenceSpec, _sure_final_size,
                   classify_regime, critical_quantities)
from .errors import DegenerateLevels, MemoryGuardError, ParameterError
# _log_q_schedule and final_sizes_activation stay bound here, unused:
# bench/spans.py wraps both by these names
from .oracle import (_LN2, PMF_NODE_CAP, LogProb, _log_q_schedule, _pow2_mean,
                     event_threshold, exact_stop_cdf)
from .process import (ACTIVATION_NODE_CAP, RngSpec, _check_batch, _chunks,
                      _fill_log_q, _leap_to_level, final_sizes_activation,
                      final_sizes_leap)
from .ratefun import (_EARLY_STOP_CELLS, ScalingFamily, minimize_rate,
                      tail_exponent)

__all__ = [
    "TailEstimate", "ConvergenceRow", "estimate_tail",
    "estimate_tail_splitting", "rate_convergence_study", "poisson_distance",
    "default_stop_horizon", "wilson_interval",
]

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95):
    """Wilson score interval; behaves sensibly for zero-count tails where
    the normal approximation collapses."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ParameterError("successes must lie in [0, trials]")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """Estimated tail probability with 95% interval and natural-log value."""

    p_hat: float
    ci_low: float
    ci_high: float
    replicates: int
    log_p_hat: float

    def to_dict(self) -> dict:
        return {"p_hat": self.p_hat, "ci_low": self.ci_low,
                "ci_high": self.ci_high, "replicates": self.replicates,
                "log_p_hat": self.log_p_hat, "log_base": "e"}


@dataclass(frozen=True)
class ConvergenceRow:
    """One ladder entry of a rate-convergence study.

    normalized = log(p)/v(n) should drift toward target = -I(eps).
    """

    n: int
    v_n: float
    p_hat: float
    log_p: float
    normalized: float
    target: float


def _naive_tail(params: ModelParams, tau: int, replicates: int,
                rng) -> TailEstimate:
    """Plain Monte Carlo for P(T <= tau): the share of leap-sampler final
    sizes at most tau, with a Wilson interval."""
    gen = _check_batch(replicates, rng)
    if tau < params.a:
        return TailEstimate(0.0, 0.0, 0.0, replicates, -math.inf)
    if tau >= params.n:
        return TailEstimate(1.0, 1.0, 1.0, replicates, 0.0)
    hits = int((final_sizes_leap(params, replicates, gen) <= tau).sum())
    lo, hi = wilson_interval(hits, replicates)
    p_hat = hits / replicates
    return TailEstimate(p_hat, lo, hi, replicates,
                        math.log(p_hat) if hits else -math.inf)


def estimate_tail(params: ModelParams, family: ScalingFamily, eps: float,
                  replicates: int, rng) -> TailEstimate:
    """Naive Monte Carlo for P((n - A*)/f(n) > eps) via the margin-leaping
    sampler.  Deterministic given the RngSpec."""
    return _naive_tail(params, event_threshold(params, family, eps),
                       replicates, rng)


# ---------------------------------------------------------------------------
# multilevel splitting on the margin chain

_SPLIT_GROUPS = 4
_T975_DF3 = 3.182446305284263  # t quantile for 4 groups


def _split_ladder(params: ModelParams, tau: int, levels: int) -> tuple:
    """(ladder, log_q) for levels >= 2: log Q(t) for t = 0..tau, and the
    margin ladder spaced evenly from the floor of the lowest mean margin
    down to 0.  A table of more than ACTIVATION_NODE_CAP entries is
    refused before allocation."""
    if tau >= ACTIVATION_NODE_CAP:
        raise MemoryGuardError(
            f"splitting refuses a log Q table of {tau + 1} entries above the "
            f"cap {ACTIVATION_NODE_CAP}; levels=1 runs plain Monte Carlo")
    log_q = _fill_log_q(np.empty(tau + 1), 0, params.p, params.r)
    # the lowest mean margin a + E S(t) - t, E S(t) = (n - a)(1 - Q(t))
    n, a = params.n, params.a
    top = math.floor(np.min(
        a - (n - a) * np.expm1(log_q) - np.arange(log_q.size)))
    # linspace ends exactly at 0, so every ladder ends at level 0
    raw = np.linspace(max(top, 0), 0, levels + 1)[1:]
    ladder = sorted({int(round(v)) for v in raw}, reverse=True)
    if ladder == [0]:
        raise DegenerateLevels(
            f"the {levels}-level ladder collapses to [0]: the lowest mean "
            f"margin over t <= tau is {top}; levels=1 runs plain Monte Carlo")
    return ladder, log_q


def _split_groups(params: ModelParams, log_q: np.ndarray, ladder: list,
                  groups: int, group_reps: int,
                  gen: np.random.Generator) -> list:
    """Product-of-conditionals passes up to tau = log_q.size - 1 for
    `groups` groups of group_reps chains laid out group by group in one
    batch, the chains reading log Q from the table.  A slot resamples
    among its own group's crossers, so the groups stay independent;
    returns ln of each group's estimate."""
    owner = np.repeat(np.arange(groups), group_reps)
    t = s = np.zeros(owner.size, dtype=np.int64)
    tau = log_q.size - 1
    log_p = np.zeros(groups)
    for level in ladder:
        crossed, t, s = _leap_to_level(params, t, s, level, tau, gen,
                                       log_q.take)
        hits = np.bincount(owner[crossed], minlength=groups)
        if not hits.all():
            raise DegenerateLevels(
                f"margin level {level} was never reached by any of the "
                f"{group_reps} replicates of a group")
        log_p += np.log(hits / group_reps)
        if level == 0:
            break
        first = np.cumsum(hits) - hits
        pick = np.flatnonzero(crossed)[first[owner]
                                       + gen.integers(0, hits[owner])]
        t, s = t[pick], s[pick]
    return log_p.tolist()


def estimate_tail_splitting(params: ModelParams, tau: int, levels: int,
                            per_level_replicates: int, rng) -> TailEstimate:
    """Fixed-effort multilevel splitting estimate of P(T <= tau).

    The ladder of `levels` (an integer >= 1) margin levels is spaced
    evenly from the floor of the lowest mean margin,
    min over t <= tau of a + (n - a)(1 - Q(t)) - t, down to 0, which
    costs no draws.  Each level multiplies the fraction of chains whose
    running minimum margin reaches it; the chains leap from level to
    level like the leap sampler.  Resampling entrance states makes
    the per-level fractions dependent, so instead of the independent-level
    variance formula the run is replicated in four independent groups and
    the interval is the t-interval over the group log-estimates.  The
    groups run as one batch of chains within the batch budget, each
    resampling among its own crossers; the budget moves the realised
    draws, not the law.  Each group runs per_level_replicates // 4
    chains, and the estimate reports the chains a level ran (2000 of
    2003 asked).  One level, an empty event (tau < a), a sure
    one (tau = n) or a sure A* runs plain Monte Carlo on the full budget
    instead, which answers the empty and sure events with 0 and 1,
    interval included, without drawing.  A count above one whose ladder
    collapses to [0], because the lowest mean margin is too low to space
    levels above 0, raises DegenerateLevels.  Any other ladder needs the
    log Q table over 0..tau, refused (MemoryGuardError) above
    ACTIVATION_NODE_CAP entries before it is allocated.
    """
    if tau > params.n:
        raise ParameterError("tau must not exceed n")
    if not isinstance(levels, (int, np.integer)) or isinstance(levels, bool) \
            or levels < 1:
        raise ParameterError(f"levels must be an integer >= 1, got {levels!r}")
    reps = per_level_replicates
    gen = _check_batch(reps, rng)
    if levels == 1 or not params.a <= tau < params.n \
            or _sure_final_size(params) is not None:
        return _naive_tail(params, tau, reps, gen)
    if reps < 2 * _SPLIT_GROUPS:
        raise ParameterError(
            f"need at least {2 * _SPLIT_GROUPS} replicates per level")
    ladder, log_q = _split_ladder(params, tau, levels)

    group_reps = reps // _SPLIT_GROUPS
    # a chain holds about 16 numbers at a leap's peak, so up to 16384
    # replicates per level the groups share one batch, and from 2 ** 17
    # each group runs alone
    logs = []
    for _, groups in _chunks(_SPLIT_GROUPS, 16 * group_reps):
        logs += _split_groups(params, log_q, ladder, groups, group_reps, gen)
    p_hat, log2_p = _pow2_mean(logs)
    mean_log = math.fsum(logs) / len(logs)
    sd = math.sqrt(math.fsum((lp - mean_log) ** 2 for lp in logs)
                   / (len(logs) - 1))
    spread = _T975_DF3 * sd / math.sqrt(len(logs))
    lo = float(LogProb(mean_log - spread))
    hi = min(float(LogProb(mean_log + spread)), 1.0)
    return TailEstimate(p_hat, lo, hi, _SPLIT_GROUPS * group_reps,
                        log2_p * _LN2)


# ---------------------------------------------------------------------------
# rate-convergence studies

def default_stop_horizon(alpha: float, r: int) -> float:
    """Multiple K of a_c bounding the early-stop window {T <= K a_c},
    adapted from the constant the dominance argument needs."""
    x0, _ = minimize_rate(alpha, r)
    return max(alpha + r / (r - 1.0) * x0, 2.0) + 1.0


def rate_convergence_study(spec: SequenceSpec, family: ScalingFamily,
                           eps: float, ladder, method: str = "exact_dp",
                           replicates: int = 10_000, rng: RngSpec = RngSpec(0),
                           levels: int = 4, cap: int = PMF_NODE_CAP):
    """One ConvergenceRow per ladder n, normalizing log P by the speed.

    For table cells whose rate is the pure early-stop exponent J(x0) the
    probed event is {T <= floor(K a_c)} (the dominant event) with
    K = default_stop_horizon(alpha, r), which the truncated DP prices at
    any n; other cells use the full event {T <= floor(n - eps f(n))}.
    Method exact_dp prices it with exact_stop_cdf under the chain-state
    cap `cap`, method splitting with estimate_tail_splitting on `levels`
    levels (levels=1 is plain Monte Carlo).
    """
    if method not in ("exact_dp", "splitting"):
        raise ParameterError("method must be exact_dp or splitting")
    ladder = list(ladder)
    if not ladder:
        raise ParameterError("ladder must hold at least one n")
    regime = classify_regime(spec)
    rows = []
    for i, n in enumerate(ladder):
        te = tail_exponent(spec, n, family, eps, regime)
        params = spec.params_at(n)
        if te.table_row in _EARLY_STOP_CELLS:
            k_const = default_stop_horizon(spec.alpha, spec.r)
            threshold = int(math.floor(k_const * spec.crit_at(n).a_c))
        else:
            threshold = event_threshold(params, family, eps)
        threshold = min(threshold, params.n)

        if method == "exact_dp":
            prob = exact_stop_cdf(params, threshold, cap=cap)
            p_hat, log_p = float(prob), prob.ln()
        else:
            est = estimate_tail_splitting(
                params, threshold, levels, replicates,
                RngSpec(rng.seed, rng.stream + i))
            p_hat, log_p = est.p_hat, est.log_p_hat
        rows.append(ConvergenceRow(
            n=int(n), v_n=te.speed_at_n, p_hat=p_hat, log_p=log_p,
            normalized=log_p / te.speed_at_n, target=-te.rate_at_eps))
    return rows


# ---------------------------------------------------------------------------
# Poisson-limit distance

def _poisson_cut_points(b: float, k_start: int) -> tuple:
    """(k_hi, k_bulk) for Poisson(b): k_hi grows from k_start, doubling,
    until the tail beyond it is below 1e-12 (or k_hi > 100 (b + 10)), and
    k_bulk, the 1 - 1e-9 quantile, is the first k > b whose tail is at
    most 1e-9."""
    k_hi = k_start
    while log_poisson_sf(k_hi, b) >= math.log(1e-12) and k_hi <= 100 * (b + 10):
        k_hi = int(2 * k_hi + 10)
    k_bulk = int(b) + 1
    while log_poisson_sf(k_bulk, b) > math.log(1e-9):
        k_bulk += 1
    return k_hi, k_bulk


def poisson_distance(params: ModelParams, replicates: int, rng):
    """(total variation, relative mean gap) between the empirical law of
    n - A*, drawn by the margin-leaping sampler, and Poisson(b_c).
    Meaningful near the b_c -> b regime; that is the caller's judgement,
    not enforced here.

    The TV sum runs over 0..k_hi plus one overflow bin, the gaps above
    k_hi against the Poisson mass beyond it.  k_hi grows from the largest
    gap capped at the cut that growing from 0 reaches, so b_c alone
    bounds the memory, not the largest gap.  The mean is taken over
    the Poisson bulk (gaps up to the 1 - 1e-9 quantile of Poisson(b_c)).
    At any finite n the sample also contains the vanishing-probability
    early-stop branch, whose gaps of order n would swamp a raw mean while
    saying nothing about the local limit; those excursions belong to the
    early-stop tail checks instead.
    """
    b = critical_quantities(params).b_c
    gaps = params.n - final_sizes_leap(params, replicates, rng)
    cut = _poisson_cut_points(b, 0)[0]
    k_hi, k_bulk = _poisson_cut_points(b, min(int(gaps.max()), cut))
    emp = np.bincount(np.minimum(gaps, k_hi + 1), minlength=k_hi + 2)
    emp = emp / replicates
    k = np.arange(k_hi + 1)
    poi = np.exp(k * math.log(b) - b - log_factorials(k_hi)[:k_hi + 1])
    tail = max(0.0, 1.0 - poi.sum())
    tv = 0.5 * (np.abs(emp[:-1] - poi).sum() + abs(emp[-1] - tail))

    bulk = gaps[gaps <= k_bulk]
    mean_gap = abs(float(bulk.mean()) - b) / b if bulk.size else math.inf
    return float(tv), mean_gap
