"""Replicated tail estimation, multilevel splitting, and limit checks.

Naive estimation counts stop times below a threshold with a Wilson 95%
interval; it, the naive rate study and the Poisson-limit distance draw
their final sizes from the margin-leaping sampler.  For rare early-stop
events the fixed-effort multilevel splitting estimator conditions the
Markov chain (t, S(t)) through a ladder of running-minimum-margin levels
down to 0, multiplying the per-level crossing fractions.  Its stages
leap from level to level on the sampler's kernel, and an integer level
count spaces the ladder from the lowest mean margin down to 0, so the
ladder costs no draws.  Probabilities are carried as ScaledFloat so
estimates below float underflow survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._binom import log_cdf_head
from .core import ModelParams, SequenceSpec, classify_regime, critical_quantities
from .errors import DegenerateLevels, ParameterError
# _log_q_schedule and final_sizes_activation stay bound here, unused:
# bench/spans.py wraps both by these names
from .oracle import _log_q_schedule, event_threshold, exact_stop_cdf
from .process import (RngSpec, _as_generator, _check_replicates,
                      _leap_to_level, final_sizes_activation, final_sizes_leap)
from .ratefun import ScalingFamily, minimize_rate, tail_exponent
from .scaled import ScaledFloat, scaled_sum

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
    _check_replicates(replicates)
    if tau < params.a:
        return TailEstimate(0.0, 0.0, 0.0, replicates, -math.inf)
    if tau >= params.n:
        return TailEstimate(1.0, 1.0, 1.0, replicates, 0.0)
    hits = int((final_sizes_leap(params, replicates, rng) <= tau).sum())
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


def _split_ladder(params: ModelParams, tau: int, levels) -> list:
    if isinstance(levels, int):
        if levels < 1:
            raise ParameterError("need at least one level")
        # the lowest mean margin a + E S(t) - t, E S(t) = (n - a)(1 - Q(t))
        n, a = params.n, params.a
        t = np.arange(tau + 1)
        top = math.floor(np.min(
            a - (n - a) * np.expm1(log_cdf_head(t, params.p, params.r - 1))
            - t))
        if top <= 0 or levels == 1:
            return [0]
        raw = np.linspace(top, 0, levels + 1)[1:]
        ladder = sorted({int(round(v)) for v in raw}, reverse=True)
        if ladder[-1] != 0:
            ladder.append(0)
        return ladder
    ladder = [int(v) for v in levels]
    if not ladder or ladder[-1] != 0:
        raise ParameterError("an explicit level ladder must end at 0")
    if any(nxt >= prev for prev, nxt in zip(ladder, ladder[1:])):
        raise ParameterError("levels must be strictly decreasing")
    if ladder[0] >= params.a:
        raise ParameterError("levels must start below the initial margin a")
    return ladder


def _split_once(params: ModelParams, tau: int, ladder: list, reps: int,
                gen: np.random.Generator) -> float:
    """One product-of-conditionals pass; returns ln of the estimate."""
    t = s = np.zeros(reps, dtype=np.int64)
    log_p = 0.0
    for level in ladder:
        crossed, t, s = _leap_to_level(params, t, s, level, tau, gen)
        hits = int(crossed.sum())
        if hits == 0:
            raise DegenerateLevels(
                f"margin level {level} was never reached by any replicate")
        log_p += math.log(hits / reps)
        if level == 0:
            break
        pick = gen.integers(0, hits, size=reps)
        t, s = t[crossed][pick], s[crossed][pick]
    return log_p


def estimate_tail_splitting(params: ModelParams, tau: int, levels,
                            per_level_replicates: int, rng) -> TailEstimate:
    """Fixed-effort multilevel splitting estimate of P(T <= tau).

    `levels` is either an explicit decreasing ladder of margin levels
    ending at 0, or an integer count; in the latter case the ladder is
    spaced evenly from the floor of the lowest mean margin,
    min over t <= tau of a + (n - a)(1 - Q(t)) - t, down to 0, which
    costs no draws.  Each level multiplies the fraction of chains whose
    running minimum margin reaches it; the chains leap from level to
    level like the leap sampler.  Resampling entrance states makes
    the per-level fractions dependent, so instead of the independent-level
    variance formula the run is replicated in four independent groups and
    the interval is the t-interval over the group log-estimates.  A
    one-level ladder falls back to plain Monte Carlo on the full budget,
    which answers an empty event (tau < a) with 0 and a sure one
    (tau = n) with 1, interval included, without drawing.
    """
    if tau > params.n:
        raise ParameterError("tau must not exceed n")
    if per_level_replicates < 2 * _SPLIT_GROUPS:
        raise ParameterError(
            f"need at least {2 * _SPLIT_GROUPS} replicates per level")
    gen = _as_generator(rng)
    reps = per_level_replicates
    # an empty (tau < a) or a sure (tau = n) event needs no ladder
    ladder = _split_ladder(params, tau, levels) \
        if params.a <= tau < params.n else [0]
    if ladder == [0]:
        return _naive_tail(params, tau, reps, gen)

    group_reps = reps // _SPLIT_GROUPS
    logs = [_split_once(params, tau, ladder, group_reps, gen)
            for _ in range(_SPLIT_GROUPS)]
    estimate = scaled_sum(ScaledFloat.from_ln(lp) for lp in logs) \
        * (1.0 / _SPLIT_GROUPS)
    mean_log = math.fsum(logs) / len(logs)
    sd = math.sqrt(math.fsum((lp - mean_log) ** 2 for lp in logs)
                   / (len(logs) - 1))
    spread = _T975_DF3 * sd / math.sqrt(len(logs))
    lo = float(ScaledFloat.from_ln(mean_log - spread))
    hi = min(float(ScaledFloat.from_ln(mean_log + spread)), 1.0)
    return TailEstimate(float(estimate), lo, hi, reps, estimate.ln())


# ---------------------------------------------------------------------------
# rate-convergence studies

_EARLY_STOP_ROWS = {"table1/col4", "table2/col3", "table3/col4",
                    "table4/col2", "table5/col1"}


def default_stop_horizon(alpha: float, r: int) -> float:
    """Multiple K of a_c bounding the early-stop window {T <= K a_c},
    adapted from the constant the dominance argument needs; exposed so
    studies can override it."""
    x0, _ = minimize_rate(alpha, r)
    return max(alpha + r / (r - 1.0) * x0, 2.0) + 1.0


def rate_convergence_study(spec: SequenceSpec, family: ScalingFamily,
                           eps: float, ladder, method: str = "exact_dp",
                           replicates: int = 10_000, rng: RngSpec | None = None,
                           horizon_k: float | None = None,
                           levels: int = 4, regime=None):
    """One ConvergenceRow per ladder n, normalizing log P by the speed.

    For table cells whose rate is the pure early-stop exponent J(x0) the
    probed event is {T <= floor(K a_c)} (the dominant event), which the
    truncated DP prices at any n; other cells use the full event
    {T <= floor(n - eps f(n))}.
    """
    if method not in ("exact_dp", "naive", "splitting"):
        raise ParameterError("method must be exact_dp, naive or splitting")
    if regime is None:
        regime = classify_regime(spec)
    rows = []
    for i, n in enumerate(ladder):
        te = tail_exponent(spec, n, family, eps, regime)
        params = spec.params_at(n)
        early = te.table_row in _EARLY_STOP_ROWS
        if early:
            k_const = horizon_k if horizon_k is not None \
                else default_stop_horizon(spec.alpha, spec.r)
            threshold = int(math.floor(k_const * spec.crit_at(n).a_c))
        else:
            threshold = event_threshold(params, family, eps)
        threshold = min(threshold, params.n)

        if method == "exact_dp":
            prob = exact_stop_cdf(params, threshold)
            p_hat, log_p = float(prob), prob.ln()
        else:
            sub_rng = RngSpec(rng.seed, rng.stream + i) if rng is not None \
                else RngSpec(0, i)
            if method == "naive":
                est = _naive_tail(params, threshold, replicates, sub_rng)
            else:
                est = estimate_tail_splitting(
                    params, threshold, levels, replicates, sub_rng)
            p_hat, log_p = est.p_hat, est.log_p_hat
        rows.append(ConvergenceRow(
            n=int(n), v_n=te.speed_at_n, p_hat=p_hat, log_p=log_p,
            normalized=log_p / te.speed_at_n, target=-te.rate_at_eps))
    return rows


# ---------------------------------------------------------------------------
# Poisson-limit distance

def poisson_distance(params: ModelParams, replicates: int, rng):
    """(total variation, relative mean gap) between the empirical law of
    n - A*, drawn by the margin-leaping sampler, and Poisson(b_c).
    Meaningful near the b_c -> b regime; that is the caller's judgement,
    not enforced here.

    The mean is taken over the Poisson bulk (gaps up to the 1 - 1e-9
    quantile of Poisson(b_c)).  At any finite n the sample also contains
    the vanishing-probability early-stop branch, whose gaps of order n
    would swamp a raw mean while saying nothing about the local limit;
    those excursions belong to the early-stop tail checks instead.
    """
    _check_replicates(replicates)
    b = critical_quantities(params).b_c
    from scipy.special import gammaln, pdtrc

    gaps = params.n - final_sizes_leap(params, replicates, rng)
    counts = np.bincount(gaps)
    emp = counts / replicates

    k_hi = len(emp) - 1
    # extend until the Poisson tail beyond k_hi is negligible
    while pdtrc(k_hi, b) >= 1e-12 and k_hi <= 100 * (b + 10):
        k_hi = int(2 * k_hi + 10)
    k = np.arange(k_hi + 1)

    poi = np.exp(k * math.log(b) - b - gammaln(k + 1))
    emp_full = np.zeros(k_hi + 1)
    emp_full[:len(emp)] = emp[:k_hi + 1]
    tv = 0.5 * (np.abs(emp_full - poi).sum() + max(0.0, 1.0 - poi.sum()))

    k_bulk = int(b) + 1
    while pdtrc(k_bulk, b) > 1e-9:  # the 1 - 1e-9 quantile of Poisson(b)
        k_bulk += 1
    bulk = gaps[gaps <= k_bulk]
    mean_gap = abs(float(bulk.mean()) - b) / b if bulk.size else math.inf
    return float(tv), mean_gap

