"""Replicated tail estimation, multilevel splitting, and limit checks.

Naive estimation counts stop times below a threshold with a Wilson 95%
interval; it, the naive rate study and the Poisson-limit distance draw
their final sizes from the margin-leaping sampler.  For rare early-stop
events the fixed-effort multilevel splitting estimator conditions the
Markov chain (t, S(t)) through a ladder of running-minimum-margin levels
down to 0, multiplying the per-level crossing fractions; probabilities
are carried as ScaledFloat so estimates below float underflow survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, SequenceSpec, classify_regime, critical_quantities
from .errors import DegenerateLevels, ParameterError
from .oracle import _log_q_schedule, exact_stop_cdf
# final_sizes_activation stays bound here: bench/spans.py wraps it by this name
from .process import (RngSpec, _as_generator, _check_replicates,
                      final_sizes_activation, final_sizes_leap)
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


def estimate_tail(params: ModelParams, family: ScalingFamily, eps: float,
                  replicates: int, rng) -> TailEstimate:
    """Naive Monte Carlo for P((n - A*)/f(n) > eps) via the margin-leaping
    sampler.  Deterministic given the RngSpec."""
    _check_replicates(replicates)
    threshold = event_threshold(params, family, eps)
    if threshold < params.a:
        return TailEstimate(0.0, 0.0, 0.0, replicates, -math.inf)
    if threshold >= params.n:
        return TailEstimate(1.0, 1.0, 1.0, replicates, 0.0)
    sizes = final_sizes_leap(params, replicates, rng)
    hits = int((sizes <= threshold).sum())
    lo, hi = wilson_interval(hits, replicates)
    p_hat = hits / replicates
    return TailEstimate(p_hat, lo, hi, replicates,
                        math.log(p_hat) if hits else -math.inf)


# ---------------------------------------------------------------------------
# multilevel splitting on the margin chain

def _run_stage(params: ModelParams, tau: int, q_sched: np.ndarray,
               start_t: np.ndarray, start_s: np.ndarray, level: int,
               gen: np.random.Generator):
    """Advance chains to the first time the margin a + S(t) - t reaches
    `level`, or to tau.  Margins fall by at most 1 per step, so crossing
    states sit exactly on the level."""
    n, a = params.n, params.a
    s = start_s.astype(np.int64).copy()
    crossed = np.zeros(len(s), dtype=bool)
    cross_t = np.zeros(len(s), dtype=np.int64)
    for t in range(tau):
        stepping = (start_t <= t) & ~crossed
        if stepping.any():
            inc = gen.binomial((n - a) - s[stepping], q_sched[t])
            s[stepping] += inc
            margin = a + s[stepping] - (t + 1)
            newly = margin <= level
            if newly.any():
                idx = np.nonzero(stepping)[0][newly]
                crossed[idx] = True
                cross_t[idx] = t + 1
    return crossed, cross_t, s


def _min_margins(params: ModelParams, tau: int, q_sched: np.ndarray,
                 replicates: int, gen: np.random.Generator) -> np.ndarray:
    n, a = params.n, params.a
    s = np.zeros(replicates, dtype=np.int64)
    lowest = np.full(replicates, a, dtype=np.int64)
    for t in range(tau):
        s += gen.binomial((n - a) - s, q_sched[t])
        np.minimum(lowest, a + s - (t + 1), out=lowest)
    return lowest


_SPLIT_GROUPS = 4
_T975_DF3 = 3.182446305284263  # t quantile for 4 groups


def _split_ladder(params: ModelParams, tau: int, q_sched: np.ndarray,
                  levels, reps: int, gen: np.random.Generator) -> list:
    if isinstance(levels, int):
        if levels < 1:
            raise ParameterError("need at least one level")
        pilot = _min_margins(params, tau, q_sched, reps, gen)
        top = int(np.median(pilot))
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
                q_sched: np.ndarray, gen: np.random.Generator) -> float:
    """One product-of-conditionals pass; returns ln of the estimate."""
    start_t = np.zeros(reps, dtype=np.int64)
    start_s = np.zeros(reps, dtype=np.int64)
    log_p = 0.0
    for level in ladder:
        crossed, cross_t, cross_s = _run_stage(
            params, tau, q_sched, start_t, start_s, level, gen)
        hits = int(crossed.sum())
        if hits == 0:
            raise DegenerateLevels(
                f"margin level {level} was never reached by any replicate")
        log_p += math.log(hits / reps)
        if level == 0:
            break
        pick = gen.integers(0, hits, size=reps)
        start_t = cross_t[crossed][pick]
        start_s = cross_s[crossed][pick]
    return log_p


def estimate_tail_splitting(params: ModelParams, tau: int, levels,
                            per_level_replicates: int, rng) -> TailEstimate:
    """Fixed-effort multilevel splitting estimate of P(T <= tau).

    `levels` is either an explicit decreasing ladder of margin levels
    ending at 0, or an integer count; in the latter case the ladder is
    spaced evenly between the pilot-run median of the running minimum
    margin and 0.  Each level multiplies the fraction of chains whose
    running minimum margin reaches it.  Resampling entrance states makes
    the per-level fractions dependent, so instead of the independent-level
    variance formula the run is replicated in four independent groups and
    the interval is the t-interval over the group log-estimates.
    """
    if tau > params.n:
        raise ParameterError("tau must not exceed n")
    if per_level_replicates < 2 * _SPLIT_GROUPS:
        raise ParameterError(
            f"need at least {2 * _SPLIT_GROUPS} replicates per level")
    gen = _as_generator(rng)
    if tau < params.a:
        return TailEstimate(0.0, 0.0, 0.0, per_level_replicates, -math.inf)
    log_q, _ = _log_q_schedule(params.p, params.r, tau)
    q_sched = np.exp(log_q)
    reps = per_level_replicates
    ladder = _split_ladder(params, tau, q_sched, levels, reps, gen)

    if ladder == [0]:
        # not rare at this horizon: plain Monte Carlo on the full budget
        crossed, _, _ = _run_stage(
            params, tau, q_sched, np.zeros(reps, dtype=np.int64),
            np.zeros(reps, dtype=np.int64), 0, gen)
        hits = int(crossed.sum())
        lo, hi = wilson_interval(hits, reps)
        return TailEstimate(hits / reps, lo, hi, reps,
                            math.log(hits / reps) if hits else -math.inf)

    group_reps = reps // _SPLIT_GROUPS
    logs = [_split_once(params, tau, ladder, group_reps, q_sched, gen)
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
                sizes = final_sizes_leap(params, replicates, sub_rng)
                hits = int((sizes <= threshold).sum())
                p_hat = hits / replicates
                log_p = math.log(p_hat) if hits else -math.inf
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

