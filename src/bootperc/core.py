"""Model parameters, activation-time law, critical quantities and regimes.

The activation threshold process on G(n, p) is driven by the probability
pi(t) that a fixed non-seed node has collected at least r marks after t
steps, i.e. the CDF of the r-th-success time in Bernoulli(p) trials.
Everything in this module is a closed-form function of (n, p, r, a) or of
a parametric family n -> (p_n, a_n); nothing here is random.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from ._binom import log_binom_sf, log_cdf_head
from .errors import InconclusiveTrend, ParameterError

__all__ = [
    "ModelParams", "CriticalQuantities", "SequenceSpec", "Regime",
    "BcDiverges", "BcFinite", "BcVanishes",
    "AcNpDiverges", "AcNpFinite", "AcNpVanishes",
    "ActivationProb", "activation_prob", "log_inactive_prob",
    "critical_quantities", "check_hypotheses", "classify_regime",
    "mean_usable_curve", "detect_trend", "Trend", "TrendResult",
    "TrendOptions", "CLASSIFY_LADDER",
]


@dataclass(frozen=True)
class ModelParams:
    """One finite instance (n, p, r, a) of the percolation model.

    p = 0 and p = 1 are admitted as exact degenerate cases; they anchor
    trivial tests even though the asymptotic theory assumes p in (0, 1).
    """

    n: int
    p: float
    r: int
    a: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n}")
        if not isinstance(self.r, int) or self.r < 2:
            raise ParameterError(f"r must be an integer >= 2, got {self.r}")
        if not isinstance(self.a, int) or not 1 <= self.a <= self.n:
            raise ParameterError(f"a must satisfy 1 <= a <= n, got {self.a}")
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"p must lie in [0, 1], got {self.p}")


class ActivationProb(NamedTuple):
    pi: float
    one_minus_pi: float


def log_inactive_prob(t: float, p: float, r: int) -> float:
    """log P(Bin(floor(t), p) <= r - 1), the log-probability of staying
    inactive through time t.  Full relative precision even when the value
    is far below the double-precision floor of 1 - pi."""
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if r < 2:
        raise ParameterError("r must be >= 2")
    if p == 0.0:
        return 0.0
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"p must lie in (0, 1], got {p}")
    m = math.floor(t)
    if m < r:
        return 0.0
    return float(log_cdf_head(m, p, r - 1))


def activation_prob(t: float, p: float, r: int) -> ActivationProb:
    """pi(t) = P(Bin(floor(t), p) >= r) and its complement.

    The complement is an r-term log-space sum, so it keeps full relative
    precision when pi is close to 1; when pi <= 1/2 the head itself is
    summed directly instead.  Real t is floored, matching the convention
    that extends the activation law to noninteger times.
    """
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"p must lie in (0, 1], got {p}")
    if r < 2:
        raise ParameterError("r must be >= 2")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    m = math.floor(t)
    if m < r:
        return ActivationProb(0.0, 1.0)
    if p == 1.0:
        return ActivationProb(1.0, 0.0)
    one_minus_pi = math.exp(log_inactive_prob(m, p, r))
    if one_minus_pi >= 0.5:
        pi = math.exp(log_binom_sf(m, p, r))
    else:
        pi = 1.0 - one_minus_pi
    return ActivationProb(pi, one_minus_pi)


def _pi(t: float, p: float, r: int) -> float:
    """Total version of activation_prob().pi for code paths that admit
    the degenerate p = 0."""
    if p == 0.0:
        return 0.0
    return activation_prob(t, p, r).pi


@dataclass(frozen=True)
class CriticalQuantities:
    """Critical time/seed count and the two residual-count parameters.

    a_c = (1 - 1/r) * t_c holds exactly (a_c is computed from t_c).  The
    log fields carry b_c and its (1-p)^n variant past float underflow.
    """

    t_c: float
    a_c: float
    b_c: float
    b_c_prime: float
    log_b_c: float
    log_b_c_prime: float


def _crit_from(n, p: float, r: int) -> CriticalQuantities:
    if p <= 0.0:
        raise ParameterError("critical quantities require p > 0")
    log_t_c = (math.lgamma(r) - math.log(n) - r * math.log(p)) / (r - 1)
    t_c = math.exp(log_t_c)
    np_ = n * p
    log_b_c = math.log(n) + (r - 1) * math.log(np_) - math.lgamma(r) - np_
    log_b_c_prime = (math.log(n) + (r - 1) * math.log(np_) - math.lgamma(r)
                     + n * math.log1p(-p)) if p < 1.0 else -math.inf
    return CriticalQuantities(
        t_c=t_c, a_c=(1.0 - 1.0 / r) * t_c,
        b_c=math.exp(log_b_c), b_c_prime=math.exp(log_b_c_prime),
        log_b_c=log_b_c, log_b_c_prime=log_b_c_prime,
    )


def critical_quantities(params: ModelParams) -> CriticalQuantities:
    return _crit_from(params.n, params.p, params.r)


def mean_usable_curve(params: ModelParams, t_grid: Sequence[int]):
    """e(t) = E[A(t)] - t = a + (n - a) * pi(t) - t on integer times."""
    n, p, r, a = params.n, params.p, params.r, params.a
    out = []
    for t in t_grid:
        if not 0 <= t <= n:
            raise ParameterError(f"t_grid entries must lie in [0, n], got {t}")
        out.append((t, a + (n - a) * _pi(t, p, r) - t))
    return out


# ---------------------------------------------------------------------------
# Parametric families n -> (p_n, a_n)

_P_RULES = ("power", "log_form", "scaled_log", "table")


@dataclass(frozen=True)
class SequenceSpec:
    """A closed-catalog rule n -> p_n plus a seed rule n -> a_n.

    rule/constants:
      power:      p_n = c * n**(-beta)                constants {c, beta}
      log_form:   p_n = (log n + (r-1)loglog n + d)/n constants {d}
      scaled_log: p_n = c * log(n)/n                  constants {c}
      table:      p_n tabulated                       constants {points: [[n, p], ...]}

    Seeds default to a_n = ceil(alpha * a_c(n)); a tabulated override may
    be supplied in constants["a_points"].  The catalog is closed on
    purpose: classification stays deterministic and testable.
    """

    rule: str
    constants: dict
    r: int
    alpha: float | None = None

    def __post_init__(self):
        if self.rule not in _P_RULES:
            raise ParameterError(f"unknown p-rule {self.rule!r}; choose from {_P_RULES}")
        if not isinstance(self.r, int) or self.r < 2:
            raise ParameterError("r must be an integer >= 2")
        if self.alpha is not None and self.alpha <= 0:
            raise ParameterError("alpha must be positive")
        if self.alpha is None and "a_points" not in self.constants:
            raise ParameterError("need alpha or constants['a_points'] for the seed rule")

    def p_at(self, n) -> float:
        if n < 3:
            raise ParameterError("sequence rules are defined for n >= 3")
        c = self.constants
        if self.rule == "power":
            p = c.get("c", 1.0) * float(n) ** (-c["beta"])
        elif self.rule == "log_form":
            ln = math.log(n)
            p = (ln + (self.r - 1) * math.log(ln) + c["d"]) / n
        elif self.rule == "scaled_log":
            p = c["c"] * math.log(n) / n
        else:
            p = _table_lookup(c["points"], n, "p")
        if not 0.0 < p < 1.0:
            raise ParameterError(f"rule gives p_n = {p} outside (0, 1) at n = {n}")
        return p

    def crit_at(self, n) -> CriticalQuantities:
        return _crit_from(n, self.p_at(n), self.r)

    def a_at(self, n) -> int:
        pts = self.constants.get("a_points")
        if pts is not None:
            return int(_table_lookup(pts, n, "a"))
        a = math.ceil(self.alpha * self.crit_at(n).a_c)
        return max(1, min(int(a), int(n)))

    def params_at(self, n) -> ModelParams:
        return ModelParams(n=int(n), p=self.p_at(n), r=self.r, a=self.a_at(n))

    def to_json(self) -> str:
        doc = {"rule": self.rule, "constants": self.constants,
               "r": self.r, "alpha": self.alpha}
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SequenceSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"malformed sequence spec JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParameterError("sequence spec JSON must be an object")
        try:
            return cls(rule=doc["rule"], constants=dict(doc.get("constants", {})),
                       r=int(doc["r"]), alpha=doc.get("alpha"))
        except KeyError as exc:
            raise ParameterError(f"sequence spec JSON missing field {exc}") from exc


def _table_lookup(points, n, what: str):
    for row in points:
        if int(row[0]) == int(n):
            return row[1]
    raise ParameterError(f"tabulated rule has no {what} entry for n = {n}")


# ---------------------------------------------------------------------------
# Trend detection along a ladder of n values

class Trend(str, Enum):
    DIVERGES_UP = "diverges_up"
    DIVERGES_DOWN = "diverges_down"
    VANISHES = "vanishes"
    STABLE = "stable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TrendResult:
    kind: Trend
    value: float | None = None  # stabilized mean when kind is STABLE


@dataclass(frozen=True)
class TrendOptions:
    """Thresholds for committing to a trend verdict.

    A finite ladder can only certify trends, never limits; these defaults
    (strictly monotone window with a 10x move, or < 5% relative spread)
    are deliberately crude and configurable.
    """

    window: int = 4
    growth_factor: float = 10.0
    spread_tol: float = 0.05


def detect_trend(values: Sequence[float], opts: TrendOptions = TrendOptions()) -> TrendResult:
    if len(values) < opts.window:
        raise ParameterError(f"need at least {opts.window} ladder values")
    w = list(values[-opts.window:])
    scale = max(abs(v) for v in w)
    if scale == 0.0:
        return TrendResult(Trend.STABLE, 0.0)
    if (max(w) - min(w)) / scale < opts.spread_tol:
        return TrendResult(Trend.STABLE, math.fsum(w) / len(w))
    increasing = all(b > a for a, b in zip(w, w[1:]))
    decreasing = all(b < a for a, b in zip(w, w[1:]))
    if decreasing and all(v > 0 for v in w) and w[-1] < w[0] / opts.growth_factor:
        return TrendResult(Trend.VANISHES)
    if increasing and w[-1] > 0 and w[-1] > opts.growth_factor * w[0]:
        return TrendResult(Trend.DIVERGES_UP)
    if decreasing and w[-1] < 0 and w[-1] < opts.growth_factor * w[0]:
        return TrendResult(Trend.DIVERGES_DOWN)
    return TrendResult(Trend.INCONCLUSIVE)


# ---------------------------------------------------------------------------
# Hypothesis checks and regime classification

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

#: Default ladder for formula-only classification.  Values this large are
#: fine: only closed-form floats are evaluated, never arrays of size n.
CLASSIFY_LADDER = (10 ** 2, 10 ** 8, 10 ** 32, 10 ** 128)


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    values: tuple
    verdict: str


@dataclass(frozen=True)
class HypothesisReport:
    checks: dict

    @property
    def all_satisfied(self) -> bool:
        return all(c.verdict == SATISFIED for c in self.checks.values())


def _vanishing_verdict(trend: TrendResult) -> str:
    if trend.kind == Trend.VANISHES:
        return SATISFIED
    if trend.kind == Trend.STABLE:
        return SATISFIED if trend.value == 0.0 else VIOLATED
    if trend.kind == Trend.DIVERGES_UP:
        return VIOLATED
    return INCONCLUSIVE


def _validate_ladder(ladder: Sequence, min_len: int = 4) -> list:
    ladder = list(ladder)
    if len(ladder) < min_len:
        raise ParameterError(f"ladder must have at least {min_len} entries")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ParameterError("ladder must be strictly increasing")
    return ladder


def check_hypotheses(spec: SequenceSpec, ladder: Sequence,
                     opts: TrendOptions = TrendOptions()) -> HypothesisReport:
    """Evaluate the three standing hypotheses along the ladder.

    Verdicts are trend verdicts, never limit claims: 1/(n p_n) must trend
    to 0, p_n * n^(1/r) must trend to 0, and a_n/a_c(n) must stabilize
    above 1.
    """
    ladder = _validate_ladder(ladder)
    inv_np = [1.0 / (n * spec.p_at(n)) for n in ladder]
    p_power = [spec.p_at(n) * float(n) ** (1.0 / spec.r) for n in ladder]
    seed_ratio = [spec.a_at(n) / spec.crit_at(n).a_c for n in ladder]

    checks = {
        "np_diverges": HypothesisCheck(
            "np_diverges", tuple(inv_np),
            _vanishing_verdict(detect_trend(inv_np, opts))),
        "p_subcritical_power": HypothesisCheck(
            "p_subcritical_power", tuple(p_power),
            _vanishing_verdict(detect_trend(p_power, opts))),
    }

    if spec.alpha is not None and spec.alpha <= 1.0:
        verdict = VIOLATED
    else:
        trend = detect_trend(seed_ratio, opts)
        if trend.kind == Trend.STABLE:
            verdict = SATISFIED if trend.value > 1.0 else VIOLATED
        elif trend.kind == Trend.INCONCLUSIVE:
            verdict = INCONCLUSIVE
        else:
            verdict = VIOLATED  # ratio must converge to a finite alpha > 1
    checks["supercritical_seeds"] = HypothesisCheck(
        "supercritical_seeds", tuple(seed_ratio), verdict)
    return HypothesisReport(checks)


class Regime:
    """Tagged union over the limit of b_c(n); see the concrete classes."""

    tag = "regime"


@dataclass(frozen=True)
class BcDiverges(Regime):
    tag: str = field(default="bc_diverges", init=False)


@dataclass(frozen=True)
class BcFinite(Regime):
    b: float
    tag: str = field(default="bc_finite", init=False)


class AcNpSub:
    tag = "acnp"


@dataclass(frozen=True)
class AcNpDiverges(AcNpSub):
    tag: str = field(default="acnp_diverges", init=False)


@dataclass(frozen=True)
class AcNpFinite(AcNpSub):
    gamma: float
    tag: str = field(default="acnp_finite", init=False)


@dataclass(frozen=True)
class AcNpVanishes(AcNpSub):
    tag: str = field(default="acnp_vanishes", init=False)


@dataclass(frozen=True)
class BcVanishes(Regime):
    sub: AcNpSub
    tag: str = field(default="bc_vanishes", init=False)


def classify_regime(spec: SequenceSpec, ladder: Sequence = CLASSIFY_LADDER,
                    opts: TrendOptions = TrendOptions()) -> Regime:
    """Classify the limit of b_c(n) through d(n) = n p_n - log n - (r-1)loglog n.

    d -> -inf, a finite limit, or +inf correspond to b_c -> +inf,
    b = exp(-lim d)/(r-1)!, or 0; in the last case the ratio a_c/(n p_n)
    is classified further.  Hypothesis checking is the caller's concern:
    crude trend thresholds may be inconclusive on sequences a wider ladder
    or looser TrendOptions would resolve.
    """
    ladder = _validate_ladder(ladder)
    d_vals = []
    for n in ladder:
        p = spec.p_at(n)
        ln = math.log(n)
        d_vals.append(n * p - ln - (spec.r - 1) * math.log(ln))
    d_trend = detect_trend(d_vals, opts)

    if d_trend.kind == Trend.DIVERGES_DOWN:
        return BcDiverges()
    if d_trend.kind == Trend.STABLE:
        return BcFinite(b=math.exp(-d_trend.value) / math.gamma(spec.r))
    if d_trend.kind != Trend.DIVERGES_UP:
        raise InconclusiveTrend(
            f"cannot commit to a trend for d(n): values {d_vals}")

    ratio = [spec.crit_at(n).a_c / (n * spec.p_at(n)) for n in ladder]
    r_trend = detect_trend(ratio, opts)
    if r_trend.kind == Trend.DIVERGES_UP:
        return BcVanishes(sub=AcNpDiverges())
    if r_trend.kind == Trend.STABLE:
        return BcVanishes(sub=AcNpFinite(gamma=r_trend.value))
    if r_trend.kind == Trend.VANISHES:
        return BcVanishes(sub=AcNpVanishes())
    raise InconclusiveTrend(
        f"b_c vanishes but a_c/(n p_n) trend is inconclusive: values {ratio}")


def regime_label(regime: Regime) -> str:
    if isinstance(regime, BcVanishes):
        return f"{regime.tag}/{regime.sub.tag}"
    return regime.tag
