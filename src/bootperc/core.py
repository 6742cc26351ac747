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
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from ._binom import log_binom_sf, log_cdf_head
from .errors import ParameterError

__all__ = [
    "ModelParams", "CriticalQuantities", "SequenceSpec", "Regime",
    "REGIME_LABELS", "ActivationProb", "activation_prob", "log_inactive_prob",
    "critical_quantities", "check_hypotheses", "classify_regime",
    "mean_usable_curve",
]


def _check_r(r) -> None:
    """Refuse an r that is no integer >= 2, or too large for a float
    (every formula in r, from lgamma(r) to 1/r, takes it as a float)."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise ParameterError(f"r must be an integer >= 2, got {r!r}")
    if r > sys.float_info.max:
        raise ParameterError(
            f"r must fit a float (at most {sys.float_info.max:.4g}), "
            f"got one of {len(str(r))} digits")


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
        if not isinstance(self.n, int) or isinstance(self.n, bool) \
                or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n}")
        _check_r(self.r)
        if not isinstance(self.a, int) or isinstance(self.a, bool) \
                or not 1 <= self.a <= self.n:
            raise ParameterError(f"a must satisfy 1 <= a <= n, got {self.a}")
        if isinstance(self.p, bool) or not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"p must lie in [0, 1], got {self.p}")


def _sure_final_size(params: ModelParams) -> int | None:
    """A* where it is not random, else None: A* = a when p = 0, r >= n (a
    node hears at most n - 1 others) or a = n; with p = 1 every node hears
    every seed, so all activate iff a >= r."""
    if params.p == 0.0 or params.r >= params.n or params.a == params.n:
        return params.a
    if params.p == 1.0:
        return params.n if params.a >= params.r else params.a
    return None


class ActivationProb(NamedTuple):
    pi: float
    one_minus_pi: float


def _check_law_args(t, p: float, r) -> None:
    """Refuse what the activation law is not defined for, as ModelParams
    does: t must be finite and >= 0, p in [0, 1] and r through _check_r."""
    if not 0 <= t <= sys.float_info.max:  # no nan, inf or int beyond
        raise ParameterError(f"t must be finite and >= 0, got {t!r}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p!r}")
    _check_r(r)


def log_inactive_prob(t: float, p: float, r: int) -> float:
    """log P(Bin(floor(t), p) <= r - 1), the log-probability of staying
    inactive through time t.  Full relative precision even when the value
    is far below the double-precision floor of 1 - pi."""
    _check_law_args(t, p, r)
    m = math.floor(t)
    if m < r:
        return 0.0
    return float(log_cdf_head(m, p, r - 1))


def activation_prob(t: float, p: float, r: int) -> ActivationProb:
    """pi(t) = P(Bin(floor(t), p) >= r) and its complement.

    The complement is an r-term log-space sum, so it keeps full relative
    precision when pi is close to 1; when pi <= 1/2 the head itself is
    summed directly instead.  Real t is floored, matching the convention
    that extends the activation law to noninteger times.  p = 0 gives
    (0, 1) and p = 1 gives (1, 0) once t >= r.
    """
    one_minus_pi = math.exp(log_inactive_prob(t, p, r))
    if one_minus_pi >= 0.5:
        pi = math.exp(log_binom_sf(math.floor(t), p, r))
    else:
        pi = 1.0 - one_minus_pi
    return ActivationProb(pi, one_minus_pi)


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


def _log_t_c(n, p: float, r: int) -> float:
    """ln t_c = (ln (r - 1)! - ln n - r ln p) / (r - 1), finite at any
    0 < p <= 1 however large t_c is."""
    return (math.lgamma(r) - math.log(n) - r * math.log(p)) / (r - 1)


def _crit_from(n, p: float, r: int) -> CriticalQuantities:
    if p <= 0.0:
        raise ParameterError("critical quantities require p > 0")
    log_t_c = _log_t_c(n, p, r)
    try:
        t_c = math.exp(log_t_c)
    except OverflowError:
        raise ParameterError(
            f"t_c = e^{log_t_c:.6g} overflows a float at p = {p!r} "
            f"(n = {n}, r = {r}); the largest t_c a float holds is about "
            f"e^{math.log(sys.float_info.max):.6g}") from None
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
        out.append((t, a + (n - a) * activation_prob(t, p, r).pi - t))
    return out


# ---------------------------------------------------------------------------
# Parametric families n -> (p_n, a_n)

#: each p-rule with the constants it requires
_P_RULES = {"power": ("beta",), "log_form": ("d",), "scaled_log": ("c",),
            "table": ("points",)}


def _finite_number(value) -> bool:
    # compared, not math.isfinite, so an int beyond a float is refused too
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


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
        if not isinstance(self.rule, str) or self.rule not in _P_RULES:
            raise ParameterError(
                f"unknown p-rule {self.rule!r}; choose from {tuple(_P_RULES)}")
        _check_r(self.r)
        if self.alpha is not None and not (_finite_number(self.alpha)
                                           and self.alpha > 0):
            raise ParameterError(
                f"alpha must be a finite positive number, got {self.alpha!r}")
        if not isinstance(self.constants, dict):
            raise ParameterError("constants must be an object")
        missing = [k for k in _P_RULES[self.rule] if k not in self.constants]
        if missing:
            raise ParameterError(f"rule {self.rule!r} needs constants {missing}")
        for key, value in self.constants.items():
            if key in ("points", "a_points"):
                if not (isinstance(value, (list, tuple)) and all(
                        isinstance(row, (list, tuple)) and len(row) == 2
                        and all(map(_finite_number, row)) for row in value)):
                    raise ParameterError(
                        f"constants[{key!r}] must be a list of [n, value] pairs")
                if any(row[0] != int(row[0]) for row in value):
                    raise ParameterError(
                        f"constants[{key!r}] n entries must be integers: {value}")
                if key == "a_points" and any(row[1] != int(row[1])
                                             for row in value):
                    raise ParameterError(
                        f"constants['a_points'] seeds must be integers: {value}")
            elif not _finite_number(value):
                raise ParameterError(
                    f"constant {key!r} must be a finite number, got {value!r}")
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
            return cls(rule=doc["rule"], constants=doc.get("constants", {}),
                       r=doc["r"], alpha=doc.get("alpha"))
        except KeyError as exc:
            raise ParameterError(f"sequence spec JSON missing field {exc}") from exc


def _table_lookup(points, n, what: str):
    for row in points:
        if int(row[0]) == int(n):
            return row[1]
    raise ParameterError(f"tabulated rule has no {what} entry for n = {n}")


# ---------------------------------------------------------------------------
# Hypothesis checks and regime classification, from each rule's closed form

SATISFIED = "satisfied"
VIOLATED = "violated"


def _check_limit_rule(spec: SequenceSpec) -> None:
    """Refuse a spec without a limit as n -> inf: a table, which is finite,
    or a rule whose p_n leaves (0, 1) for good (c <= 0, or p = c n^-beta
    with beta < 0, or beta = 0 and c >= 1)."""
    if spec.rule == "table":
        raise ParameterError(
            "a tabulated p-rule has no limit as n -> inf, so it has no "
            "regime and no hypothesis verdict")
    const = spec.constants
    c = const.get("c", 1.0)
    if spec.rule == "log_form" or c > 0 and (
            spec.rule == "scaled_log" or const["beta"] > 0
            or const["beta"] == 0 and c < 1):
        return
    raise ParameterError(
        f"rule {spec.rule!r} with constants {const} takes p_n out of (0, 1) "
        "for all large n")


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    verdict: str


@dataclass(frozen=True)
class HypothesisReport:
    checks: dict

    @property
    def all_satisfied(self) -> bool:
        return all(c.verdict == SATISFIED for c in self.checks.values())


def check_hypotheses(spec: SequenceSpec) -> HypothesisReport:
    """The three standing hypotheses, each satisfied or violated in the
    limit n -> inf of the rule's closed form: n p_n -> inf unless p =
    c n^-beta with beta >= 1; p_n n^(1/r) -> 0 unless p = c n^-beta with
    beta <= 1/r; and a_n/a_c(n) -> alpha with alpha > 1.  A table or
    a_points seeds fix no limit and are refused."""
    _check_limit_rule(spec)
    if spec.alpha is None:
        raise ParameterError(
            "tabulated seeds (a_points) have no limit as n -> inf, so they "
            "have no hypothesis verdict")
    beta = spec.constants["beta"] if spec.rule == "power" else None
    holds = {"np_diverges": beta is None or beta < 1,
             "p_subcritical_power": beta is None or beta > 1 / spec.r,
             "supercritical_seeds": spec.alpha > 1}
    return HypothesisReport({
        name: HypothesisCheck(name, SATISFIED if ok else VIOLATED)
        for name, ok in holds.items()})


#: the limit of b_c(n), refined by the limit of a_c/(n p_n) when b_c -> 0
REGIME_LABELS = ("bc_diverges", "bc_finite", "bc_vanishes/acnp_diverges",
                 "bc_vanishes/acnp_finite", "bc_vanishes/acnp_vanishes")


@dataclass(frozen=True)
class Regime:
    """One of REGIME_LABELS, with b = lim b_c(n) exactly for bc_finite and
    gamma = lim a_c/(n p_n) exactly for bc_vanishes/acnp_finite."""

    label: str
    b: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.label not in REGIME_LABELS:
            raise ParameterError(
                f"unknown regime {self.label!r}; choose from {REGIME_LABELS}")
        if (self.b is None) == (self.label == "bc_finite"):
            raise ParameterError("b is given for bc_finite and only there")
        if (self.gamma is None) == (self.label == "bc_vanishes/acnp_finite"):
            raise ParameterError(
                "gamma is given for bc_vanishes/acnp_finite and only there")
        for value in (self.b, self.gamma):
            if value is not None and not 0.0 < value < math.inf:
                raise ParameterError(
                    f"b and gamma must be finite floats > 0, got {value!r}")


def _factorial_power(r: int, e: float) -> float:
    """((r - 1)!)^e: through math.gamma while (r - 1)! is a float, which
    keeps small r exact (2!^(-1) = 0.5, 2!^(1/2) = sqrt 2), else in logs."""
    try:
        return math.gamma(r) ** e
    except OverflowError:
        return math.exp(e * math.lgamma(r))


def classify_regime(spec: SequenceSpec) -> Regime:
    """The limit of b_c(n), and of a_c/(n p_n) when b_c -> 0, read off the
    rule's closed form through d(n) = n p_n - ln n - (r-1) ln ln n:
    b_c -> inf, e^(-lim d)/(r-1)! or 0 as d -> -inf, a limit or +inf.

      power, p = c n^-beta: d -> -inf for beta >= 1.  Below, a_c/(n p) =
        gamma n^((beta(2r-1) - r)/(r-1)) exactly, with gamma = (1 - 1/r)
        ((r-1)!/c^r)^(1/(r-1))/c, so it diverges, is gamma or vanishes as
        beta is above, at or below r/(2r-1).
      log_form: d(n) = d exactly, so b = e^-d/(r-1)!.
      scaled_log, p = c ln n/n: d = (c-1) ln n - (r-1) ln ln n -> -inf for
        c <= 1; for c > 1, a_c/(n p) grows like n/(ln n)^((2r-1)/(r-1)).

    A table, or a rule whose p_n leaves (0, 1), is refused.
    """
    _check_limit_rule(spec)
    const, r = spec.constants, spec.r
    try:
        if spec.rule == "log_form":
            return Regime("bc_finite",
                          b=math.exp(-const["d"]) * _factorial_power(r, -1.0))
        if spec.rule == "scaled_log":
            return Regime("bc_diverges" if const["c"] <= 1
                          else "bc_vanishes/acnp_diverges")
        beta, c, edge = const["beta"], const.get("c", 1.0), r / (2 * r - 1)
        if beta >= 1:
            return Regime("bc_diverges")
        if beta != edge:
            return Regime("bc_vanishes/acnp_diverges" if beta > edge
                          else "bc_vanishes/acnp_vanishes")
        # c^(-r/(r-1))/c taken as 1/(c^(1/(r-1)) c c), so no power overflows
        return Regime("bc_vanishes/acnp_finite", gamma=(1 - 1 / r)
                      * _factorial_power(r, 1 / (r - 1))
                      / c ** (1 / (r - 1)) / c / c)
    except OverflowError as exc:
        raise ParameterError(
            f"the limit of rule {spec.rule!r} at r = {r} does not fit a float"
        ) from exc
