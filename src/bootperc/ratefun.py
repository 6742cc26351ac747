"""Rate functions, the early-stop exponent minimizer, and tail predictions.

The relative-entropy kernel is H(x) = 1 - x + x log x.  The early-stop
exponent at supercriticality alpha > 1 and threshold r is J(x0), the
minimum over x >= 0 of

    J(x) = r/(r-1) * h(x) * H(x / h(x)),   h(x) = (alpha(1 - 1/r) + x)**r / r.

Tail predictions pair a speed v(n) with a deviation rate I(eps): the
log-probability of {(n - A*)/f(n) > eps} behaves like -I(eps) * v(n).
Which (v, I) applies depends on the regime of b_c(n) and on where the
scaling family f sits between b_c, a_c/(n p), and n.  The 15 cells of
the paper's Tables 1-5 are written once, in _CELLS, which maps
(regime label, family tag) to (cell, speed); ldp_rate_value refuses the
pairs it lacks, tail_exponent contracts ldp_rate_value to {x >= eps},
and _EARLY_STOP_CELLS names the five cells whose rate is J(x0).
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache

from .core import CriticalQuantities, Regime, SequenceSpec, _check_r
from .errors import EpsOutOfRange, ParameterError, UnsupportedCombination

__all__ = [
    "entropy_H", "rate_J", "minimize_rate", "ldp_rate_value", "tail_exponent",
    "ScalingFamily", "TailExponent", "family_from_string",
]

_CEIL_TIE = 1e-9
_TINY = 5e-324  # the smallest positive double


def entropy_H(x: float) -> float:
    """H(x) = 1 - x + x log x on [0, inf), with H(0) = 1 and +inf on x < 0."""
    if math.isnan(x):
        raise ParameterError("H is undefined at NaN")
    if x < 0.0:
        return math.inf
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return math.inf
    return 1.0 - x + x * math.log(x)


def _h_fun(x: float, alpha: float, r: int) -> float:
    try:
        return (alpha * (1.0 - 1.0 / r) + x) ** r / r
    except OverflowError:
        # the power overflows once alpha (1 - 1/r) + x > DBL_MAX^(1/r)
        x_max = math.exp(math.log(sys.float_info.max) / r) \
            - alpha * (1.0 - 1.0 / r)
        fits = f"the largest x whose h(x) fits is about {x_max:.6g}" \
            if x_max > 0.0 else "alpha is too large for any x >= 0"
        raise ParameterError(
            f"h(x) overflows a float at x = {x!r}; at alpha = {alpha!r}, "
            f"r = {r} {fits}") from None


def _check_supercritical(alpha: float, r: int) -> None:
    """Refuse alpha outside (1, inf), and r as ModelParams refuses it.
    An alpha too large for h to fit a float is refused where h is
    evaluated, by _h_fun."""
    if not 1.0 < alpha < math.inf:
        raise ParameterError(
            f"the rate function needs a finite supercritical alpha > 1, got {alpha!r}")
    _check_r(r)


def rate_J(x: float, alpha: float, r: int):
    """Evaluate (h(x), J(x)); J is finite and strictly positive for x >= 0
    whenever alpha > 1, because x < h(x) everywhere."""
    _check_supercritical(alpha, r)
    if x < 0.0:
        raise ParameterError("J is evaluated on x >= 0 only")
    h_val = _h_fun(x, alpha, r)
    j_val = r / (r - 1.0) * h_val * entropy_H(x / h_val)
    return h_val, j_val


def _ceil_tied(y: float) -> float:
    """Ceiling with a tie rule: values within 1e-9 of an integer are
    treated as that integer, so float noise cannot flip the jump; a
    positive y still counts at least 1.  An infinite y (an overflowed
    product) is returned as it is."""
    if math.isinf(y):
        return y
    nearest = round(y)
    ceil = nearest if abs(y - nearest) <= _CEIL_TIE else math.ceil(y)
    return float(max(ceil, 1) if y > 0.0 else ceil)


def _float_bits(x: float) -> int:
    # the bit patterns of nonnegative doubles are ordered like their values
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def minimize_rate(alpha: float, r: int):
    """Locate the unique minimizer x0 of J on [0, alpha/r].

    With u = alpha(1 - 1/r) + x and w = x/h, J'(x) is proportional to
    h'(x)(1 - w) + log w: -inf at 0+, positive at alpha/r, one sign change
    between.  Its sign is bisected on (5e-324, alpha/r) down to two
    adjacent floats, over the ordered bit patterns of the doubles, so it
    takes at most 63 steps wherever the root lies.  The sign test compares
    h'(1 - w) with -log w in logs, log w = log x - r log u + log r, so
    nothing overflows or underflows before h itself is evaluated.  For large
    alpha**(r-1) the dip sits at x ~ h(0) exp(-h'(0)), which can lie below
    the smallest double; then x0 = 5e-324 and J(x0) = r/(r-1) h(0), the
    infimum J(0+).  x0 is resolved to a few ulps: the sign test's rounding
    leaves log x0 within a few dozen ulps of max(1, |log x0|), within
    1e-14 relative at ordinary alpha.  Returns (x0, J(x0)) with J(x0) from
    rate_J, whose h overflow refuses alpha too large for a float.
    """
    _check_supercritical(alpha, r)
    shift = alpha * (1.0 - 1.0 / r)
    log_r = math.log(r)

    def rising(x: float) -> bool:
        # J'(x) >= 0, i.e. log h' + log(1 - w) >= log(-log w); a log w
        # that rounds to >= 0 can only occur near alpha/r at alpha within
        # ulps of 1, where log(-log w) is undefined
        log_u = math.log(shift + x)
        log_w = math.log(x) - r * log_u + log_r
        return log_w >= 0.0 or (r - 1) * log_u \
            + math.log1p(-math.exp(log_w)) >= math.log(-log_w)

    lo, hi = _float_bits(_TINY), _float_bits(alpha / r)
    if rising(_TINY):
        hi = lo  # the dip lies below the smallest double
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rising(_bits_float(mid)):
            hi = mid
        else:
            lo = mid
    x0 = _bits_float(hi)
    return x0, rate_J(x0, alpha, r)[1]


# typed, so r = 2.0 is refused rather than served from the entry of r = 2
@lru_cache(maxsize=256, typed=True)
def _j_at_minimum(alpha: float, r: int) -> float:
    return minimize_rate(alpha, r)[1]


# ---------------------------------------------------------------------------
# Scaling families

#: tag -> (the constant's name in the paper, its default; None if required)
_FAMILY_CONSTANTS = {
    "const": ("ell", None),
    "asym_bc": ("ell2", None),
    "between_bc_acnp": ("theta", 0.5),
    "asym_acnp": ("ell'", None),
    "between_acnp_n": ("ell1", 0.0),
}


@dataclass(frozen=True)
class ScalingFamily:
    """Where the scaling function f(n) sits relative to b_c and a_c/(n p).

    tag is a key of _FAMILY_CONSTANTS and c its constant; scale_at gives
    f(n).  between_bc_acnp interpolates geometrically between max(b_c, 1)
    and a_c/(n p) with exponent c.  between_acnp_n is the range where early
    stopping dominates: with c = 0, f(n) = max(1, log(n) a_c/(n p)), and the
    theory admits any diverging factor in place of log n; with c > 0,
    f(n) = c n and deviations are capped at 1/c.
    """

    tag: str
    c: float | None = None

    def __post_init__(self):
        if self.tag not in _FAMILY_CONSTANTS:
            raise ParameterError(f"unknown family tag {self.tag!r}; choose "
                                 f"from {sorted(_FAMILY_CONSTANTS)}")
        name, default = _FAMILY_CONSTANTS[self.tag]
        if self.c is None:
            if default is None:
                raise ParameterError(f"family {self.tag!r} needs a constant, "
                                     f"e.g. '{self.tag}:1.0'")
            object.__setattr__(self, "c", default)
        c = self.c
        if self.tag == "between_bc_acnp":
            ok, need = 0.0 < c < 1.0, "in (0, 1)"
        elif self.tag == "between_acnp_n":
            ok, need = c >= 0.0, ">= 0"
        else:
            ok, need = c > 0.0, "> 0"
        if not (ok and math.isfinite(c)):
            raise ParameterError(
                f"{self.tag} scaling needs a finite {name} {need}, got {c!r}")

    def scale_at(self, n, p: float, crit: CriticalQuantities | None) -> float:
        """f(n) at edge probability p; crit may be None (p = 0) only for the
        families that read neither b_c nor a_c."""
        tag, c = self.tag, self.c
        if tag == "const":
            return c
        if tag == "between_acnp_n" and c > 0:
            return c * n
        if crit is None:
            raise ParameterError(
                f"family {tag} needs critical quantities, so p > 0")
        if tag == "asym_bc":
            return c * crit.b_c
        if tag == "between_bc_acnp":
            anchor = crit.a_c / (n * p)
            return max(crit.b_c, 1.0) ** (1.0 - c) * anchor ** c
        if tag == "asym_acnp":
            return c * crit.a_c / (n * p)
        return max(1.0, math.log(n) * crit.a_c / (n * p))

    def spec_string(self) -> str:
        """'tag:constant', the text family_from_string parses back."""
        return f"{self.tag}:{self.c!r}"


def family_from_string(text: str) -> ScalingFamily:
    """Parse 'tag' or 'tag:constant' into a ScalingFamily."""
    tag, _, arg = text.partition(":")
    try:  # an unknown tag is refused as such, whatever follows it
        c = float(arg) if arg and tag in _FAMILY_CONSTANTS else None
    except ValueError as exc:
        raise ParameterError(f"bad family constant in {text!r}") from exc
    return ScalingFamily(tag, c)


# ---------------------------------------------------------------------------
# Tables 1-5: the (regime, family) cells

_A_C, _B_C, _LOG_B_C, _F_LOG_F = "a_c", "b_c", "-log b_c", "f log(f/b_c)"

#: (regime.label, family.tag) -> (cell, speed v(n)) for the 15
#: cells of Tables 1-5; no other pair has a deviation law.
_CELLS = {
    ("bc_diverges", "asym_bc"): ("table1/col1", _B_C),
    ("bc_diverges", "between_bc_acnp"): ("table1/col2", _F_LOG_F),
    ("bc_diverges", "asym_acnp"): ("table1/col3", _A_C),
    ("bc_diverges", "between_acnp_n"): ("table1/col4", _A_C),
    ("bc_finite", "between_bc_acnp"): ("table2/col1", _F_LOG_F),
    ("bc_finite", "asym_acnp"): ("table2/col2", _A_C),
    ("bc_finite", "between_acnp_n"): ("table2/col3", _A_C),
    ("bc_vanishes/acnp_diverges", "const"): ("table3/col1", _LOG_B_C),
    ("bc_vanishes/acnp_diverges", "between_bc_acnp"): ("table3/col2", _F_LOG_F),
    ("bc_vanishes/acnp_diverges", "asym_acnp"): ("table3/col3", _A_C),
    ("bc_vanishes/acnp_diverges", "between_acnp_n"): ("table3/col4", _A_C),
    ("bc_vanishes/acnp_finite", "const"): ("table4/col1", _A_C),
    ("bc_vanishes/acnp_finite", "between_acnp_n"): ("table4/col2", _A_C),
    ("bc_vanishes/acnp_vanishes", "const"): ("table5/col1", _A_C),
    ("bc_vanishes/acnp_vanishes", "between_acnp_n"): ("table5/col1", _A_C),
}

#: the cells whose rate is the pure early-stop exponent J(x0)
_EARLY_STOP_CELLS = frozenset({"table1/col4", "table2/col3", "table3/col4",
                               "table4/col2", "table5/col1"})


def _cell(regime: Regime, family: ScalingFamily):
    """(cell, speed) of the pair in Tables 1-5, or UnsupportedCombination."""
    try:
        cell = _CELLS[regime.label, family.tag]
    except KeyError:
        raise UnsupportedCombination(
            f"Tables 1-5 have no cell for family {family.tag} in regime "
            f"{regime.label}") from None
    if family.tag == "const" and cell[0] == "table5/col1" and family.c < 1.0:
        raise UnsupportedCombination(
            "with a_c/(n p) -> 0 the admissible constant scalings have ell >= 1")
    return cell


def _support_top(family: ScalingFamily) -> float:
    """xbar, the top of the rate function's finite support: 1/c when
    f(n)/n -> c > 0 (between_acnp_n), infinity otherwise."""
    if family.tag == "between_acnp_n" and family.c > 0.0:
        return 1.0 / family.c
    return math.inf


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise ParameterError(f"eps must be a positive finite number, got {eps!r}")


# ---------------------------------------------------------------------------
# Rate functions of the five limit theorems

def ldp_rate_value(regime: Regime, family: ScalingFamily, x: float,
                   alpha: float, r: int) -> float:
    """Rate-function value at x for the theorem matching (regime, family).

    x may be +-inf: the point at infinity is first-class, carrying the
    early-stop exponent J(x0) for the families with speed a_c.  Pairs
    without a cell in Tables 1-5 raise UnsupportedCombination.
    """
    if math.isnan(x):
        raise ParameterError("x must not be NaN")
    j0 = _j_at_minimum(alpha, r)
    _cell(regime, family)
    tag, c = family.tag, family.c
    if tag == "between_acnp_n":
        if x == 0.0:
            return 0.0
        return j0 if x == _support_top(family) else math.inf
    if tag == "asym_bc":
        return entropy_H(c * x)
    if x < 0:
        return math.inf
    if tag == "between_bc_acnp":
        return float(x)
    if tag == "asym_acnp":
        return j0 if math.isinf(x) else c * x
    # const: the rate follows the limit of a_c/(n p)
    if regime.label == "bc_vanishes/acnp_diverges":
        return _ceil_tied(c * x)
    if regime.label == "bc_vanishes/acnp_finite":
        return j0 if math.isinf(x) else _ceil_tied(c * x) / regime.gamma
    if x == 0.0:
        return 0.0
    return j0 if math.isinf(x) else math.inf


# ---------------------------------------------------------------------------
# Tail predictions

@dataclass(frozen=True)
class TailExponent:
    """Predicted pair (v(n), I(eps)) plus the product -I(eps) v(n).

    table_row records which table cell produced the prediction, e.g.
    'table3/col1'.
    """

    speed_at_n: float
    rate_at_eps: float
    log_prob_prediction: float
    table_row: str
    n: int
    eps: float

    def to_json(self) -> str:
        return json.dumps({
            "speed_at_n": self.speed_at_n,
            "rate_at_eps": self.rate_at_eps,
            "log_prob_prediction": self.log_prob_prediction,
            "log_base": "e",
            "table_row": self.table_row,
            "n": int(self.n),
            "eps": self.eps,
        }, sort_keys=True)


def tail_exponent(spec: SequenceSpec, n, family: ScalingFamily, eps: float,
                  regime: Regime) -> TailExponent:
    """Look up (v(n), I(eps)) for P((n - A*)/f(n) > eps) in Tables 1-5.

    The cell and its speed come from the (regime, family) table.  The
    rate is the contraction of ldp_rate_value to {x >= eps}: every rate
    function is nondecreasing on its finite support, so
    I(eps) = min(I_x(eps), I_x(xbar)) with xbar the top of that support
    (1/c when f(n)/n -> c > 0, infinity otherwise).

    Raises ParameterError unless eps is a positive finite number,
    UnsupportedCombination for cells absent from the tables or whose
    speed v(n) is not positive at this n (the scales the cell compares,
    such as f and b_c, are not yet in its order), and
    EpsOutOfRange where the tail estimate restricts eps (f ~ c b_c
    needs eps > 1/c; f with lim f/n = c > 0 needs eps < 1/c).
    """
    _check_eps(eps)
    if spec.alpha is None or spec.alpha <= 1.0:
        raise ParameterError("tail predictions need a supercritical alpha > 1")
    crit = spec.crit_at(n)
    p = spec.p_at(n)
    cell, speed = _cell(regime, family)
    if family.tag == "asym_bc" and eps <= 1.0 / family.c:
        raise EpsOutOfRange(f"the upper-tail estimate needs eps > {1.0 / family.c}")
    xbar = _support_top(family)
    if eps >= xbar:
        raise EpsOutOfRange(
            f"eps must lie in (0, {xbar}) when f(n)/n -> {family.c}")
    if speed == _F_LOG_F:
        # -f log(b_c/f), the theorem form; asymptotically f log f when b_c
        # converges, and used uniformly here
        f_val = family.scale_at(n, p, crit)
        v = f_val * (math.log(f_val) - crit.log_b_c)
    else:
        v = {_A_C: crit.a_c, _B_C: crit.b_c, _LOG_B_C: -crit.log_b_c}[speed]
    if not v > 0.0:
        raise UnsupportedCombination(
            f"cell {cell} has speed v(n) = {speed} = {v!r} at n = {n}; "
            "it predicts only where v(n) > 0")
    rate = min(ldp_rate_value(regime, family, eps, spec.alpha, spec.r),
               ldp_rate_value(regime, family, xbar, spec.alpha, spec.r))
    return TailExponent(speed_at_n=v, rate_at_eps=rate,
                        log_prob_prediction=-rate * v, table_row=cell,
                        n=int(n), eps=eps)
