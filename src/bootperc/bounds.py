"""Non-asymptotic binomial deviation bounds and asymptotic approximations.

The three deviation bounds (upper tail, lower tail, heavy tail) hold for
every n and p; each call also evaluates the exact tail by log-space
summation so the inequality can be certified with explicit slack.  The
approximation routines report exact/approx ratios whose drift toward 1 is
the acceptance signal; their small-/large-parameter premises are recorded
as applicability flags rather than enforced.

penrose_grid_violations checks the bounds at every k of an (n, p) grid in
blocks of consecutive n of at most _SWEEP_BLOCK_ELEMENTS (n, p, k) cells,
each one padded pass from one row-form log pmf, with the floats of one
(n, p) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._binom import (log_binom_cdf, log_binom_sf, log_cdf_array,
                     log_pmf_array, log_sf_array)
from .core import SequenceSpec, classify_regime, log_inactive_prob
from .errors import ParameterError, RegimeMismatch
from .ratefun import entropy_H

__all__ = [
    "BoundReport", "DiagnosticRow",
    "chernoff_upper", "chernoff_lower", "heavy_tail_bound",
    "approx_small_mean_tail", "approx_log_tail", "approx_lower_tail",
    "asymptotic_diagnostics", "penrose_grid_violations",
]


@dataclass(frozen=True)
class BoundReport:
    """Exact value vs bound/approximation, with natural-log companions.

    For inequality bounds the contract is exact <= bound_or_approx + 1e-12;
    `ratio` is exact/bound there and exact/approx (or the ratio of logs,
    flagged in regime_tags) for approximations.
    """

    exact: float
    bound_or_approx: float
    ratio: float
    regime_tags: tuple
    ln_exact: float
    ln_bound_or_approx: float


def _report(ln_exact: float, ln_bound: float, tags: tuple,
            ratio: float | None = None) -> BoundReport:
    if ratio is None:
        ratio = math.exp(ln_exact - ln_bound) if math.isfinite(ln_bound) else math.nan
    return BoundReport(
        exact=math.exp(ln_exact), bound_or_approx=math.exp(ln_bound),
        ratio=ratio, regime_tags=tags,
        ln_exact=ln_exact, ln_bound_or_approx=ln_bound)


def _validate_np(n: int, p: float, k: int):
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in (n, k)):
        raise ParameterError(f"n and k must be integers, got {n!r} and {k!r}")
    if n < 1:
        raise ParameterError("n must be positive")
    if not 0.0 < p < 1.0:
        raise ParameterError("p must lie in (0, 1)")
    # k = 0 passes: the lower tail admits it, the upper tails' k >= mu refuses
    if not 0 <= k < n:
        raise ParameterError("k must satisfy 0 <= k < n")


def chernoff_upper(n: int, p: float, k: int) -> BoundReport:
    """P(Bin(n, p) >= k) <= exp(-mu H(k/mu)) for k >= mu = n p."""
    _validate_np(n, p, k)
    mu = n * p
    if k < mu:
        raise ParameterError("upper-tail bound needs k >= n p")
    ln_bound = -mu * entropy_H(k / mu)
    return _report(log_binom_sf(n, p, int(k)), ln_bound, ("upper_tail", "k>=mu"))


def chernoff_lower(n: int, p: float, k: int) -> BoundReport:
    """P(Bin(n, p) <= k) <= exp(-mu H(k/mu)) for 0 <= k <= mu = n p.

    k = 0 is admitted: the bound degrades to e^-mu and dominates (1-p)^n.
    """
    _validate_np(n, p, k)
    mu = n * p
    if k > mu:
        raise ParameterError("lower-tail bound needs k <= n p")
    ln_bound = -mu * entropy_H(k / mu)
    return _report(log_binom_cdf(n, p, int(k)), ln_bound, ("lower_tail", "k<=mu"))


def heavy_tail_bound(n: int, p: float, k: int) -> BoundReport:
    """P(Bin(n, p) >= k) <= exp(-(k/2) log(k/mu)) for k >= e^2 mu."""
    _validate_np(n, p, k)
    mu = n * p
    if k < math.e ** 2 * mu:
        raise ParameterError("heavy-tail bound needs k >= e^2 * n p")
    ln_bound = -(k / 2.0) * math.log(k / mu)
    return _report(log_binom_sf(n, p, int(k)), ln_bound,
                   ("upper_tail", "k>=e2mu"))


def approx_small_mean_tail(m: float, q: float, k: int) -> BoundReport:
    """P(Bin(floor(m), q) >= k) ~ (q m)^k / k! as q m -> 0, m -> inf."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    qm = q * m
    ln_approx = k * math.log(qm) - math.lgamma(k + 1)
    tags = ("approx", f"qm_small:{'ok' if qm <= 0.1 else 'out_of_regime'}")
    return _report(log_binom_sf(int(m), q, k), ln_approx, tags)


def approx_log_tail(m: float, q: float, r_big: int) -> BoundReport:
    """log P(Bin(floor(m), q) >= r) ~ r log(m q / r) for large r >> q m.

    The ratio reported is the ratio of the two logarithms.  r = q m makes
    the approximate log vanish; flagged as degenerate, not an error.
    """
    if r_big < 1:
        raise ParameterError("r_big must be >= 1")
    qm = q * m
    ln_exact = log_binom_sf(int(m), q, r_big)
    approx_log = r_big * math.log(qm / r_big)
    tags = ["approx_of_log",
            f"r_over_qm_large:{'ok' if r_big >= 10 * qm else 'out_of_regime'}",
            f"r_over_m_small:{'ok' if r_big <= 0.1 * m else 'out_of_regime'}"]
    if approx_log == 0.0:
        tags.append("degenerate:r=qm")
        ratio = math.nan
    else:
        ratio = ln_exact / approx_log
    return BoundReport(exact=math.exp(ln_exact), bound_or_approx=approx_log,
                       ratio=ratio, regime_tags=tuple(tags),
                       ln_exact=ln_exact, ln_bound_or_approx=approx_log)


def approx_lower_tail(m: float, q: float, k: int) -> BoundReport:
    """1 - P(Bin(floor(m), q) >= k) ~ (1-q)^m (q m)^(k-1)/(k-1)! as q m -> inf.

    At k = 1 the formula collapses to (1-q)^m and is exact for integer m.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    qm = q * m
    ln_approx = (m * math.log1p(-q) + (k - 1) * math.log(qm)
                 - math.lgamma(k))
    tags = ("approx", f"qm_large:{'ok' if qm >= 10 else 'out_of_regime'}")
    return _report(log_binom_cdf(int(m), q, k - 1), ln_approx, tags)


# ---------------------------------------------------------------------------
# ladder diagnostics for the closed-form asymptotic relations

@dataclass(frozen=True)
class DiagnosticRow:
    n: int
    lhs: float
    rhs: float
    ratio: float


_RELATIONS = ("speed", "one_minus_pi", "log_bc")


def asymptotic_diagnostics(spec: SequenceSpec, relation: str, ladder,
                           x: float = 1.0):
    """LHS/RHS ratio along the ladder for one closed-form relation.

    speed:         n pi(x a_c)      vs  (1/r)(1 - 1/r)^(r-1) x^r a_c
    one_minus_pi:  n (1 - pi(n-f))  vs  b_c'          (f = log n)
    log_bc:        log b_c          vs  -n p_n        (needs b_c -> 0)

    Acceptance logic (ratios trending to 1) lives with the caller; this
    routine only emits the rows.
    """
    if relation not in _RELATIONS:
        raise ParameterError(f"unknown relation {relation!r}; choose from {_RELATIONS}")
    if relation == "log_bc":
        if not classify_regime(spec).label.startswith("bc_vanishes"):
            raise RegimeMismatch("log b_c ~ -n p holds only when b_c -> 0")
    rows = []
    r = spec.r
    for n in ladder:
        p = spec.p_at(n)
        crit = spec.crit_at(n)
        if relation == "speed":
            t = math.floor(x * crit.a_c)
            ln_lhs = math.log(n) + log_binom_sf(t, p, r)
            ln_rhs = (math.log(x ** r * crit.a_c / r)
                      + (r - 1) * math.log(1.0 - 1.0 / r))
            lhs, rhs = math.exp(ln_lhs), math.exp(ln_rhs)
            ratio = math.exp(ln_lhs - ln_rhs)
        elif relation == "one_minus_pi":
            f_n = math.log(n)
            ln_lhs = math.log(n) + log_inactive_prob(n - f_n, p, r)
            ln_rhs = crit.log_b_c_prime
            lhs, rhs = math.exp(ln_lhs), math.exp(ln_rhs)
            ratio = math.exp(ln_lhs - ln_rhs)
        else:
            lhs = crit.log_b_c
            rhs = -n * p
            ratio = lhs / rhs
        rows.append(DiagnosticRow(n=int(n), lhs=lhs, rhs=rhs, ratio=ratio))
    return rows


# ---------------------------------------------------------------------------
# grid sweep used by the inequality acceptance suite

_SWEEP_BLOCK_ELEMENTS = 2 ** 13  # (n, p, k) cells per block of the sweep


def _sweep_blocks(n_values, rows_per_n: int):
    """Runs of consecutive n, in input order, each of at most
    _SWEEP_BLOCK_ELEMENTS cells (rows_per_n rows per n, max n + 1 columns);
    a single n larger than that is a block of its own."""
    block, cols = [], 0
    for n in n_values:
        cells = (len(block) + 1) * rows_per_n * max(cols, n + 1)
        if block and cells > _SWEEP_BLOCK_ELEMENTS:
            yield block
            block, cols = [], 0
        block.append(n)
        cols = max(cols, n + 1)
    if block:
        yield block


def penrose_grid_violations(n_values, p_values, slack: float = 1e-12):
    """Sweep all admissible k for the three bounds; return (checked, bad).

    `bad` lists (bound_name, n, p, k, exact, bound) tuples where
    exact > bound + slack, in (n, p, name, k) order with the n in input
    order.  The bounds are non-asymptotic, so any entry here is a genuine
    defect.  The n run in input order in blocks of about 2^13 (n, p, k)
    cells (_sweep_blocks), each one pass over a row per (n, p) and a
    column per k.  The n must be integers.
    """
    n_values = list(n_values)
    for n in n_values:
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ParameterError(f"n must be an integer, got {n!r}")
    checked = 0
    bad = []
    e2 = math.e ** 2
    width = len(p_values)
    p_row = np.array(p_values, dtype=np.float64)
    for block in _sweep_blocks(n_values, max(width, 1)):
        # rows in (n, p) order; column k - 1 holds k = 1..max n - 1
        n_rows = np.repeat(np.array(block, dtype=np.int64), width)
        p_rows = np.tile(p_row, len(block))
        lp = log_pmf_array(n_rows, p_rows)
        n_max = lp.shape[1] - 1
        exact_sf = np.exp(log_sf_array(lp)[:, 1:n_max])
        exact_cdf = np.exp(log_cdf_array(lp)[:, 1:n_max])
        n_col, mu = n_rows[:, None], (n_rows * p_rows)[:, None]
        k = np.arange(1, n_max)
        inside = k < n_col
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = k / mu  # > 0 as k >= 1, or +inf where mu = 0
            log_x = np.log(x)
            chernoff = np.exp(-mu * (1.0 - x + x * log_x))
            heavy = np.exp(-(k / 2.0) * log_x)  # overflows only where unchecked
        found = []
        for name, ok, exact, bound in (
                ("chernoff_upper", inside & (k >= mu), exact_sf, chernoff),
                ("chernoff_lower", inside & (k <= mu), exact_cdf, chernoff),
                ("heavy_tail", inside & (k >= e2 * mu), exact_sf, heavy)):
            checked += int(ok.sum())
            found.append((name, ok & (exact > bound + slack), exact, bound))
        for i in np.flatnonzero(np.any([f[1] for f in found], axis=(0, 2))):
            n, p = block[i // width], p_values[i % width]
            for name, hit, exact, bound in found:
                for idx in np.flatnonzero(hit[i]):
                    bad.append((name, n, p, int(k[idx]),
                                float(exact[i, idx]), float(bound[i, idx])))
    return checked, bad
