import json
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootperc.core import (ModelParams, Regime, SequenceSpec,
                           critical_quantities)
from bootperc.errors import (EpsOutOfRange, ParameterError,
                             UnsupportedCombination)
from bootperc.ratefun import (ScalingFamily, entropy_H, family_from_string,
                              ldp_rate_value, minimize_rate, rate_J,
                              tail_exponent)
from bootperc.ratefun import _FAMILY_CONSTANTS, _h_fun

REG_BC_INF = Regime("bc_diverges")
REG_BC_FIN = Regime("bc_finite", b=2.0)
REG_V_DIV = Regime("bc_vanishes/acnp_diverges")
REG_V_GAM = Regime("bc_vanishes/acnp_finite", gamma=2.0)
REG_V_VAN = Regime("bc_vanishes/acnp_vanishes")
CONST_1 = ScalingFamily("const", 1.0)
MID = ScalingFamily("between_bc_acnp")
EARLY = ScalingFamily("between_acnp_n")


def grid_J(x, alpha, r):
    h = (alpha * (1 - 1 / r) + x) ** r / r
    w = x / h
    hw = np.where(w > 0, 1 - w + w * np.log(np.maximum(w, 1e-300)), 1.0)
    return r / (r - 1) * h * hw


# ---------------------------------------------------------------------------
# entropy kernel

def test_entropy_values():
    assert entropy_H(1.0) == 0.0
    assert entropy_H(0.0) == 1.0
    assert entropy_H(2.0) == pytest.approx(2 * math.log(2) - 1, rel=1e-12)
    assert entropy_H(-1.0) == math.inf
    assert entropy_H(math.inf) == math.inf
    with pytest.raises(ParameterError, match="NaN"):
        entropy_H(math.nan)


def test_entropy_shape_on_grid():
    xs = np.linspace(0.0, 10.0, 10_001)
    vals = np.array([entropy_H(float(x)) for x in xs])
    assert (vals >= -1e-15).all()
    assert vals[np.searchsorted(xs, 1.0)] == pytest.approx(0.0, abs=1e-12)
    below = vals[xs < 1.0]
    above = vals[xs > 1.0]
    assert (np.diff(below) < 0).all()
    assert (np.diff(above) > 0).all()
    # convexity via second differences
    assert (np.diff(vals, 2) > -1e-12).all()


# ---------------------------------------------------------------------------
# J and its structure

def test_rate_J_at_zero():
    h, j = rate_J(0.0, 2.0, 2)
    assert h == pytest.approx(0.5)
    assert j == pytest.approx(1.0)


@pytest.mark.parametrize("alpha", [1.01, 1.1, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_rate_J_zero_matches_closed_form(alpha, r):
    # the h/H route must agree with (1/r)(1-1/r)^(r-1) alpha^r
    _, j = rate_J(0.0, alpha, r)
    closed = (1 / r) * (1 - 1 / r) ** (r - 1) * alpha ** r
    assert j == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.01, 1.1, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_x_below_h_and_J_positive(alpha, r):
    xs = np.linspace(0.0, 10 * alpha / r, 500)
    for x in xs:
        h, j = rate_J(float(x), alpha, r)
        assert x < h
        assert j > 0.0


def test_ratio_at_alpha_over_r():
    for alpha, r in [(2.0, 2), (1.5, 3), (3.0, 5)]:
        x = alpha / r
        h, j = rate_J(x, alpha, r)
        assert x / h == pytest.approx(alpha ** (1 - r), rel=1e-12)
        assert x / h < 1.0
        assert j > 0.0


@pytest.mark.parametrize("alpha,r", [(1.5, 2), (2.0, 3), (5.0, 5)])
def test_J_increasing_beyond_alpha_over_r(alpha, r):
    xs = np.linspace(alpha / r, 8 * alpha / r, 400)
    js = [rate_J(float(x), alpha, r)[1] for x in xs]
    assert all(b > a for a, b in zip(js, js[1:]))


def test_rate_J_validation():
    with pytest.raises(ParameterError):
        rate_J(0.5, 1.0, 2)
    with pytest.raises(ParameterError):
        rate_J(-0.1, 2.0, 2)
    with pytest.raises(ParameterError):
        rate_J(0.5, 2.0, 1)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            rate_J(0.5, alpha, 2)
    # (alpha/2 + x)^2 overflows a float from x ~ sqrt(DBL_MAX) - alpha/2
    assert math.isfinite(rate_J(1.3e154, 2.0, 2)[1])
    with pytest.raises(ParameterError, match="1.34078e"):
        rate_J(1.35e154, 2.0, 2)


@pytest.mark.parametrize("r", [2.5, 2.0, True, 1, 10**400])
def test_rate_layer_refuses_what_model_params_refuses(r):
    # the rate functions are defined for an integer threshold r >= 2 only;
    # r = 2.5 and r = 2.0 used to return numbers.  J(x0) at r = 2 is cached
    # first, so r = 2.0 must not be served from its entry
    assert ldp_rate_value(REG_V_DIV, EARLY, math.inf, 2.0, 2) > 0.0
    with pytest.raises(ParameterError):
        ModelParams(n=10, p=0.3, r=r, a=1)
    with pytest.raises(ParameterError):
        rate_J(0.3, 2.0, r)
    with pytest.raises(ParameterError):
        minimize_rate(2.0, r)
    with pytest.raises(ParameterError):
        ldp_rate_value(REG_V_DIV, EARLY, math.inf, 2.0, r)


# ---------------------------------------------------------------------------
# minimizer

@pytest.mark.parametrize("alpha,r", [(2.0, 2), (1.5, 3)])
def test_minimize_rate_matches_grid_oracle(alpha, r):
    xs = np.arange(0.0, alpha / r + 1e-6, 1e-6)
    js = grid_J(xs, alpha, r)
    x_star = float(xs[np.argmin(js)])
    x0, j0 = minimize_rate(alpha, r)
    assert abs(x0 - x_star) <= 1e-4
    assert j0 == pytest.approx(float(js.min()), rel=1e-8)


@pytest.mark.parametrize("alpha,r", [(1.1, 2), (2.0, 2), (5.0, 3), (2.0, 5)])
def test_minimizer_interior_and_stationary(alpha, r):
    tol = 1e-6
    x0, j0 = minimize_rate(alpha, r)
    assert 0.0 < x0 <= alpha / r
    # step scaled to x0: J''' blows up near 0, so a fixed step would put
    # third-derivative bias into the central difference
    step = max(x0 * 1e-3, 1e-9)
    deriv = (rate_J(x0 + step, alpha, r)[1]
             - rate_J(x0 - step, alpha, r)[1]) / (2 * step)
    assert abs(deriv) <= 10 * tol
    assert j0 == rate_J(x0, alpha, r)[1]


def test_minimize_rate_validation():
    with pytest.raises(ParameterError):
        minimize_rate(1.0, 2)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            minimize_rate(alpha, 2)
    # from about alpha = 1e9 (r = 2) the dip x ~ h(0) exp(-h'(0)) lies
    # below the smallest double, so x0 = 5e-324 carries J(0+) = 2 h(0)
    assert 0.0 <= minimize_rate(1e9, 2)[0] <= 1e-6
    for alpha in (1e10, 1e13, 1e30, 1e100):
        h0 = rate_J(0.0, alpha, 2)[0]
        assert minimize_rate(alpha, 2) == (5e-324, 2.0 * h0)


# 60-digit roots of the closed form h'(x)(1 - x/h) + log(x/h) = 0
_X0_ROOTS = {
    (2.0, 2): 0.472212150452149555710803049039868004466021010699595652661652,
    (5.0, 2): 0.294798435941527046149527905398044865786335657498205102323315,
    (1.5, 3): 0.247541396944829199256197946246025831451346547925861938559340,
    (2.0, 5): 0.00290135848040487822754102569377888658538835975882026443704516,
    (5.0, 4): 6.19180129194531052839981371505771791186609614548399307266580e-22,
}


@pytest.mark.parametrize("alpha,r", sorted(_X0_ROOTS))
def test_minimize_rate_matches_closed_form_root(alpha, r):
    x0, j0 = minimize_rate(alpha, r)
    assert x0 == pytest.approx(_X0_ROOTS[alpha, r], rel=1e-14, abs=0.0)
    assert j0 == rate_J(x0, alpha, r)[1]


def test_minimize_rate_tiny_dip_carries_j_at_zero():
    # x0 = 6.2e-22 at (5, 4): J is J(0+) = r/(r-1) h(0) to the last bit
    x0, j0 = minimize_rate(5.0, 4)
    assert x0 < 1e-20
    assert j0 == 4 / 3 * rate_J(0.0, 5.0, 4)[0]


def _dj_exact(x, alpha, r):
    """h'(x)(1 - w) + log w, w = x/h, to 40 digits: J'(x) up to a positive
    factor, at the exact binary values of x and alpha."""
    with localcontext() as ctx:
        ctx.prec = 40
        x, alpha = Decimal(x), Decimal(alpha)
        u = alpha * (1 - Decimal(1) / r) + x
        w = x * r / u ** r
        return u ** (r - 1) * (1 - w) + w.ln()


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(1.01, 1e12), r=st.integers(2, 12))
def test_closed_form_dj_changes_sign_at_the_minimizer(alpha, r):
    x0, _ = minimize_rate(alpha, r)
    if x0 == 5e-324:
        assert _dj_exact(x0, alpha, r) >= 0
        return
    # the float sign test rounds log x0, so it places log x0 within a few
    # dozen ulps of max(1, |log x0|) of the root; subnormal x0 are coarser
    spread = max(x0 * 64 * math.ulp(max(1.0, -math.log(x0))),
                 4 * math.ulp(x0))
    assert _dj_exact(max(x0 - spread, 5e-324), alpha, r) < 0
    assert _dj_exact(x0 + spread, alpha, r) > 0


@pytest.mark.parametrize("r", [2, 3, 5, 8, 12])
def test_minimize_rate_answers_until_h_overflows(r):
    # every alpha either returns or is refused by _h_fun, and only where
    # h(0) itself overflows; every alpha the minimizer can answer is answered
    edge = math.exp(math.log(sys.float_info.max) / r) * r / (r - 1)
    alphas = list(np.geomspace(1.01, 1e308, 400)) \
        + [edge * (1 + d) for d in (-1e-12, -1e-15, 0.0, 1e-15, 1e-12)] \
        + [math.nextafter(1.0, 2.0), 1.0 + 1e-12, sys.float_info.max]
    for alpha in map(float, alphas):
        try:
            h0 = _h_fun(0.0, alpha, r)
        except ParameterError:
            with pytest.raises(ParameterError, match="overflows"):
                minimize_rate(alpha, r)
            continue
        x0, j0 = minimize_rate(alpha, r)
        assert 0.0 < x0 <= alpha / r
        assert math.isfinite(j0) and j0 <= r / (r - 1) * h0


def test_minimize_rate_polish_stays_in_the_domain():
    # x0 lies just right of 0 here; it must stay in J's domain and carry
    # J(x0) itself
    for alpha, r in ((52.974021939340595, 2), (7.31076466338304, 3)):
        x0, j0 = minimize_rate(alpha, r)
        assert 0.0 < x0 < 1e-6 and j0 == rate_J(x0, alpha, r)[1]


# ---------------------------------------------------------------------------
# theorem rate functions

def test_rate_I2_vanishes_at_inverse_ell():
    assert ldp_rate_value(REG_BC_INF, ScalingFamily("asym_bc", 1.0), 1.0,
                          2.0, 2) == 0.0
    assert ldp_rate_value(REG_BC_INF, ScalingFamily("asym_bc", 2.0), 0.5,
                          2.0, 2) == 0.0


def test_rate_I4_ceiling():
    assert ldp_rate_value(REG_V_DIV, CONST_1, 0.5, 2.0, 2) == 1.0
    assert ldp_rate_value(REG_V_DIV, CONST_1, -0.5, 2.0, 2) == math.inf


def test_rate_I5_two_branches():
    j0 = minimize_rate(2.0, 2)[1]
    assert ldp_rate_value(REG_V_GAM, CONST_1, 3.0, 2.0, 2) == pytest.approx(1.5)
    assert ldp_rate_value(REG_V_GAM, CONST_1, math.inf, 2.0, 2) == pytest.approx(j0)


def test_rate_I1_two_point_structure():
    j0 = minimize_rate(2.0, 2)[1]
    fam = EARLY
    assert ldp_rate_value(REG_BC_INF, fam, 0.0, 2.0, 2) == 0.0
    assert ldp_rate_value(REG_BC_INF, fam, math.inf, 2.0, 2) == pytest.approx(j0)
    assert ldp_rate_value(REG_BC_INF, fam, 0.5, 2.0, 2) == math.inf
    lin = ScalingFamily("between_acnp_n", 0.25)
    assert ldp_rate_value(REG_BC_FIN, lin, 4.0, 2.0, 2) == pytest.approx(j0)
    assert ldp_rate_value(REG_BC_FIN, lin, 5.0, 2.0, 2) == math.inf


def test_rate_I3_identity():
    for regime in (REG_BC_INF, REG_BC_FIN, REG_V_DIV):
        assert ldp_rate_value(regime, MID, 1.7, 2.0, 2) == 1.7
        assert ldp_rate_value(regime, MID, -1.0, 2.0, 2) == math.inf


def test_rate_I_table5_const_jumps_from_zero():
    # a_c/(n p) -> 0: no deviation of the const family is free but x = 0,
    # and only x = inf carries the early-stop exponent
    j0 = minimize_rate(2.0, 2)[1]
    assert ldp_rate_value(REG_V_VAN, CONST_1, 0.0, 2.0, 2) == 0.0
    assert ldp_rate_value(REG_V_VAN, CONST_1, 1.0, 2.0, 2) == math.inf
    assert ldp_rate_value(REG_V_VAN, CONST_1, math.inf, 2.0, 2) == j0


def test_rate_I5_prime_linear():
    j0 = minimize_rate(2.0, 2)[1]
    fam = ScalingFamily("asym_acnp", 0.5)
    assert ldp_rate_value(REG_BC_INF, fam, 2.0, 2.0, 2) == pytest.approx(1.0)
    assert ldp_rate_value(REG_V_DIV, fam, math.inf, 2.0, 2) == pytest.approx(j0)


def test_rate_value_unsupported_combinations():
    with pytest.raises(UnsupportedCombination):
        ldp_rate_value(REG_BC_FIN, ScalingFamily("asym_bc", 1.0), 1.0, 2.0, 2)
    with pytest.raises(UnsupportedCombination):
        ldp_rate_value(REG_V_GAM, MID, 1.0, 2.0, 2)
    with pytest.raises(UnsupportedCombination):
        ldp_rate_value(REG_BC_INF, CONST_1, 1.0, 2.0, 2)
    with pytest.raises(UnsupportedCombination):
        ldp_rate_value(REG_V_VAN, ScalingFamily("const", 0.5), 1.0, 2.0, 2)
    with pytest.raises(ParameterError, match="NaN"):
        ldp_rate_value(REG_V_DIV, CONST_1, math.nan, 2.0, 2)


def test_ceiling_tie_rule():
    # float noise within 1e-9 of an integer must not bump the ceiling
    assert ldp_rate_value(REG_V_DIV, CONST_1, 2.0 + 1e-10, 2.0, 2) == 2.0
    assert ldp_rate_value(REG_V_DIV, CONST_1, 2.0 - 1e-10, 2.0, 2) == 2.0
    assert ldp_rate_value(REG_V_DIV, CONST_1, 2.0 + 1e-6, 2.0, 2) == 3.0
    # ... nor pull a positive product within 1e-9 of 0 down to no jump
    # (table3/col1, then table4/col1 with gamma = 2)
    for eps in (1e-10, 1e-320):
        assert ldp_rate_value(REG_V_DIV, CONST_1, eps, 2.0, 2) == 1.0
        assert ldp_rate_value(REG_V_GAM, CONST_1, eps, 2.0, 2) == 0.5
    # an overflowed product ell * x is infinite, not an error
    assert ldp_rate_value(REG_V_DIV, ScalingFamily("const", 1e300), 1e300,
                          2.0, 2) == math.inf


# ---------------------------------------------------------------------------
# tail exponents per table

SPEC_07 = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
SPEC_FIN = SequenceSpec(rule="log_form", constants={"d": -math.log(2)},
                        r=2, alpha=2.0)
SPEC_DIV = SequenceSpec(rule="scaled_log", constants={"c": 0.5}, r=2, alpha=2.0)


def test_tail_exponent_early_stop_cell():
    te = tail_exponent(SPEC_DIV, 10**5, EARLY, 0.5, REG_BC_INF)
    j0 = minimize_rate(2.0, 2)[1]
    assert te.table_row == "table1/col4"
    assert te.speed_at_n == pytest.approx(SPEC_DIV.crit_at(10**5).a_c)
    assert te.rate_at_eps == pytest.approx(j0)


def test_tail_exponent_const_cell_in_table3():
    te = tail_exponent(SPEC_07, 10**5, ScalingFamily("const", 2.0), 0.5,
                       REG_V_DIV)
    crit = SPEC_07.crit_at(10**5)
    assert te.table_row == "table3/col1"
    assert te.speed_at_n == pytest.approx(-crit.log_b_c)
    assert te.rate_at_eps == 1.0  # ceil(2 * 0.5)


def test_tail_exponent_asym_acnp_in_table2():
    te = tail_exponent(SPEC_FIN, 10**5, ScalingFamily("asym_acnp", 1.0), 0.3,
                       REG_BC_FIN)
    j0 = minimize_rate(2.0, 2)[1]
    assert te.table_row == "table2/col2"
    assert te.rate_at_eps == pytest.approx(min(j0, 0.3))


def test_tail_exponent_speed_for_mid_family():
    # below n ~ 1e9 this f is still under b_c and the speed is refused
    te = tail_exponent(SPEC_DIV, 10**10, MID, 0.5, REG_BC_INF)
    crit = SPEC_DIV.crit_at(10**10)
    f_val = MID.scale_at(10**10, SPEC_DIV.p_at(10**10), crit)
    assert te.speed_at_n == pytest.approx(-f_val * (crit.log_b_c - math.log(f_val)))
    assert te.rate_at_eps == 0.5


def test_tail_exponent_product_invariant():
    te = tail_exponent(SPEC_07, 10**4, EARLY, 0.25, REG_V_DIV)
    assert te.log_prob_prediction == pytest.approx(
        -te.rate_at_eps * te.speed_at_n)


def test_tail_exponent_eps_restrictions():
    with pytest.raises(EpsOutOfRange):
        tail_exponent(SPEC_DIV, 10**5, ScalingFamily("asym_bc", 2.0), 0.4,
                      REG_BC_INF)
    tail_exponent(SPEC_DIV, 10**5, ScalingFamily("asym_bc", 2.0), 0.6,
                  REG_BC_INF)
    with pytest.raises(EpsOutOfRange):
        tail_exponent(SPEC_07, 10**5, ScalingFamily("between_acnp_n", 0.5),
                      2.5, REG_V_DIV)
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            tail_exponent(SPEC_07, 10**5, CONST_1, eps, REG_V_DIV)
    # a spec without a supercritical alpha has no tail prediction
    for alpha in (None, 1.0):  # None: the seeds come from a table
        spec = SequenceSpec(rule="power", constants={
            "beta": 0.7, "a_points": [[10**5, 100]]}, r=2, alpha=alpha)
        with pytest.raises(ParameterError, match="alpha > 1"):
            tail_exponent(spec, 10**5, CONST_1, 0.5, REG_V_DIV)


FAMILIES = {
    "const": CONST_1,
    "asym_bc": ScalingFamily("asym_bc", 1.0),
    "between_bc_acnp": MID,
    "asym_acnp": ScalingFamily("asym_acnp", 1.0),
    "between_acnp_n": EARLY,
}

# (regime, family) cells present in the five tables
SUPPORTED = {
    ("bc_diverges", "asym_bc", "table1/col1"),
    ("bc_diverges", "between_bc_acnp", "table1/col2"),
    ("bc_diverges", "asym_acnp", "table1/col3"),
    ("bc_diverges", "between_acnp_n", "table1/col4"),
    ("bc_finite", "between_bc_acnp", "table2/col1"),
    ("bc_finite", "asym_acnp", "table2/col2"),
    ("bc_finite", "between_acnp_n", "table2/col3"),
    ("bc_vanishes/acnp_diverges", "const", "table3/col1"),
    ("bc_vanishes/acnp_diverges", "between_bc_acnp", "table3/col2"),
    ("bc_vanishes/acnp_diverges", "asym_acnp", "table3/col3"),
    ("bc_vanishes/acnp_diverges", "between_acnp_n", "table3/col4"),
    ("bc_vanishes/acnp_finite", "const", "table4/col1"),
    ("bc_vanishes/acnp_finite", "between_acnp_n", "table4/col2"),
    ("bc_vanishes/acnp_vanishes", "const", "table5/col1"),
    ("bc_vanishes/acnp_vanishes", "between_acnp_n", "table5/col1"),
}

REGIME_SPECS = {
    "bc_diverges": (REG_BC_INF, SPEC_DIV),
    "bc_finite": (REG_BC_FIN, SPEC_FIN),
    "bc_vanishes/acnp_diverges": (REG_V_DIV, SPEC_07),
    "bc_vanishes/acnp_finite": (
        REG_V_GAM, SequenceSpec(rule="power", constants={"beta": 2 / 3},
                                r=2, alpha=2.0)),
    "bc_vanishes/acnp_vanishes": (
        REG_V_VAN, SequenceSpec(rule="power", constants={"beta": 0.6},
                                r=2, alpha=2.0)),
}


def test_table_cell_coverage_is_total():
    """Every cell of the five tables is reachable with a finite speed; all
    other (regime, family) pairs refuse."""
    eps = 0.4  # keeps every restricted eps admissible (1/ell2 = 1 > eps is
    # out of range for asym_bc, so use a dedicated eps there)
    seen = set()
    n_cover = 10**10  # large enough that b_c << a_c/(n p) orders numerically
    for reg_label, (regime, spec) in REGIME_SPECS.items():
        for fam_label, family in FAMILIES.items():
            expected = next((row for row in SUPPORTED
                             if row[0] == reg_label and row[1] == fam_label),
                            None)
            use_eps = 1.5 if fam_label == "asym_bc" else eps
            if expected is None:
                with pytest.raises(UnsupportedCombination):
                    tail_exponent(spec, n_cover, family, use_eps, regime)
            else:
                te = tail_exponent(spec, n_cover, family, use_eps, regime)
                assert math.isfinite(te.speed_at_n)
                assert te.speed_at_n > 0
                assert te.table_row == expected[2]
                seen.add(expected)
    assert seen == SUPPORTED


CONTRACTION_FAMILIES = {
    "const": [CONST_1, ScalingFamily("const", 2.5)],
    "asym_bc": [ScalingFamily("asym_bc", 1.0), ScalingFamily("asym_bc", 2.0)],
    "between_bc_acnp": [MID, ScalingFamily("between_bc_acnp", 0.8)],
    "asym_acnp": [ScalingFamily("asym_acnp", 0.5),
                  ScalingFamily("asym_acnp", 3.0)],
    "between_acnp_n": [EARLY, ScalingFamily("between_acnp_n", 0.25)],
}


@pytest.mark.parametrize("cell", sorted(SUPPORTED),
                         ids=lambda c: f"{c[0]}-{c[1]}")
def test_tail_rate_is_the_contraction_of_the_ldp_rate(cell):
    """I(eps) of every table cell is the minimum of the rate function over
    x in [eps, xbar], xbar (1/ell1 or +inf) included."""
    reg_label, fam_label, _ = cell
    regime, spec = REGIME_SPECS[reg_label]
    checked = 0
    for family in CONTRACTION_FAMILIES[fam_label]:
        ell1 = family.c if family.tag == "between_acnp_n" else 0.0
        xbar = 1.0 / ell1 if ell1 > 0 else math.inf
        for eps in [1e-3, 0.1, 0.4, 0.75, 1.5, 2.0, 3.9]:
            try:  # n = 1e10 puts every cell's scales in order (speed > 0)
                te = tail_exponent(spec, 10**10, family, eps, regime)
            except EpsOutOfRange:
                continue
            xs = list(np.linspace(eps, min(xbar, eps + 10.0), 401)) + [xbar]
            want = min(ldp_rate_value(regime, family, float(x), spec.alpha,
                                      spec.r) for x in xs)
            assert te.rate_at_eps == want
            checked += 1
    assert checked >= 7


def test_tail_exponent_json_serialization():
    te = tail_exponent(SPEC_07, 10**4, CONST_1, 0.7, REG_V_DIV)
    doc = json.loads(te.to_json())
    assert doc["table_row"] == "table3/col1"
    assert doc["log_base"] == "e"
    assert doc["eps"] == 0.7


# ---------------------------------------------------------------------------
# family parsing

def test_family_from_string():
    assert family_from_string("const:2.5") == ScalingFamily("const", 2.5)
    assert family_from_string("asym_bc:1.0") == ScalingFamily("asym_bc", 1.0)
    assert family_from_string("between_bc_acnp") == MID
    assert family_from_string("between_bc_acnp:0.3") \
        == ScalingFamily("between_bc_acnp", 0.3)
    assert family_from_string("asym_acnp:0.7") == ScalingFamily("asym_acnp", 0.7)
    assert family_from_string("between_acnp_n") == EARLY
    assert family_from_string("between_acnp_n:0.2") \
        == ScalingFamily("between_acnp_n", 0.2)
    with pytest.raises(ParameterError):
        family_from_string("nope:1")
    with pytest.raises(ParameterError):
        family_from_string("const")
    with pytest.raises(ParameterError):
        family_from_string("const:x")


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FAMILY_STRATEGIES = {
    tag: consts.map(lambda c, tag=tag: ScalingFamily(tag, c))
    for tag, consts in {
        "const": _POSITIVE,
        "asym_bc": _POSITIVE,
        "between_bc_acnp": st.floats(0.0, 1.0, exclude_min=True,
                                     exclude_max=True),
        "asym_acnp": _POSITIVE,
        "between_acnp_n": st.floats(min_value=0.0, allow_infinity=False),
    }.items()}


def test_family_strategies_cover_every_family():
    assert set(FAMILY_STRATEGIES) == set(_FAMILY_CONSTANTS)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(*FAMILY_STRATEGIES.values()))
def test_family_spec_string_round_trips(family):
    text = family.spec_string()
    assert family_from_string(text) == family
    assert family_from_string(text).spec_string() == text


# f(n) per tag, as ScalingFamily's docstring gives it
SCALE_FORMS = {
    "const": (ScalingFamily("const", 2.5), lambda n, p, crit: 2.5),
    "asym_bc": (ScalingFamily("asym_bc", 1.5),
                lambda n, p, crit: 1.5 * crit.b_c),
    "asym_acnp": (ScalingFamily("asym_acnp", 0.5),
                  lambda n, p, crit: 0.5 * crit.a_c / (n * p)),
    "between_acnp_n": (EARLY, lambda n, p, crit: max(
        1.0, math.log(n) * crit.a_c / (n * p))),
    "between_acnp_n-linear": (ScalingFamily("between_acnp_n", 0.25),
                              lambda n, p, crit: 0.25 * n),
    "between_bc_acnp": (ScalingFamily("between_bc_acnp", 0.3),
                        lambda n, p, crit: max(crit.b_c, 1.0) ** 0.7
                        * (crit.a_c / (n * p)) ** 0.3),
}


@pytest.mark.parametrize("case", sorted(SCALE_FORMS))
def test_scale_at_is_the_closed_form(case):
    family, form = SCALE_FORMS[case]
    # sparse and dense: ln n a_c/(n p) is 46 and 4e-7, b_c 4.5 and 0
    for n, p in ((10**4, 1e-3), (10**4, 0.5)):
        crit = critical_quantities(ModelParams(n=n, p=p, r=2, a=1))
        assert family.scale_at(n, p, crit) == pytest.approx(
            form(n, p, crit), rel=1e-14)


@pytest.mark.parametrize("case", sorted(SCALE_FORMS))
def test_scale_at_p_zero_is_refused_where_it_reads_crit(case):
    family, form = SCALE_FORMS[case]
    if case in ("const", "between_acnp_n-linear"):
        assert family.scale_at(100, 0.0, None) == form(100, 0.0, None)
    else:
        with pytest.raises(ParameterError, match="p > 0"):
            family.scale_at(100, 0.0, None)


def test_family_validation():
    with pytest.raises(ParameterError):
        ScalingFamily("const", 0.0)
    with pytest.raises(ParameterError):
        ScalingFamily("between_bc_acnp", 1.0)
    with pytest.raises(ParameterError):
        ScalingFamily("between_acnp_n", -1.0)
