import json
import math

import pytest

from bootperc.core import (ModelParams, Regime, SequenceSpec, activation_prob,
                           check_hypotheses, classify_regime,
                           critical_quantities, log_inactive_prob,
                           mean_usable_curve)
from bootperc.errors import ParameterError


# ---------------------------------------------------------------------------
# activation probability

def test_activation_prob_direct_sum_value():
    # P(Bin(2, 0.5) >= 2) = 0.25 by enumerating the four outcomes
    assert activation_prob(2, 0.5, 2).pi == pytest.approx(0.25, abs=1e-15)


def test_activation_prob_fewer_trials_than_threshold():
    assert activation_prob(1, 0.9, 2) == (0.0, 1.0)
    assert activation_prob(0, 0.3, 2) == (0.0, 1.0)


def test_activation_prob_floors_real_times():
    assert activation_prob(2.99, 0.5, 2).pi == pytest.approx(0.25, abs=1e-15)
    assert activation_prob(2.0, 0.5, 2) == activation_prob(2.7, 0.5, 2)


def test_activation_prob_validation():
    assert activation_prob(2, 0.0, 2) == (0.0, 1.0)
    with pytest.raises(ParameterError):
        activation_prob(2, 1.5, 2)
    with pytest.raises(ParameterError):
        activation_prob(2, 0.5, 1)
    with pytest.raises(ParameterError):
        activation_prob(-1, 0.5, 2)


@pytest.mark.parametrize("law", [activation_prob, log_inactive_prob])
@pytest.mark.parametrize("t,p,r", [
    (10, 0.3, 2.5), (10, 0.3, 2.0), (10, 0.3, True), (math.nan, 0.3, 2),
    (math.inf, 0.3, 2), (10 ** 400, 0.3, 2), (10, math.nan, 2)],
    ids=["r=2.5", "r=2.0", "r=True", "t=nan", "t=inf", "t=1e400", "p=nan"])
def test_activation_law_refuses_what_model_params_refuses(law, t, p, r):
    # r = 2.5 once gave the r = 3 value, t = nan a bare ValueError and
    # t = 10**400 an OverflowError
    with pytest.raises(ParameterError):
        law(t, p, r)


def test_activation_prob_monotone_and_limits():
    p, r = 0.05, 3
    last = -1.0
    for t in range(0, 400, 7):
        pi = activation_prob(t, p, r).pi
        assert pi >= last
        last = pi
        if t < r:
            assert pi == 0.0
    assert activation_prob(10_000, p, r).pi == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_activation_prob_consistency_grid(p, r):
    for t in (0, 1, 2, 5, 17, 100, 10_000, 1_000_000):
        pi, omp = activation_prob(t, p, r)
        assert abs(pi + omp - 1.0) <= 1e-12
        assert 0.0 <= pi <= 1.0


def test_one_minus_pi_keeps_relative_precision_when_pi_is_one():
    # pi rounds to 1.0 but the complement stays meaningful
    pi, omp = activation_prob(10**6, 0.01, 2)
    assert pi == 1.0
    assert 0.0 < omp < 1e-300 or omp == 0.0  # far below any linear resolution
    ln_omp = log_inactive_prob(10**6, 0.01, 2)
    assert ln_omp == pytest.approx(
        10**6 * math.log1p(-0.01) + math.log(1 + 10**6 * 0.01 / 0.99), rel=1e-9)


# ---------------------------------------------------------------------------
# critical quantities

def test_critical_quantities_closed_form():
    crit = critical_quantities(ModelParams(n=10_000, p=1e-3, r=2, a=100))
    assert crit.t_c == pytest.approx(100.0, rel=1e-12)
    assert crit.a_c == pytest.approx(50.0, rel=1e-12)
    assert crit.b_c == pytest.approx(1e5 * math.exp(-10.0), rel=1e-12)


@pytest.mark.parametrize("n,p", [(100, 0.05), (5000, 2e-3), (10**6, 1e-5)])
def test_critical_r2_reduces_to_inverse_np2(n, p):
    crit = critical_quantities(ModelParams(n=n, p=p, r=2, a=1))
    assert crit.t_c == pytest.approx(1.0 / (n * p * p), rel=1e-12)


def test_ac_tc_identity_is_bitwise():
    for n, p, r in [(1000, 0.01, 2), (10**5, 1e-3, 3), (50, 0.2, 4)]:
        crit = critical_quantities(ModelParams(n=n, p=p, r=r, a=1))
        assert crit.a_c == (1.0 - 1.0 / r) * crit.t_c


def test_critical_rejects_p_zero():
    with pytest.raises(ParameterError):
        critical_quantities(ModelParams(n=10, p=0.0, r=2, a=1))


def test_critical_refuses_a_p_whose_t_c_overflows():
    # ln t_c = -ln n - 2 ln p = 1379 at p = 1e-300, beyond ln DBL_MAX = 709.8
    with pytest.raises(ParameterError, match=r"p = 1e-300"):
        critical_quantities(ModelParams(n=10, p=1e-300, r=2, a=1))
    # t_c = 1e299 still fits a float
    crit = critical_quantities(ModelParams(n=10, p=1e-150, r=2, a=1))
    assert crit.t_c == pytest.approx(1e299, rel=1e-12)


def test_bc_prime_ratio_tends_to_one_in_bc_finite_regime():
    spec = SequenceSpec(rule="log_form", constants={"d": -math.log(2)},
                        r=2, alpha=2.0)
    ladder = [10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9]
    gaps = [abs(spec.crit_at(n).b_c_prime / spec.crit_at(n).b_c - 1.0)
            for n in ladder]
    tail = gaps[-4:]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert tail[-1] < 1e-6


def test_critical_trends_under_hypotheses():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
    ladder = [10**3, 10**4, 10**5, 10**6, 10**7]
    a_c = [spec.crit_at(n).a_c for n in ladder]
    assert all(b > a for a, b in zip(a_c, a_c[1:]))          # a_c -> inf
    over_n = [v / n for v, n in zip(a_c, ladder)]
    p_ac = [spec.p_at(n) * v for v, n in zip(a_c, ladder)]
    assert all(b < a for a, b in zip(over_n, over_n[1:]))     # a_c/n -> 0
    assert all(b < a for a, b in zip(p_ac, p_ac[1:]))         # p a_c -> 0
    assert over_n[-1] < 1e-3 and p_ac[-1] < 0.02


# ---------------------------------------------------------------------------
# mean usable curve

def test_mean_usable_curve_endpoints():
    params = ModelParams(n=200, p=0.2, r=2, a=7)
    curve = dict(mean_usable_curve(params, [0, 150]))
    assert curve[0] == pytest.approx(7.0)
    # pi(150) is numerically 1 here, so e = n - t
    assert curve[150] == pytest.approx(200 - 150, abs=1e-6)


def test_mean_usable_curve_formula():
    params = ModelParams(n=10_000, p=1e-3, r=2, a=100)
    (t, e), = mean_usable_curve(params, [50])
    pi = activation_prob(50, 1e-3, 2).pi
    assert e == pytest.approx(100 + 9900 * pi - 50, rel=1e-12)


def test_mean_usable_curve_rejects_out_of_range_times():
    with pytest.raises(ParameterError):
        mean_usable_curve(ModelParams(n=10, p=0.1, r=2, a=2), [11])


# ---------------------------------------------------------------------------
# model params validation

@pytest.mark.parametrize("kwargs", [
    dict(n=0, p=0.1, r=2, a=1),
    dict(n=10, p=0.1, r=1, a=1),
    dict(n=10, p=0.1, r=2, a=0),
    dict(n=10, p=0.1, r=2, a=11),
    dict(n=10, p=-0.1, r=2, a=1),
    dict(n=10, p=1.1, r=2, a=1),
    dict(n=True, p=0.5, r=2, a=True),
    dict(n=10, p=0.5, r=2, a=True),
    dict(n=10, p=True, r=2, a=1),
])
def test_model_params_validation(kwargs):
    with pytest.raises(ParameterError):
        ModelParams(**kwargs)


def test_model_params_admits_degenerate_p():
    ModelParams(n=10, p=0.0, r=2, a=1)
    ModelParams(n=10, p=1.0, r=2, a=1)


# ---------------------------------------------------------------------------
# hypotheses

def test_hypotheses_satisfied_for_power_rule():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
    report = check_hypotheses(spec)
    assert report.all_satisfied
    # 1/(np) = n^{-0.3} and p n^{1/2} = n^{-0.2} both fall to 0
    assert report.checks["np_diverges"].verdict == "satisfied"
    assert report.checks["p_subcritical_power"].verdict == "satisfied"


def test_hypotheses_violated_for_slow_power():
    spec = SequenceSpec(rule="power", constants={"beta": 0.4}, r=2, alpha=2.0)
    report = check_hypotheses(spec)
    assert report.checks["p_subcritical_power"].verdict == "violated"
    assert not report.all_satisfied


def test_hypotheses_alpha_one_is_violated():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=1.0)
    report = check_hypotheses(spec)
    assert report.checks["supercritical_seeds"].verdict == "violated"


@pytest.mark.parametrize("rule, constants, r, verdicts", [
    # np = n^0 and n^-1 stay bounded; p n^(1/3) = n^0 does not vanish
    ("power", {"beta": 1.0}, 2, ("violated", "satisfied")),
    ("power", {"beta": 1.5}, 2, ("violated", "satisfied")),
    ("power", {"beta": 1 / 3}, 3, ("satisfied", "violated")),
    ("log_form", {"d": -5.0}, 2, ("satisfied", "satisfied")),
    ("scaled_log", {"c": 0.5}, 4, ("satisfied", "satisfied")),
])
def test_hypotheses_from_the_closed_form(rule, constants, r, verdicts):
    report = check_hypotheses(SequenceSpec(rule, constants, r, alpha=1.5))
    assert (report.checks["np_diverges"].verdict,
            report.checks["p_subcritical_power"].verdict) == verdicts
    assert report.checks["supercritical_seeds"].verdict == "satisfied"


# ---------------------------------------------------------------------------
# regime classification

def test_classify_log_form_gives_finite_b():
    spec = SequenceSpec(rule="log_form", constants={"d": -math.log(2)},
                        r=2, alpha=2.0)
    regime = classify_regime(spec)
    assert regime.label == "bc_finite" and regime.gamma is None
    assert regime.b == 2.0


def test_classify_scaled_log_diverges():
    spec = SequenceSpec(rule="scaled_log", constants={"c": 0.5}, r=2, alpha=2.0)
    assert classify_regime(spec) == Regime("bc_diverges")


def test_classify_power_07_vanishes_with_acnp_divergent():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
    assert classify_regime(spec) == Regime("bc_vanishes/acnp_diverges")


def test_classify_power_two_thirds_gives_gamma():
    # a_c/(n p) = 1/(2 c^3 ) exactly for r = 2 and p = c n^{-2/3}
    spec = SequenceSpec(rule="power", constants={"c": 1.0, "beta": 2 / 3},
                        r=2, alpha=2.0)
    regime = classify_regime(spec)
    assert regime.label == "bc_vanishes/acnp_finite" and regime.b is None
    assert regime.gamma == 0.5


def test_classify_power_06_acnp_vanishes():
    spec = SequenceSpec(rule="power", constants={"beta": 0.6}, r=2, alpha=2.0)
    assert classify_regime(spec) == Regime("bc_vanishes/acnp_vanishes")


@pytest.mark.parametrize("label, b, gamma", [
    ("bc_vanishes", None, None),
    ("acnp_finite", None, 0.5),
    ("bc_finite", None, None),
    ("bc_finite", 2.0, 0.5),
    ("bc_diverges", 2.0, None),
    ("bc_vanishes/acnp_finite", None, None),
    ("bc_vanishes/acnp_diverges", None, 0.5),
    ("bc_finite", 0.0, None),
    ("bc_finite", math.inf, None),
    ("bc_vanishes/acnp_finite", None, math.nan),
])
def test_malformed_regime_is_refused(label, b, gamma):
    with pytest.raises(ParameterError):
        Regime(label, b=b, gamma=gamma)


@pytest.mark.parametrize("rule, constants, r, label, b, gamma", [
    # d(n) = -ln ln n -> -inf; at c = 1.05, d = 0.05 ln n - ln ln n -> +inf
    ("scaled_log", {"c": 1.0}, 2, "bc_diverges", None, None),
    ("scaled_log", {"c": 1.05}, 2, "bc_vanishes/acnp_diverges", None, None),
    # a_c/(n p) grows like n^0.004 just above r/(2r - 1) = 2/3
    ("power", {"beta": 0.668}, 2, "bc_vanishes/acnp_diverges", None, None),
    # r/(2r - 1) = 3/5 and gamma = (2/3) sqrt 2
    ("power", {"beta": 0.6}, 3, "bc_vanishes/acnp_finite", None,
     2 * math.sqrt(2) / 3),
    ("log_form", {"d": 0.0}, 3, "bc_finite", 0.5, None),
    ("power", {"beta": 2 / 3}, 2, "bc_vanishes/acnp_finite", None, 0.5),
    ("log_form", {"d": -math.log(2)}, 2, "bc_finite", 2.0, None),
], ids=["scaled_log-c1", "scaled_log-c1.05", "power-0.668", "power-0.6-r3",
        "log_form-d0-r3", "power-2/3", "log_form-ln2"])
def test_boundary_specs_get_their_closed_form(rule, constants, r, label, b,
                                              gamma):
    regime = classify_regime(SequenceSpec(rule, constants, r, alpha=2.0))
    assert regime.label == label
    # exact at r = 2: e^(ln 2)/1! = 2 and (1/2)(1!/1^2)^(1/1)/1 = 1/2
    want = (b, gamma) if r == 2 else pytest.approx((b, gamma), rel=1e-15,
                                                     abs=0)
    assert (regime.b, regime.gamma) == want


@pytest.mark.parametrize("rule, constants", [
    ("table", {"points": [[100, 0.01], [1000, 0.003]]}),
    ("power", {"beta": -0.5}),
    ("power", {"beta": 0.0, "c": 1.0}),
    ("power", {"beta": 0.7, "c": 0.0}),
    ("scaled_log", {"c": -1.0}),
])
def test_a_rule_without_a_limit_is_refused(rule, constants):
    # a finite table fixes no limit; the others take p_n out of (0, 1)
    spec = SequenceSpec(rule, constants, r=2, alpha=2.0)
    for ask in (classify_regime, check_hypotheses):
        with pytest.raises(ParameterError, match="no limit|out of"):
            ask(spec)


def test_tabulated_seeds_have_no_hypothesis_verdict():
    spec = SequenceSpec("power", {"beta": 0.7, "a_points": [[100, 7]]}, r=2)
    assert classify_regime(spec) == Regime("bc_vanishes/acnp_diverges")
    with pytest.raises(ParameterError, match="a_points"):
        check_hypotheses(spec)


@pytest.mark.parametrize("rule, constants, r", [
    ("log_form", {"d": -1000.0}, 2),   # e^1000 overflows
    ("log_form", {"d": 0.0}, 400),     # e^0/399! underflows to 0
    ("power", {"beta": 0.6, "c": 1e-200}, 3),  # gamma overflows
])
def test_a_limit_no_float_holds_is_refused(rule, constants, r):
    with pytest.raises(ParameterError):
        classify_regime(SequenceSpec(rule, constants, r, alpha=2.0))


# ---------------------------------------------------------------------------
# sequence spec plumbing

def test_sequence_spec_json_roundtrip():
    spec = SequenceSpec(rule="power", constants={"c": 2.0, "beta": 0.7},
                        r=3, alpha=1.5)
    again = SequenceSpec.from_json(spec.to_json())
    assert again == spec


def test_sequence_spec_rejects_bad_json():
    with pytest.raises(ParameterError):
        SequenceSpec.from_json("not json")
    with pytest.raises(ParameterError):
        SequenceSpec.from_json("[1, 2]")
    with pytest.raises(ParameterError):
        SequenceSpec.from_json('{"rule": "power", "constants": {}}')


def test_sequence_spec_validation():
    with pytest.raises(ParameterError):
        SequenceSpec(rule="exp", constants={}, r=2, alpha=2.0)
    with pytest.raises(ParameterError):
        SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=None)
    for bad in [
            {"r": 2.7}, {"r": "abc"}, {"r": True}, {"alpha": "2"},
            {"alpha": math.nan}, {"alpha": math.inf}, {"alpha": 0.0},
            {"constants": [1]}, {"constants": {}}, {"constants": {"c": 1.0}},
            {"constants": {"beta": "0.7"}}, {"constants": {"beta": math.nan}},
            {"rule": "log_form", "constants": {}},
            {"rule": "scaled_log", "constants": {"c": None}},
            {"rule": "table", "constants": {"points": 5}},
            {"rule": "table", "constants": {"points": [[100, 0.1, 3]]}},
            {"rule": "table", "constants": {"points": [[100, "0.1"]]}},
            {"constants": {"beta": 0.7, "a_points": [100, 7]}},
            {"constants": {"beta": 0.7, "a_points": [[100, 7.9]]}},
            {"rule": "table", "constants": {"points": [[100.7, 0.1]],
                                            "a_points": [[100, 7]]}},
            {"rule": "table", "constants": {"points": [[100, 0.1]],
                                            "a_points": [[100.2, 7]]}},
            {"constants": {"beta": 0.7, "a_points": [[100.9, 7]]}},
            {"constants": {"beta": 10 ** 400}}, {"alpha": 10 ** 400},
            {"rule": ["power"]}]:
        kwargs = {"rule": "power", "constants": {"beta": 0.7}, "r": 2,
                  "alpha": 2.0} | bad
        with pytest.raises(ParameterError):
            SequenceSpec(**kwargs)
        with pytest.raises(ParameterError):
            SequenceSpec.from_json(json.dumps(kwargs))
    spec = SequenceSpec(rule="power", constants={"beta": 0.7, "c": 100.0},
                        r=2, alpha=2.0)
    with pytest.raises(ParameterError):
        spec.p_at(10)  # p above 1 at small n
    with pytest.raises(ParameterError):
        spec.p_at(2)


def test_sequence_spec_tabulated_rules():
    spec = SequenceSpec(
        rule="table",
        constants={"points": [[100, 0.01], [1000, 0.003]],
                   "a_points": [[100, 7], [1000, 12]]},
        r=2, alpha=None)
    assert spec.p_at(100) == 0.01
    assert spec.a_at(1000) == 12
    with pytest.raises(ParameterError):
        spec.p_at(500)


def test_params_at_builds_supercritical_instance():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
    params = spec.params_at(10**4)
    assert params.a == math.ceil(2.0 * spec.crit_at(10**4).a_c)
    assert 0.0 < params.p < 1.0
