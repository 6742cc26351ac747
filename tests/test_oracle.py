import dataclasses
import hashlib
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootperc._binom import (log_binom_cdf, log_binom_pmf, log_cdf_head,
                            log_pmf_array)
from bootperc.core import (ModelParams, SequenceSpec, activation_prob,
                           log_inactive_prob)
from bootperc.errors import MemoryGuardError, ParameterError
from bootperc import oracle
from bootperc.montecarlo import default_stop_horizon
from bootperc.oracle import (PMF_NODE_CAP, LogProb, _final_size_counts,
                             _log_q_schedule, brute_force_pmf, exact_pmf,
                             exact_stop_cdf, exact_tail_query)
from bootperc.ratefun import ScalingFamily

SPEC_07 = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
CONST_1 = ScalingFamily("const", 1.0)


# ---------------------------------------------------------------------------
# exact pmf

def test_exact_pmf_hand_case():
    pmf = exact_pmf(ModelParams(n=3, p=0.5, r=2, a=2))
    assert pmf.prob(2) == pytest.approx(0.75, abs=1e-12)
    assert pmf.prob(3) == pytest.approx(0.25, abs=1e-12)


def test_exact_pmf_p_zero_concentrates_at_seeds():
    pmf = exact_pmf(ModelParams(n=5, p=0.0, r=2, a=2))
    assert pmf.prob(2) == 1.0
    assert all(pmf.prob(k) == 0.0 for k in (3, 4, 5))


@pytest.mark.parametrize("p", [0.1, 0.4, 0.7])
@pytest.mark.parametrize("r", [2, 3])
def test_exact_pmf_matches_brute_force_n6(p, r):
    params = ModelParams(n=6, p=p, r=r, a=r)
    dp = exact_pmf(params)
    bf = brute_force_pmf(params)
    for k in range(params.a, 7):
        assert dp.prob(k) == pytest.approx(bf.prob(k), abs=1e-9)
    assert float(dp.total()) == pytest.approx(1.0, abs=1e-9)
    assert dp.truncation_bound == 0.0


def test_exact_pmf_support_and_normalization_midsize():
    params = ModelParams(n=120, p=0.05, r=2, a=4)
    pmf = exact_pmf(params)
    assert float(pmf.total()) == pytest.approx(1.0, abs=1e-9)
    assert pmf.support() == list(range(4, 121))
    assert pmf.truncation_bound < 1e-20


def test_pmf_probs_map_the_support_read_only():
    pmf = exact_pmf(ModelParams(n=7, p=0.3, r=2, a=2))
    probs = pmf.probs
    assert probs == {k: pmf.prob(k) for k in range(2, 8)}
    with pytest.raises(TypeError):
        probs[2] = 1.0


def test_exact_pmf_cap():
    with pytest.raises(MemoryGuardError):
        exact_pmf(ModelParams(n=PMF_NODE_CAP + 1, p=1e-3, r=2, a=5))


def test_stop_cdf_cap_refuses_before_allocating():
    huge = ModelParams(n=10**6, p=1e-3, r=2, a=5)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryGuardError):
            exact_stop_cdf(huge, 10**6)
        with pytest.raises(MemoryGuardError):
            exact_stop_cdf(huge, 1000, cap=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the state count, not tau, meets the cap: n - a states here
    small = ModelParams(n=40, p=0.1, r=2, a=5)
    assert float(exact_stop_cdf(small, 40, cap=35)) == pytest.approx(1.0)


def test_hazard_schedule_skips_steps_no_node_can_activate_at():
    # q_t = 0 for t < r - 1 = 1999, every step up to tau = 1500 here; a
    # head-term table for those steps alone holds 1500 x 1999 doubles (24 MB)
    tracemalloc.start()
    try:
        value = exact_stop_cdf(ModelParams(n=3000, p=0.05, r=2000, a=1000),
                               1500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert float(value) == 1.0
    assert peak < 40_000_000


def test_deep_tail_survives_in_log_scale():
    # mid-range stop values are astronomically unlikely but stay resolved
    pmf = exact_pmf(ModelParams(n=200, p=0.2, r=2, a=4))
    assert pmf.prob(100) == 0.0 or pmf.prob(100) < 1e-200
    assert -1e7 < pmf.log2_prob(100) < -300


# (ln P, float P, ln(), log2()): each view rounds through one mantissa/
# exponent split, so the constants are exact
LOG_PROB_VIEWS = [
    (-math.inf, 0.0, -math.inf, -math.inf),
    (0.0, 1.0, 0.0, 0.0),
    (-1e-3, 0.9990004998333749, -0.001000000000000108, -0.0014426950408891193),
    (-800.0, 0.0, -800.0, -1154.1560327111708),
    (-5000.0, 0.0, -5000.0, -7213.475204444817),
]


@pytest.mark.parametrize("ln_p,value,ln,log2", LOG_PROB_VIEWS,
                         ids=["zero", "one", "ln-1e-3", "ln-800", "ln-5000"])
def test_log_prob_views(ln_p, value, ln, log2):
    prob = LogProb(ln_p)
    assert (float(prob), prob.ln(), prob.log2()) == (value, ln, log2)
    if -math.inf < ln_p < -745:  # below the smallest subnormal double
        assert float(prob) == 0.0 and math.isfinite(prob.log2())


@st.composite
def small_instances(draw):
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 6))
    a = draw(st.integers(r, n))
    return ModelParams(n=n, p=draw(st.floats(0.0, 1.0)), r=r, a=a)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_instances())
def test_exact_law_matches_enumeration_property(params):
    pmf = exact_pmf(params)
    bf = brute_force_pmf(params)
    for k in range(params.a, params.n + 1):
        assert pmf.prob(k) == pytest.approx(bf.prob(k), abs=1e-9)
    previous = 0.0
    for tau in range(params.a, params.n + 1):
        stop = float(exact_stop_cdf(params, tau))
        assert stop == pytest.approx(float(pmf.cdf_at(tau)), abs=1e-12)
        assert stop >= previous
        previous = stop


@st.composite
def midsize_instances(draw):
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 60))
    return ModelParams(n=n, p=draw(st.floats(0.0, 1.0)), r=r,
                       a=draw(st.integers(1, n)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(midsize_instances())
def test_exact_pmf_normalises_within_bound_property(params):
    pmf = exact_pmf(params)
    assert abs(float(pmf.total()) - 1.0) <= pmf.truncation_bound + 1e-10


# ---------------------------------------------------------------------------
# truncated stop probabilities

def test_stop_cdf_trivialities():
    params = ModelParams(n=30, p=0.1, r=2, a=4)
    assert float(exact_stop_cdf(params, 30)) == pytest.approx(1.0, abs=1e-12)
    assert float(exact_stop_cdf(params, 3)) == 0.0
    with pytest.raises(ParameterError):
        exact_stop_cdf(params, 31)


@pytest.mark.parametrize("tau", [5, 9, 20, 35, 49])
def test_stop_cdf_consistent_with_full_pmf(tau):
    params = ModelParams(n=50, p=0.05, r=2, a=5)
    pmf = exact_pmf(params)
    direct = float(exact_stop_cdf(params, tau))
    summed = float(pmf.cdf_at(tau))
    assert direct == pytest.approx(summed, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 40, 200])
def test_stop_cdf_at_n_is_the_pmf_total_bit_for_bit(n):
    # both queries reduce the same stop atoms ln P(T = t), t = a..n, in
    # the same order, so the sums agree to the last bit, sure A* included
    for p in (0.0, 0.05, 0.3, 1.0, n ** -0.7):
        for r in (2, 3):
            for a in sorted({1, 2, 3, n} & set(range(1, n + 1))):
                params = ModelParams(n=n, p=p, r=r, a=a)
                assert exact_stop_cdf(params, n).ln_p == \
                    exact_pmf(params).total().ln_p, params


def test_stop_cdf_truncation_bound_is_reported():
    params = ModelParams(n=3000, p=3000 ** -0.7, r=2, a=30)
    value = exact_stop_cdf(params, 60)
    assert 0.0 < float(value) < 1.0
    bound = value.truncation_bound
    assert bound == oracle._forward(params, 60, 60 - 30 + 1)[2]
    assert bound <= 1e-12 * float(value) or bound == 0.0
    # no pass, no dropped mass
    assert exact_stop_cdf(params, 20).truncation_bound == 0.0


def test_stop_cdf_matches_large_n_small_n_scaling():
    # same chain truncated early is insensitive to states above the cap
    params = ModelParams(n=400, p=0.02, r=2, a=8)
    full = exact_pmf(params)
    trunc = exact_stop_cdf(params, 25)
    assert float(trunc) == pytest.approx(float(full.cdf_at(25)), abs=1e-9)


def _linear_stop_cdf(params, tau):
    """P(T <= tau) from the same chain and q_t schedule, in linear space:
    each row's pmf is exp(m log(1 - q)) times the running product of
    (m - j + 1)/j * q/(1 - q), with no log-gamma anywhere."""
    big, a = params.n - params.a, params.a
    s_hi = min(tau - a + 1, big)
    log_q, log_1mq = _log_q_schedule(params.p, params.r, tau)
    m = (big - np.arange(s_hi + 1)).astype(np.float64)
    j = np.arange(1, s_hi + 1, dtype=np.float64)
    vec = np.zeros(s_hi + 1)
    vec[0] = 1.0
    stops = []
    for t in range(tau):
        if log_q[t] > -math.inf:
            ratio = np.maximum(m[:, None] - j[None, :] + 1.0, 0.0) / j \
                * math.exp(log_q[t] - log_1mq[t])
            rows = np.exp(m * log_1mq[t])[:, None] * np.cumprod(
                np.hstack([np.ones((s_hi + 1, 1)), ratio]), axis=1)
            new = np.zeros(s_hi + 1)
            for d in range(s_hi + 1):
                new[d:] += vec[:s_hi + 1 - d] * rows[:s_hi + 1 - d, d]
            vec = new
        k = t + 1 - a
        if 0 <= k <= s_hi:
            stops.append(vec[k])
            vec[k] = 0.0
    return math.fsum(stops)


def test_stop_cdf_matches_linear_space_reference_at_criterion_6_horizon():
    # at n = 1e5 a log-gamma of N + 1 alone is ~1e6, so a kernel that
    # differences such values loses ~1e-10 relative; the reference has
    # no such term
    n = 10**5
    params = SPEC_07.params_at(n)
    tau = math.floor(default_stop_horizon(SPEC_07.alpha, SPEC_07.r)
                     * SPEC_07.crit_at(n).a_c)
    want = _linear_stop_cdf(params, tau)
    assert 0.0 < want < 1e-6
    assert float(exact_stop_cdf(params, tau)) == pytest.approx(
        want, rel=2e-11, abs=0.0)


# 40-digit values of the same (t, S) DP, every step in full precision
@pytest.mark.parametrize("n, tau, want, rel", [
    (10**5, 197, 8.134737883566768830e-10, 2e-13),
    (10**6, 495, 6.031289119136568653e-24, 1.5e-12),
])
def test_stop_cdf_matches_40_digit_dp_at_criterion_6_horizon(n, tau, want, rel):
    got = float(exact_stop_cdf(SPEC_07.params_at(n), tau))
    assert got == pytest.approx(want, rel=rel, abs=0.0)


# log q_t from 60-digit arithmetic; 0.004889663842714644 = 2000^-0.7, and
# 1.574815529188034e-05 is the criterion-4 rule at n = 1e6
@pytest.mark.parametrize("p, r, t, want", [
    (0.004889663842714644, 2, 1, -10.64126344335891454285765),
    (0.004889663842714644, 2, 100, -6.430886099181818051457885),
    (0.004889663842714644, 2, 1999, -5.417583663933379682100252),
    (0.004889663842714644, 3, 2, -15.96189516503837181428647),
    (0.004889663842714644, 3, 500, -6.085023622520953594625588),
    (0.004889663842714644, 3, 1999, -5.523128900518291914078193),
    (1.574815529188034e-05, 2, 10, -19.81513127811491059634755),
    (1.574815529188034e-05, 2, 100_000, -11.55042095893821656120672),
    (1.574815529188034e-05, 2, 999_998, -11.12035138929059146561168),
])
def test_log_q_schedule_matches_60_digit_hazard(p, r, t, want):
    log_q, log_1mq = _log_q_schedule(p, r, t + 1)
    assert log_q[t] == pytest.approx(want, rel=1e-14, abs=0.0)
    assert log_1mq[t] == pytest.approx(math.log1p(-math.exp(want)),
                                       rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("r_from_n", [None, 0, 2], ids=["r2", "r=n", "r=n+2"])
@pytest.mark.parametrize("a_pick", [1, 2, None], ids=["a1", "a2", "a=n"])
def test_sure_instances_match_enumeration(n, p, r_from_n, a_pick):
    # A* is not random at p = 0 or 1, or when r >= n; enumeration does not
    # know that, so it checks the closed-form answer
    r = 2 if r_from_n is None else n + r_from_n
    params = ModelParams(n=n, p=p, r=r, a=n if a_pick is None else a_pick)
    bf = brute_force_pmf(params)
    pmf = exact_pmf(params)
    assert pmf.support() == bf.support()
    for k in bf.support():
        assert pmf.prob(k) == bf.prob(k), k
    for tau in range(n + 1):
        assert float(exact_stop_cdf(params, tau)) == float(bf.cdf_at(tau)), tau


# ---------------------------------------------------------------------------
# tail queries

def test_tail_query_empty_union_is_zero():
    params = ModelParams(n=6, p=0.4, r=2, a=2)
    assert float(exact_tail_query(params, CONST_1, 5.0)) == 0.0


def test_tail_query_eps_to_zero_complements_full_percolation():
    params = ModelParams(n=6, p=0.4, r=2, a=2)
    pmf = exact_pmf(params)
    val = float(exact_tail_query(params, CONST_1, 1e-9))
    assert val == pytest.approx(1.0 - pmf.prob(6), abs=1e-9)


def test_tail_query_matches_enumeration():
    params = ModelParams(n=6, p=0.4, r=2, a=2)
    bf = brute_force_pmf(params)
    want = bf.prob(2) + bf.prob(3) + bf.prob(4)
    got = float(exact_tail_query(params, CONST_1, 1.5))
    assert got == pytest.approx(want, abs=1e-9)
    # p = 0 stops at a surely, and const needs no critical quantities
    params = ModelParams(n=6, p=0.0, r=2, a=2)
    assert brute_force_pmf(params).prob(2) == 1.0
    assert float(exact_tail_query(params, CONST_1, 1.5)) == 1.0


# ---------------------------------------------------------------------------
# chain-vs-marginal: validates the q_t construction

def _chain_marginal_log_pmf(params, t):
    """Marginal law of S(t) from the DP's transitions, survival ignored:
    it must reproduce Bin(n - a, pi(t))."""
    return oracle._forward(params, t, params.n - params.a, absorb=False)[1]


@pytest.mark.parametrize("t", [1, 5, 10, 20])
def test_chain_marginal_is_binomial(t):
    params = ModelParams(n=20, p=0.15, r=2, a=3)
    got = np.exp(_chain_marginal_log_pmf(params, t))
    pi = activation_prob(t, 0.15, 2).pi
    want = np.exp(log_pmf_array(17, pi))
    assert np.abs(got - want).max() < 1e-9


# ---------------------------------------------------------------------------
# forward-pass bits: sha256 of (absorbed, logvec, bound) from the
# step-by-step pass that the blocked row cut-offs replaced

FORWARD_SHA256 = {
    ("pmf", 6, 2): "90ba224fa2ae77d4cd2bfb22f13e05b8b8c8e96eada81df7833b96ed8bb1dc47",
    ("pmf", 12, 2): "dbc663b2d5e65f563b2be05261b4cb4fc6d7fc1dc34466b4bf5419cb1c12d5dc",
    ("pmf", 40, 2): "8030adaf4aeca29f5431702c58293efffd3b77f7abff41bf87b1ece793f558ee",
    ("pmf", 200, 2): "aec819173503dec8ceba7aea40aabd751cf95c33ad03d5f12961f060d35df301",
    ("pmf", 500, 2): "0bce4351dccd44db913787619c9f6ecc0db4947416b1ec07c9ad9b238bf2e162",
    ("pmf", 6, 3): "0aaf817c1ba8d5cfdbf076684a6c8c36a4245c7c0c7a24ab8ee0591525d88055",
    ("pmf", 12, 3): "74e6350f34e972a0fb73e040a0b3c5e70a1e07216e3362f14a28cb2f9db22526",
    ("pmf", 40, 3): "997d1e850200431d6caa9a82dedb460c495cfcb0edd11ecbc173d47423455deb",
    ("pmf", 200, 3): "1e9b75c59bc220872da495db59e2851ba2b33e98a4c3a30fcd6716a5cfebe9c5",
    ("pmf", 500, 3): "93c22bb2db8259f9ffcd84ed52e0c9ce072a66b3811270b77a88a468e3fdab06",
    ("cdf", 10**3, 2): "e3d249e4de50eaf106e4d7f65c036a88fb085e4264f2d9e48405cc0fe923539a",
    ("cdf", 10**4, 2): "5430d8617561019fb810267aa7f8b840a3f037b548a98e0d317ed01b85ba03df",
    ("cdf", 10**5, 2): "c195285bbc4ee821f529132367ec8bc7c1cc7a58b0313cc160943c8a825d6983",
    ("cdf", 10**6, 2): "df90afb2d47f23116c47316bed24ba2efb970d37b9a8ab3a8aaba372e5fdd37d",
    ("marginal", 200, 2): "dbb2696acf87e7e26006d899d69910d4557c8eb7dec899c211e19d0096c31430",
    ("marginal", 200, 3): "9769ea0fd90e335fbe7fa9adb5c30ce49f87c92fda6fb08a1f21d5bd331ed3b1",
    ("marginal", 500, 2): "16fe3d9c7a18ee0b26d5103c03bc27db53fad4a65db164106d3d84f5fc8d6501",
    ("marginal", 500, 3): "267f87d7f84f857aa656ef181ef383908f469c6da7035ae1c1306601ab9f1858",
}

# the same with every row cut-off at 1e-100 of the row's peak, where the
# window test fails and j_win grows (1226 widenings over the four)
GROWN_FORWARD_SHA256 = {
    ("pmf", 200, 2): "fba5bc7abf80cc2b75d078fade0b96dadda67ad7e3464d2a86a5b5bf3a505e98",
    ("pmf", 200, 3): "c0280dc0bc07035886cfbe77fd96f30d89e47ed440471ec5d2692876f99dab01",
    ("pmf", 500, 3): "3a9c8415292f5045f6e83785f46eec8aeff80fc857775ad1eaced513b9a53991",
    ("cdf", 10**6, 2): "7170370ee5d145ac96c4c3f1ec6b9c77d35bb5d54d69fd9c70790a2e03e40a24",
}


_case_id = "{0[0]}-n{0[1]}-r{0[2]}".format


def _forward_sha256(route, n, r):
    """sha256 of _forward's output under the arguments that exact_pmf
    (p = n^-0.7, a = ceil(2 a_c)), exact_stop_cdf (the criterion-6
    horizon) or _chain_marginal_log_pmf (t = n / 5) pass it."""
    spec = dataclasses.replace(SPEC_07, r=r)
    params = spec.params_at(n)
    if params.a == n:  # n = 6, r = 3 is a sure instance; take a = 4
        params = dataclasses.replace(params, a=4)
    big = n - params.a
    if route == "pmf":
        args = (params, n, big)
    elif route == "cdf":
        tau = math.floor(default_stop_horizon(spec.alpha, r)
                         * spec.crit_at(n).a_c)
        args = (params, tau, min(tau - params.a + 1, big))
    else:
        args = (params, n // 5, big, False)
    absorbed, logvec, bound = oracle._forward(*args)
    return hashlib.sha256(absorbed.tobytes() + logvec.tobytes()
                          + struct.pack("<d", bound)).hexdigest()


@pytest.mark.parametrize("case", sorted(FORWARD_SHA256), ids=_case_id)
def test_forward_output_is_pinned_bit_for_bit(case):
    assert _forward_sha256(*case) == FORWARD_SHA256[case]


@pytest.mark.parametrize("case", sorted(GROWN_FORWARD_SHA256), ids=_case_id)
def test_forward_output_is_pinned_where_the_window_grows(case, monkeypatch):
    monkeypatch.setattr(oracle, "_LN_ROW_REL_TOL", math.log(1e-100))
    got = _forward_sha256(*case)
    assert got == GROWN_FORWARD_SHA256[case]
    assert got != FORWARD_SHA256[case]  # the wider windows moved bits


# ---------------------------------------------------------------------------
# brute force

def test_brute_force_eight_graphs_by_hand():
    pmf = brute_force_pmf(ModelParams(n=3, p=0.5, r=2, a=2))
    assert pmf.prob(2) == pytest.approx(0.75, rel=1e-12)
    assert pmf.prob(3) == pytest.approx(0.25, rel=1e-12)


def test_brute_force_degenerate_p():
    assert brute_force_pmf(ModelParams(n=4, p=0.0, r=2, a=2)).prob(2) == 1.0
    assert brute_force_pmf(ModelParams(n=4, p=1.0, r=2, a=2)).prob(4) == 1.0


def test_brute_force_shares_one_read_only_table_across_p():
    table = _final_size_counts(4, 2, 2)
    assert not table.flags.writeable
    # A* = 2 iff neither non-seed node is joined to both seeds
    for p in (0.3, 0.6):
        assert brute_force_pmf(ModelParams(n=4, p=p, r=2, a=2)).prob(2) == \
            pytest.approx((1 - p * p) ** 2, rel=1e-12)
    assert _final_size_counts(4, 2, 2) is table


def test_brute_force_cap():
    with pytest.raises(ParameterError):
        brute_force_pmf(ModelParams(n=8, p=0.5, r=2, a=2))


# ---------------------------------------------------------------------------
# low-level binomial helpers

def test_log_binom_matches_simple_cases():
    assert math.exp(log_binom_pmf(4, 0.5, 2)) == pytest.approx(6 / 16)
    assert math.exp(log_binom_cdf(2, 0.5, 1)) == pytest.approx(0.75)
    assert log_binom_cdf(10, 0.3, 10) == 0.0
    assert log_binom_pmf(10, 0.0, 0) == 0.0
    assert log_binom_pmf(10, 1.0, 10) == 0.0


def test_log_binom_deep_tail_precision():
    # P(Bin(m, q) <= 1) for mq large: direct small-side sum stays relative
    m, q = 10**6, 0.01
    got = log_binom_cdf(m, q, 1)
    want = m * math.log1p(-q) + math.log(1 + m * q / (1 - q))
    assert got == pytest.approx(want, rel=1e-12)


def _exact_log_cdf_head(m: int, p: float, k: int) -> float:
    """log P(Bin(m, p) <= k) in exact rational arithmetic on the float p.

    The log splits off a power of two first: the log of a ratio of two
    large integers, taken as a difference of their logs, loses ~1e-11."""
    q = Fraction(p)
    head = sum(math.comb(m, j) * q ** j * (1 - q) ** (m - j)
               for j in range(min(k, m) + 1))
    if head == 0:
        return -math.inf
    e = head.numerator.bit_length() - head.denominator.bit_length()
    return e * math.log(2) + math.log(head / Fraction(2) ** e)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("p", [0.0, 1e-4, 0.3, 1.0])
def test_log_cdf_head_matches_scalar_log_inactive_prob(p, r):
    # both against exact rationals, so each is within 1e-14 of the truth;
    # the heads d = 0..3 are the mark chain's log F(d)
    t =[0, 1, 2, 3, 4, 5, 7, 10, 30, 100, 300, 1000, 2000, 10_000]
    for d in range(4):
        got = log_cdf_head(np.array(t), p, d)
        for ti, value in zip(t, got.tolist()):
            want = _exact_log_cdf_head(ti, p, d)
            assert value == pytest.approx(want, rel=1e-14, abs=1e-14), (
                d, ti, value)
            if d == r - 1:
                assert log_inactive_prob(ti, p, r) == pytest.approx(
                    want, rel=1e-14, abs=1e-14), ti
