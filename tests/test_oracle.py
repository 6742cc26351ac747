import math
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
from bootperc.montecarlo import default_stop_horizon
from bootperc.oracle import (PMF_NODE_CAP, _chain_marginal_log_pmf,
                             _log_q_schedule, auxiliary_tail, brute_force_pmf,
                             exact_pmf, exact_stop_cdf, exact_tail_query)
from bootperc.ratefun import Const

SPEC_07 = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)


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


def test_deep_tail_survives_in_log_scale():
    # mid-range stop values are astronomically unlikely but stay resolved
    pmf = exact_pmf(ModelParams(n=200, p=0.2, r=2, a=4))
    mid = pmf.probs[100]
    assert float(mid) == 0.0 or float(mid) < 1e-200
    assert -1e7 < mid.log2() < -300


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


def test_stop_cdf_truncation_bound_is_reported():
    params = ModelParams(n=3000, p=3000 ** -0.7, r=2, a=30)
    value, bound = exact_stop_cdf(params, 60, with_bound=True)
    assert 0.0 < float(value) < 1.0
    assert bound <= 1e-12 * float(value) or bound == 0.0


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


# ---------------------------------------------------------------------------
# tail queries

def test_tail_query_empty_union_is_zero():
    params = ModelParams(n=6, p=0.4, r=2, a=2)
    assert float(exact_tail_query(params, Const(1.0), 5.0)) == 0.0


def test_tail_query_eps_to_zero_complements_full_percolation():
    params = ModelParams(n=6, p=0.4, r=2, a=2)
    pmf = exact_pmf(params)
    val = float(exact_tail_query(params, Const(1.0), 1e-9))
    assert val == pytest.approx(1.0 - pmf.prob(6), abs=1e-9)


def test_tail_query_matches_enumeration():
    params = ModelParams(n=6, p=0.4, r=2, a=2)
    bf = brute_force_pmf(params)
    want = bf.prob(2) + bf.prob(3) + bf.prob(4)
    got = float(exact_tail_query(params, Const(1.0), 1.5))
    assert got == pytest.approx(want, abs=1e-9)
    # p = 0 stops at a surely, and Const needs no critical quantities
    params = ModelParams(n=6, p=0.0, r=2, a=2)
    assert brute_force_pmf(params).prob(2) == 1.0
    assert float(exact_tail_query(params, Const(1.0), 1.5)) == 1.0


# ---------------------------------------------------------------------------
# auxiliary process

def test_auxiliary_tail_before_seeds():
    # t < a makes {S + a <= t} impossible while S' can still undershoot t
    p_event, p_aux = auxiliary_tail(ModelParams(n=20, p=0.3, r=2, a=5), 3)
    assert p_event == 0.0
    assert 0.0 < p_aux < 1.0


def test_auxiliary_tail_dead_marks():
    # t < r means pi = 0; the event {S + a <= t} is sure iff a <= t
    p_event, _ = auxiliary_tail(ModelParams(n=20, p=0.3, r=4, a=2), 3)
    assert p_event == 1.0
    p_event, _ = auxiliary_tail(ModelParams(n=20, p=0.3, r=4, a=5), 3)
    assert p_event == 0.0


def test_auxiliary_tail_convolution_value():
    params = ModelParams(n=50, p=0.1, r=2, a=5)
    p_event, p_aux = auxiliary_tail(params, 10)
    pi = activation_prob(10, 0.1, 2).pi
    want_event = math.exp(log_binom_cdf(45, pi, 5))
    # S' = S + Bin(a, pi) has the law of Bin(n, pi)
    want_aux = math.exp(log_binom_cdf(50, pi, 10))
    assert p_event == pytest.approx(want_event, rel=1e-12)
    assert p_aux == pytest.approx(want_aux, rel=1e-10)
    assert p_event <= p_aux


def test_auxiliary_inequality_randomized_grid():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        n = int(rng.integers(5, 120))
        a = int(rng.integers(1, n))
        r = int(rng.integers(2, 5))
        p = float(rng.uniform(0.01, 0.6))
        t = int(rng.integers(0, n + 1))
        p_event, p_aux = auxiliary_tail(ModelParams(n=n, p=p, r=r, a=a), t)
        assert p_event <= p_aux + 1e-12


# ---------------------------------------------------------------------------
# chain-vs-marginal: validates the q_t construction

@pytest.mark.parametrize("t", [1, 5, 10, 20])
def test_chain_marginal_is_binomial(t):
    params = ModelParams(n=20, p=0.15, r=2, a=3)
    got = np.exp(_chain_marginal_log_pmf(params, t))
    pi = activation_prob(t, 0.15, 2).pi
    want = np.exp(log_pmf_array(17, pi))
    assert np.abs(got - want).max() < 1e-9


# ---------------------------------------------------------------------------
# brute force

def test_brute_force_eight_graphs_by_hand():
    pmf = brute_force_pmf(ModelParams(n=3, p=0.5, r=2, a=2))
    assert pmf.prob(2) == pytest.approx(0.75, rel=1e-12)
    assert pmf.prob(3) == pytest.approx(0.25, rel=1e-12)


def test_brute_force_degenerate_p():
    assert brute_force_pmf(ModelParams(n=4, p=0.0, r=2, a=2)).prob(2) == 1.0
    assert brute_force_pmf(ModelParams(n=4, p=1.0, r=2, a=2)).prob(4) == 1.0


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
    # both against exact rationals, so each is within 1e-14 of the truth
    t =[0, 1, 2, 3, 4, 5, 7, 10, 30, 100, 300, 1000, 2000, 10_000]
    got = log_cdf_head(np.array(t), p, r - 1)
    for ti, value in zip(t, got.tolist()):
        want = _exact_log_cdf_head(ti, p, r - 1)
        assert value == pytest.approx(want, rel=1e-14, abs=1e-14), (ti, value)
        assert log_inactive_prob(ti, p, r) == pytest.approx(
            want, rel=1e-14, abs=1e-14), ti
