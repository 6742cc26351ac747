import math
import tracemalloc

import numpy as np
import pytest

from bootperc import bounds
from bootperc._binom import log_cdf_array, log_pmf_array, log_sf_array
from bootperc.bounds import (approx_log_tail, approx_lower_tail,
                             approx_small_mean_tail, asymptotic_diagnostics,
                             chernoff_lower, chernoff_upper, heavy_tail_bound,
                             penrose_grid_violations)
from bootperc.core import SequenceSpec
from bootperc.errors import ParameterError, RegimeMismatch
from bootperc.ratefun import entropy_H

SPEC_07 = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
SPEC_FIN = SequenceSpec(rule="log_form", constants={"d": -math.log(2)},
                        r=2, alpha=2.0)


# ---------------------------------------------------------------------------
# deviation inequalities

def test_chernoff_upper_value_and_direction():
    rep = chernoff_upper(10, 0.3, 5)
    assert rep.bound_or_approx == pytest.approx(
        math.exp(-3.0 * entropy_H(5 / 3)), rel=1e-12)
    assert rep.exact <= rep.bound_or_approx + 1e-12
    assert 0.0 < rep.ratio <= 1.0


def test_chernoff_upper_at_mean_is_trivial():
    rep = chernoff_upper(10, 0.3, 3)  # k = mu exactly
    assert rep.bound_or_approx == pytest.approx(1.0)
    assert rep.exact <= 1.0


def test_chernoff_upper_midrange():
    rep = chernoff_upper(100, 0.1, 30)
    assert rep.exact <= rep.bound_or_approx + 1e-12


def test_chernoff_upper_rejects_wrong_side():
    with pytest.raises(ParameterError):
        chernoff_upper(100, 0.5, 10)


def test_chernoff_lower_values():
    rep = chernoff_lower(20, 0.5, 0)
    assert rep.bound_or_approx == pytest.approx(math.exp(-10.0), rel=1e-12)
    assert rep.exact == pytest.approx(0.5 ** 20, rel=1e-9)
    assert rep.exact <= rep.bound_or_approx
    rep = chernoff_lower(50, 0.5, 10)
    assert rep.exact <= rep.bound_or_approx + 1e-12
    rep = chernoff_lower(50, 0.5, 25)  # k = mu
    assert rep.bound_or_approx == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        chernoff_lower(50, 0.5, 30)


def test_heavy_tail_cases():
    rep = heavy_tail_bound(1000, 0.001, 8)  # mu = 1, k >= e^2
    assert rep.exact <= rep.bound_or_approx + 1e-12
    rep = heavy_tail_bound(1000, 0.001, math.ceil(math.e ** 2))  # boundary
    assert rep.exact <= rep.bound_or_approx + 1e-12
    rep = heavy_tail_bound(10_000, 0.001, 80)
    assert rep.exact <= rep.bound_or_approx + 1e-12
    with pytest.raises(ParameterError):
        heavy_tail_bound(1000, 0.001, 7)


def test_bounds_refuse_non_integer_n_and_k():
    # a float n used to reach the binomial as 10.5 trials (or a bare
    # TypeError), and a float k was certified against its integer part
    for bound, n, p, k in ((chernoff_upper, 10, 0.3, 5),
                           (chernoff_lower, 10, 0.3, 2),
                           (heavy_tail_bound, 1000, 0.001, 8)):
        bound(n, p, k)
        assert bound(np.int64(n), p, np.int64(k)) == bound(n, p, k)
        for bad_n, bad_k in ((n + 0.5, k), (n, k + 0.5), (float(n), k),
                             (n, float(k))):
            with pytest.raises(ParameterError, match="integers"):
                bound(bad_n, p, bad_k)
    # k = 0 is the lower tail's alone; a negative k is refused
    assert chernoff_lower(10, 0.3, 0).exact == pytest.approx(0.7 ** 10)
    for bound in (chernoff_upper, heavy_tail_bound):
        with pytest.raises(ParameterError):
            bound(10, 0.3, 0)
    for bound in (chernoff_upper, chernoff_lower, heavy_tail_bound):
        with pytest.raises(ParameterError):
            bound(10, 0.3, -1)


def test_bounds_refuse_a_bool_n_or_k():
    # True is an int to isinstance; chernoff_lower(True, 0.3, 0) used to
    # return a report for one trial
    for bound, n, p, k in ((chernoff_upper, 10, 0.3, 5),
                           (chernoff_lower, 10, 0.3, 2),
                           (heavy_tail_bound, 1000, 0.001, 8)):
        for flag in (True, np.bool_(True), False):
            for bad_n, bad_k in ((flag, k), (n, flag)):
                with pytest.raises(ParameterError, match="integers"):
                    bound(bad_n, p, bad_k)
    with pytest.raises(ParameterError, match="integers"):
        chernoff_lower(True, 0.3, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: chernoff_upper(0, 0.3, 5), "n must be positive"),
    (lambda: chernoff_lower(10, 0.0, 2), r"p must lie in \(0, 1\)"),
    (lambda: heavy_tail_bound(1000, 1.0, 8), r"p must lie in \(0, 1\)"),
    (lambda: approx_small_mean_tail(10**4, 1e-6, 0), "k must be >= 1"),
    (lambda: approx_log_tail(10**6, 1e-5, 0), "r_big must be >= 1"),
    (lambda: approx_lower_tail(10**4, 1e-3, 0), "k must be >= 1"),
], ids=["n", "p-zero", "p-one", "small-mean-k", "log-tail-r", "lower-k"])
def test_bounds_and_approximations_refuse_out_of_range_arguments(call,
                                                                 message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_penrose_reduced_grid_has_no_violations():
    checked, bad = penrose_grid_violations(
        range(5, 41), (0.02, 0.1, 0.35, 0.6, 0.9))
    assert checked > 3000
    assert bad == []


def _penrose_one_instance_at_a_time(n_values, p_values, slack):
    """The sweep one (n, p) at a time, each from its own log pmf and its
    own tails: the reference for the values and the order of `bad`."""
    checked, bad = 0, []
    for n in n_values:
        for p in p_values:
            mu = n * p
            k = np.arange(1, n)
            lp = log_pmf_array(n, p)
            lsf = log_sf_array(lp)[1:n]
            lcdf = log_cdf_array(lp)[1:n]
            x = k / mu
            log_x = np.log(x)
            ln_chernoff = -mu * (1.0 - x + x * log_x)
            for name, ok, ln_exact, ln_bound in (
                    ("chernoff_upper", k >= mu, lsf, ln_chernoff),
                    ("chernoff_lower", k <= mu, lcdf, ln_chernoff),
                    ("heavy_tail", k >= math.e ** 2 * mu, lsf,
                     -(k / 2.0) * log_x)):
                exact = np.exp(ln_exact[ok])
                bound = np.exp(ln_bound[ok])
                checked += int(ok.sum())
                for idx in np.flatnonzero(exact > bound + slack):
                    bad.append((name, n, p, int(k[ok][idx]),
                                float(exact[idx]), float(bound[idx])))
    return checked, bad


def test_penrose_sweep_equals_the_per_instance_sweep_in_order():
    # a negative slack turns most checks into entries of `bad`, so every
    # value and the (n, p, name, k) order of the list are compared
    grid = (range(5, 60), (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9))
    checked, bad = penrose_grid_violations(*grid, slack=-1e-3)
    assert len(bad) > 10_000
    assert len({name for name, *_ in bad}) == 3
    assert (checked, bad) == _penrose_one_instance_at_a_time(*grid, -1e-3)


def test_penrose_sweep_raises_no_overflow_outside_each_bounds_range():
    # at n = 5000, p = 0.9 the heavy-tail exponent -(k/2) ln(k/mu) reaches
    # +828 for k < e^2 mu, where that bound is not checked; the exp must
    # skip it rather than overflow (a RuntimeWarning fails the test)
    checked, bad = penrose_grid_violations([5000], [0.9])
    assert checked == _penrose_one_instance_at_a_time([5000], [0.9], 1e-12)[0]
    assert bad == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_penrose_sweep_takes_p_zero_and_one_without_a_warning():
    # p = 0 gives mu = 0 and x = k / mu = +inf, where no bound is checked
    assert penrose_grid_violations(range(5, 8), (0.0,)) == (30, [])
    assert penrose_grid_violations(range(5, 8), (1.0,)) == (15, [])


def test_penrose_blocked_sweep_equals_the_per_instance_sweep_across_blocks():
    # unsorted and repeated n split into several blocks of the sweep, and
    # p = 0 and p = 1 rows sit between interior ones in each block
    grid = ([300, 5, 5, 41, 7, 600, 6], (0.3, 0.0, 0.05, 1.0, 0.9))
    assert len(list(bounds._sweep_blocks(grid[0], len(grid[1])))) > 1
    checked, bad = penrose_grid_violations(*grid, slack=-1e-3)
    assert len({name for name, *_ in bad}) == 3
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0: mu = 0
        want = _penrose_one_instance_at_a_time(*grid, -1e-3)
    assert (checked, bad) == want


def test_penrose_sweep_peak_memory_is_no_higher_than_one_n_at_a_time():
    # one n above the block budget is a block of its own; the sweep that
    # took one n at a time peaked at 5353370 bytes of tracemalloc in this
    # test (about 15 arrays of 9 x 5001 floats), with ln k! already grown
    grid = ([5000], (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9))
    penrose_grid_violations(*grid)
    tracemalloc.start()
    try:
        penrose_grid_violations(*grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5353370


def test_penrose_sweep_refuses_bad_n_and_p_with_their_messages():
    for n_values in ([5.5], [True], [5, 6, np.float64(7.0)]):
        with pytest.raises(ParameterError, match="n must be an integer"):
            penrose_grid_violations(n_values, [0.3])
    with pytest.raises(ParameterError, match="must be nonnegative"):
        penrose_grid_violations([5, 6, -1], [0.3])
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ParameterError, match=r"q must lie in \[0, 1\]"):
            penrose_grid_violations([5, 6], [0.3, p])


# ---------------------------------------------------------------------------
# asymptotic approximations

def test_small_mean_tail_example():
    rep = approx_small_mean_tail(10**4, 1e-6, 2)
    assert rep.bound_or_approx == pytest.approx(5e-5, rel=1e-12)
    assert abs(rep.ratio - 1.0) < 0.02
    assert "qm_small:ok" in rep.regime_tags


def test_small_mean_tail_trend():
    near = approx_small_mean_tail(10**4, 1e-6, 2)
    nearer = approx_small_mean_tail(10**6, 1e-9, 3)
    assert abs(nearer.ratio - 1.0) < abs(near.ratio - 1.0)


def test_small_mean_tail_first_order_sanity():
    m, q = 10**4, 1e-6
    rep = approx_small_mean_tail(m, q, 1)
    exact = 1.0 - (1.0 - q) ** m
    assert rep.exact == pytest.approx(exact, rel=1e-9)
    assert rep.bound_or_approx == pytest.approx(q * m, rel=1e-12)
    assert abs(rep.ratio - 1.0) < q * m


def test_log_tail_values_frozen_by_summation():
    # r/(q m) = 10 is far from the r >> q m regime: the log ratio computed
    # by direct summation sits near 0.62, not near 1
    rep = approx_log_tail(10**6, 1e-5, 100)
    assert rep.ratio == pytest.approx(0.623, abs=0.01)
    rep2 = approx_log_tail(10**8, 1e-6, 1000)
    assert rep2.ratio == pytest.approx(0.609, abs=0.01)


def test_log_tail_true_trend_needs_growing_separation():
    ratios = []
    for j in range(3):
        m = 10 ** (9 + j)
        q = 100.0 / m
        r_big = int(round(100 * math.exp(10 + 2 * j)))
        ratios.append(abs(approx_log_tail(m, q, r_big).ratio - 1.0))
    assert ratios[0] < 0.11
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_log_tail_degenerate_flagged_not_raised():
    rep = approx_log_tail(10**4, 0.01, 100)  # r = q m exactly
    assert math.isnan(rep.ratio)
    assert "degenerate:r=qm" in rep.regime_tags


def test_lower_tail_example_and_trend():
    rep = approx_lower_tail(10**4, 1e-3, 2)
    assert abs(rep.ratio - 1.0) <= 0.102
    rep2 = approx_lower_tail(10**6, 1e-4, 2)
    assert abs(rep2.ratio - 1.0) < abs(rep.ratio - 1.0)


def test_lower_tail_k1_is_exact_identity():
    m, q = 5000, 2e-4
    rep = approx_lower_tail(m, q, 1)
    assert rep.bound_or_approx == pytest.approx((1 - q) ** m, rel=1e-14)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ladder diagnostics

def test_speed_diagnostic_marches_to_one():
    rows = asymptotic_diagnostics(SPEC_07, "speed",
                                  [10**4, 10**5, 10**6, 10**7], x=1.0)
    gaps = [abs(r.ratio - 1.0) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01


def test_one_minus_pi_diagnostic():
    rows = asymptotic_diagnostics(SPEC_07, "one_minus_pi",
                                  [10**4, 10**5, 10**6, 10**7])
    gaps = [abs(r.ratio - 1.0) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01


def test_log_bc_diagnostic_and_regime_gate():
    rows = asymptotic_diagnostics(SPEC_07, "log_bc",
                                  [10**6, 10**8, 10**10, 10**12])
    gaps = [abs(r.ratio - 1.0) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01
    with pytest.raises(RegimeMismatch):
        asymptotic_diagnostics(SPEC_FIN, "log_bc", [10**6, 10**8, 10**10])
    with pytest.raises(ParameterError):
        asymptotic_diagnostics(SPEC_07, "nope", [10**6, 10**8])
