"""The scipy-free log-factorial table and Poisson tail reproduce the scipy
values they replace, bit for bit where the output depends on them, and
the scalar tails keep their bits."""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import gammaln, pdtrc

from bootperc._binom import (log_binom_cdf, log_binom_pmf, log_binom_sf,
                             log_factorials, log_pmf_array, log_poisson_sf)
from bootperc.errors import ParameterError
from bootperc.montecarlo import _poisson_cut_points

# the p grid of the Penrose inequality sweep (acceptance criterion 3)
PENROSE_P = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9)


def test_log_factorials_equal_gammaln_bit_for_bit():
    k_max = 200_000
    lnf = log_factorials(k_max)
    want = gammaln(np.arange(k_max + 1, dtype=np.float64) + 1.0)
    assert np.array_equal(lnf[:k_max + 1], want)
    assert not lnf.flags.writeable


def test_log_factorials_grow_without_moving_entries():
    before = log_factorials(10).copy()
    grown = log_factorials(len(before) * 3 + 7)
    assert len(grown) > len(before) * 3 + 7
    assert np.array_equal(grown[:len(before)], before)


def test_log_pmf_array_equals_the_gammaln_formula_on_the_penrose_grid():
    for n in range(5, 201):
        k = np.arange(n + 1, dtype=np.float64)
        for p in PENROSE_P:
            old = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                   + k * math.log(p) + (n - k) * math.log1p(-p))
            assert np.array_equal(log_pmf_array(n, p), old), (n, p)


def test_log_pmf_array_rows_equal_the_scalar_calls_bit_for_bit():
    m = np.array([0, 0, 0, 1, 7, 7, 7, 3, 200, 0, 64, 5000, 12])
    q = np.array([0.0, 1.0, 0.3, 0.5, 0.0, 1.0, 5e-324, 1 - 1e-16, 0.9,
                  0.01, 0.05, 0.3, 1.0])
    rows = log_pmf_array(m, q)
    assert rows.shape == (len(m), m.max() + 1)
    for row, mi, qi in zip(rows, m.tolist(), q.tolist()):
        want = log_pmf_array(mi, qi)
        # the same floats, the sign of a zero included, and -inf past m
        assert np.array_equal(row[:mi + 1], want), (mi, qi)
        assert np.array_equal(np.signbit(row[:mi + 1]), np.signbit(want))
        assert (row[mi + 1:] == -np.inf).all()
    # a scalar q broadcasts over the rows
    assert np.array_equal(log_pmf_array(m[:4], 0.3), log_pmf_array(m[:4], [0.3] * 4))


def test_log_pmf_array_refuses_non_integer_trial_counts():
    for m in (5.0, 5.5, True, np.array([5.0, 6.0]), np.array([True])):
        with pytest.raises(ParameterError, match="must be an integer"):
            log_pmf_array(m, 0.3)
    with pytest.raises(ParameterError, match="must be nonnegative"):
        log_pmf_array(np.array([3, -1]), 0.3)
    with pytest.raises(ParameterError, match=r"q must lie in \[0, 1\]"):
        log_pmf_array(np.array([3, 4]), [0.3, 1.5])


def test_scalar_pmf_is_minus_inf_off_the_support_and_refuses_bad_args():
    for k in (-1, 6):
        assert log_binom_pmf(5, 0.3, k) == -math.inf
    with pytest.raises(ParameterError, match="must be nonnegative"):
        log_binom_pmf(-1, 0.3, 0)
    for q in (-0.1, 1.5, math.nan):
        with pytest.raises(ParameterError, match=r"q must lie in \[0, 1\]"):
            log_binom_pmf(5, q, 2)


def test_log_pmf_array_refuses_bool_elements_among_ints():
    # [3, True] used to become int64 trial counts before the dtype check
    for m in ([3, True], (3, np.bool_(True)), [[3], [False]], [True]):
        with pytest.raises(ParameterError, match="must be an integer"):
            log_pmf_array(m, 0.3)
    rows = log_pmf_array([3, 1], [0.3, 0.6])
    np.testing.assert_array_equal(rows, log_pmf_array(np.array([3, 1]), [0.3, 0.6]))
    np.testing.assert_array_equal(rows[0], log_pmf_array(3, 0.3))


def _pdtrc_cut_points(b, k_start):
    k_hi = k_start
    while pdtrc(k_hi, b) >= 1e-12 and k_hi <= 100 * (b + 10):
        k_hi = int(2 * k_hi + 10)
    k_bulk = int(b) + 1
    while pdtrc(k_bulk, b) > 1e-9:
        k_bulk += 1
    return k_hi, k_bulk


@pytest.mark.parametrize("b", [float(b) for b in np.geomspace(1e-3, 50, 61)])
def test_poisson_cut_points_equal_the_pdtrc_ones(b):
    for k_start in (0, 1, 3, int(b), int(2 * b) + 5, 60, 300):
        assert _poisson_cut_points(b, k_start) == _pdtrc_cut_points(b, k_start)


@pytest.mark.parametrize("b", [1e-3, 0.5, 2.7, 17.0, 50.0])
def test_log_poisson_sf_matches_pdtrc(b):
    for k in range(int(4 * b) + 40):
        want = pdtrc(k, b)
        if want > 1e-300:
            assert math.exp(log_poisson_sf(k, b)) == pytest.approx(
                want, rel=1e-12)


def _scalar_tails():
    """ln sf and ln cdf of Bin(m, q) at each k of a grid (the whole support
    at small m, the mode and +-1, 3 and 6 sd around it at large m), then
    ln P(Poisson(b) > k) for k = -1..4b + 39."""
    out = []
    for m in (0, 1, 2, 5, 17, 100, 1000, 12345, 10 ** 6):
        for q in (0.0, 1e-4, 0.01, 0.3, 0.5, 0.9, 1.0):
            mode = int(m * q)
            sd = math.ceil(math.sqrt(m * q * (1.0 - q)))
            ks = set(range(-1, min(m, 20) + 2)) | {
                mode + i * sd + j for i in (-6, -3, -1, 0, 1, 3, 6)
                for j in (-1, 0, 1)} | {m // 2, m - 1, m, m + 1}
            for k in sorted(ks):
                out += [log_binom_sf(m, q, k), log_binom_cdf(m, q, k)]
    for b in (1e-3, 0.5, 2.7, 17.0, 50.0, 300.0):
        out += [log_poisson_sf(k, b) for k in range(-1, int(4 * b) + 40)]
    return np.array(out)


def test_scalar_tails_are_pinned_bit_for_bit():
    # sha256 taken before the tails shared one anchored-sum loop
    tails = _scalar_tails()
    assert tails.size == 4824
    assert hashlib.sha256(tails.tobytes()).hexdigest() == \
        "b55a5bb59a22afbc74372510118eb1e907769410d44ea569fdf4a93a9f4d4336"
