import math
import tracemalloc

import numpy as np
import pytest

from bootperc import montecarlo
from bootperc.core import ModelParams, SequenceSpec, critical_quantities
from bootperc.errors import DegenerateLevels, MemoryGuardError, ParameterError
from bootperc.montecarlo import (TailEstimate, default_stop_horizon,
                                 estimate_tail, estimate_tail_splitting,
                                 event_threshold, poisson_distance,
                                 rate_convergence_study, wilson_interval)
from bootperc.oracle import exact_stop_cdf, exact_tail_query
from bootperc.process import ELEMENT_CAP, RngSpec, _leap_to_level
from bootperc.ratefun import ScalingFamily, minimize_rate

P6 = ModelParams(n=6, p=0.4, r=2, a=2)
CONST_1, CONST_2 = ScalingFamily("const", 1.0), ScalingFamily("const", 2.0)
ACNP_N = ScalingFamily("between_acnp_n")


def crit9_config():
    n = 500
    p = n ** -0.7
    a_c = critical_quantities(ModelParams(n=n, p=p, r=2, a=1)).a_c
    params = ModelParams(n=n, p=p, r=2, a=math.ceil(2 * a_c))
    return params, math.floor(3 * a_c)


def criterion4_params(n, alpha, c=2.0):
    """Criterion 4's p-rule, p = (log n + log log n - log c)/n, r = 2 and
    a = ceil(alpha a_c): early stops grow more likely as alpha nears 1."""
    p = (math.log(n) + math.log(math.log(n)) - math.log(c)) / n
    a_c = critical_quantities(ModelParams(n=n, p=p, r=2, a=1)).a_c
    return ModelParams(n=n, p=p, r=2, a=math.ceil(alpha * a_c))


# ---------------------------------------------------------------------------
# Wilson interval

def test_wilson_basic_shape():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1.0
    with pytest.raises(ParameterError):
        wilson_interval(5, 0)
    with pytest.raises(ParameterError):
        wilson_interval(11, 10)


# ---------------------------------------------------------------------------
# naive tail estimation

def test_estimate_tail_sure_event():
    # p = 0 stops at a; with eps f(n) < n - a the event is certain
    est = estimate_tail(ModelParams(n=10, p=0.0, r=2, a=2), CONST_1,
                        1.5, 2000, RngSpec(1, 0))
    assert est.p_hat == 1.0 and est.log_p_hat == 0.0


def test_estimate_tail_empty_event():
    est = estimate_tail(P6, CONST_1, 9.0, 2000, RngSpec(1, 0))
    assert est.p_hat == 0.0 and est.log_p_hat == -math.inf


@pytest.mark.parametrize("params, eps", [
    (P6, 9.0),  # threshold below a: the empty event
    (ModelParams(n=10, p=0.0, r=2, a=2), 1.5),  # a sure A*
], ids=["empty", "sure"])
def test_estimate_tail_refuses_a_bad_rng_where_it_draws_nothing(params, eps):
    with pytest.raises(ParameterError, match="rng"):
        estimate_tail(params, CONST_1, eps, 2000, "nonsense")


def test_estimate_tail_ci_contains_exact_value():
    exact = float(exact_tail_query(P6, CONST_1, 1.5))
    est = estimate_tail(P6, CONST_1, 1.5, 200_000, RngSpec(5, 0))
    assert est.ci_low <= exact <= est.ci_high
    assert est.ci_low <= est.p_hat <= est.ci_high


def test_estimate_tail_deterministic():
    a = estimate_tail(P6, CONST_1, 1.5, 5000, RngSpec(3, 9))
    b = estimate_tail(P6, CONST_1, 1.5, 5000, RngSpec(3, 9))
    assert a == b


def test_estimate_tail_threshold_convention():
    # floor(n - eps f) is included in the event, matching the oracle
    assert event_threshold(P6, CONST_1, 1.5) == 4
    assert event_threshold(P6, CONST_2, 0.75) == 4


def test_wilson_ci_calibration_against_exact():
    exact = float(exact_tail_query(P6, CONST_1, 1.5))
    hits = 0
    for trial in range(100):
        est = estimate_tail(P6, CONST_1, 1.5, 5000, RngSpec(808, trial))
        hits += est.ci_low <= exact <= est.ci_high
    assert hits >= 90


# ---------------------------------------------------------------------------
# multilevel splitting

def test_splitting_reduces_to_direct_estimate_for_sure_event():
    params = ModelParams(n=40, p=0.05, r=2, a=3)
    est = estimate_tail_splitting(params, 40, 1, 512, RngSpec(2, 0))
    assert est.p_hat == 1.0


def test_splitting_tau_below_seeds_is_zero():
    params = ModelParams(n=40, p=0.05, r=2, a=5)
    est = estimate_tail_splitting(params, 4, 3, 512, RngSpec(2, 0))
    assert est.p_hat == 0.0


def test_splitting_matches_dp_value():
    params, tau = crit9_config()
    exact = float(exact_stop_cdf(params, tau))
    covered = 0
    ests = []
    for trial in range(30):
        est = estimate_tail_splitting(params, tau, 4, 2000, RngSpec(12, trial))
        ests.append(est.p_hat)
        covered += est.ci_low <= exact <= est.ci_high
    assert covered >= 25
    assert np.mean(ests) == pytest.approx(exact, rel=0.1)


def test_splitting_is_unbiased_at_the_criterion9_instance():
    # fixed-effort splitting is unbiased for P, so the mean over many seeds
    # lands within a few standard errors of the DP value whatever any one
    # seed's interval covers
    params, tau = crit9_config()
    exact = float(exact_stop_cdf(params, tau))
    ests = [estimate_tail_splitting(params, tau, 4, 200, RngSpec(seed, 0)).p_hat
            for seed in range(400)]
    z = (np.mean(ests) - exact) / (np.std(ests, ddof=1) / math.sqrt(len(ests)))
    assert abs(z) < 5


def test_splitting_runs_its_groups_as_one_batch_of_chains(monkeypatch):
    # one leap call per level carries all four groups; from 2 ** 17
    # replicates per level each group runs alone, so the peak stays put
    params, tau = crit9_config()
    calls = []

    def counted(*args):
        calls.append(args[1].size)
        return _leap_to_level(*args)

    monkeypatch.setattr(montecarlo, "_leap_to_level", counted)
    estimate_tail_splitting(params, tau, 4, 2000, RngSpec(5, 0))
    assert calls == [2000] * 4
    calls.clear()
    tracemalloc.start()
    try:
        estimate_tail_splitting(params, tau, 4, 2 ** 17, RngSpec(5, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [2 ** 15] * 16
    assert peak < 5_000_000


def test_splitting_reports_the_chains_it_runs(monkeypatch):
    # 2003 replicates per level run as four groups of 500 chains, and the
    # estimate reports the 2000 it ran; plain Monte Carlo runs all 2003
    params, tau = crit9_config()
    calls = []

    def counted(*args):
        calls.append(args[1].size)
        return _leap_to_level(*args)

    monkeypatch.setattr(montecarlo, "_leap_to_level", counted)
    est = estimate_tail_splitting(params, tau, 4, 2003, RngSpec(5, 0))
    assert calls == [2000] * 4 and est.replicates == 2000
    assert estimate_tail_splitting(params, tau, 1, 2003,
                                   RngSpec(5, 0)).replicates == 2003


def test_splitting_and_naive_cis_overlap():
    params, tau = crit9_config()
    n, a = params.n, params.a
    split = estimate_tail_splitting(params, tau, 4, 4000, RngSpec(77, 0))
    # the same event {T <= tau} through the naive path
    eps = (n - tau) / 1.0
    naive = estimate_tail(params, CONST_1, eps, 20_000, RngSpec(77, 1))
    assert event_threshold(params, CONST_1, eps) == tau
    assert naive.p_hat >= 10 / naive.replicates
    assert naive.ci_low <= split.ci_high and split.ci_low <= naive.ci_high


def test_splitting_degenerate_level_raises():
    # p close to 1 inflates the margin immediately; the ladder is
    # [7, 4, 2, 0] and level 7 is never reached
    params = ModelParams(n=50, p=0.9, r=2, a=10)
    with pytest.raises(DegenerateLevels):
        estimate_tail_splitting(params, 40, 4, 16, RngSpec(4, 0))


def test_splitting_explicit_ladder_validation():
    # an explicit ladder, like any count but an integer >= 1, is refused
    params = ModelParams(n=50, p=0.1, r=2, a=10)
    for levels in ([2, 0], 2.0, True, 0):
        with pytest.raises(ParameterError):
            estimate_tail_splitting(params, 40, levels, 64, RngSpec(0, 0))
    with pytest.raises(ParameterError):
        estimate_tail_splitting(params, 40, 2, 4, RngSpec(0, 0))
    with pytest.raises(ParameterError, match="tau must not exceed n"):
        estimate_tail_splitting(params, 51, 2, 64, RngSpec(0, 0))
    # one level is plain Monte Carlo, which takes fewer than 8 replicates
    est = estimate_tail_splitting(params, 40, np.int64(1), 5, RngSpec(0, 0))
    assert est.replicates == 5


def test_splitting_deterministic():
    params, tau = crit9_config()
    a = estimate_tail_splitting(params, tau, 3, 800, RngSpec(6, 1))
    b = estimate_tail_splitting(params, tau, 3, 800, RngSpec(6, 1))
    assert a == b


@pytest.mark.parametrize("levels", [1])
def test_splitting_plain_monte_carlo_builds_no_log_q_table(levels):
    # a log Q table over 0..tau would take about 62 MB here
    params, tau = SPEC_07.params_at(2 * 10 ** 6), 10 ** 6
    tracemalloc.start()
    try:
        est = estimate_tail_splitting(params, tau, levels, 16, RngSpec(3, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.replicates == 16
    assert peak < 1_000_000


def test_splitting_fills_its_log_q_table_in_chunks():
    # the table over 0..1e6 holds 8 MB; evaluated in one call it peaked at
    # 65.7 MB.  The estimate was retaken when the groups became one batch
    params = criterion4_params(2 * 10 ** 6, 1.05)
    tracemalloc.start()
    try:
        est = estimate_tail_splitting(params, 10 ** 6, 4, 200, RngSpec(3, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est == TailEstimate(0.5587679999999999, 0.4717004841879984,
                               0.6565035693398024, 200, -0.5820209188081423)
    assert peak < 30_000_000


@pytest.mark.parametrize("levels", [4])
def test_splitting_refuses_a_log_q_table_above_the_cap(levels):
    # ELEMENT_CAP + 1 entries and more, refused before allocation
    params = SPEC_07.params_at(2 * 10 ** 7)
    tracemalloc.start()
    try:
        for tau in (ELEMENT_CAP, params.n - 1):
            with pytest.raises(MemoryGuardError):
                estimate_tail_splitting(params, tau, levels, 16, RngSpec(3, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


SPEC_07 = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)

# to_dict() values retaken when the four groups became one batch of chains,
# which moved the realised draws, not the law.  A change that keeps the
# draws must reproduce them bit for bit
PINNED_SPLITTING = [
    ("crit9", 4, RngSpec(1234, 0),
     (0.06001376126800001, 0.046028976903380744, 0.0767523249269859,
      -2.8131813885910844)),
    ("crit9", 4, RngSpec(1234, 1),
     (0.06032595634400002, 0.05171480219850695, 0.06990140666241974,
      -2.807992814401509)),
    ("crit9", 4, RngSpec(1234, 2),
     (0.05520605916, 0.04248809322836209, 0.07045233528100973,
      -2.896682564331782)),
    ("spec07_full_event", 4, RngSpec(1234, 0),
     (0.000444920912, 0.000265026746600063, 0.0006945344984070017,
      -7.71761401743584)),
]


@pytest.mark.parametrize("case,levels,rng,pinned", PINNED_SPLITTING,
                         ids=[f"{c[0]}-{c[1]}-{c[2].stream}"
                              for c in PINNED_SPLITTING])
def test_splitting_values_are_pinned(case, levels, rng, pinned):
    if case == "crit9":
        params, tau = crit9_config()
    else:  # n = 1e4, tau = 9000: the full-event range
        params, tau = SPEC_07.params_at(10**4), 9000
    got = estimate_tail_splitting(params, tau, levels, 2000, rng).to_dict()
    p_hat, ci_low, ci_high, log_p_hat = pinned
    assert got == {"p_hat": p_hat, "ci_low": ci_low, "ci_high": ci_high,
                   "replicates": 2000, "log_p_hat": log_p_hat,
                   "log_base": "e"}


# ---------------------------------------------------------------------------
# convergence studies

def test_study_early_stop_rows_normalize_toward_rate():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
    rows = rate_convergence_study(spec, ACNP_N, 0.5,
                                  [10**3, 10**4, 10**5], method="exact_dp")
    j0 = minimize_rate(2.0, 2)[1]
    gaps = [abs(row.normalized - row.target) for row in rows]
    assert all(row.target == pytest.approx(-j0) for row in rows)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(row.normalized < 0 for row in rows)


def test_study_single_rung_no_trend_claim():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
    rows = rate_convergence_study(spec, ACNP_N, 0.5, [2000],
                                  method="exact_dp")
    assert len(rows) == 1
    assert rows[0].v_n > 0


def test_study_naive_agrees_with_dp_at_small_n():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
    dp_row, = rate_convergence_study(spec, ACNP_N, 0.5, [1000],
                                     method="exact_dp")
    mc_row, = rate_convergence_study(spec, ACNP_N, 0.5, [1000],
                                     method="splitting", levels=1,
                                     replicates=40_000, rng=RngSpec(9, 0))
    assert mc_row.p_hat == pytest.approx(dp_row.p_hat, rel=0.15)


def test_study_splitting_method_runs():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
    row, = rate_convergence_study(spec, ACNP_N, 0.5, [2000],
                                  method="splitting", replicates=2000,
                                  rng=RngSpec(13, 0))
    dp_row, = rate_convergence_study(spec, ACNP_N, 0.5, [2000],
                                     method="exact_dp")
    assert row.log_p == pytest.approx(dp_row.log_p, rel=0.2)


def test_study_refuses_an_unknown_method():
    spec = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
    with pytest.raises(ParameterError, match="exact_dp or splitting"):
        rate_convergence_study(spec, ACNP_N, 0.5, [1000], method="naive")


def test_study_forwards_the_dp_cap():
    # the full event {T <= n - 1} needs n - a - 1 chain states; at n = 600
    # SPEC_07's const cell has speed -log b_c < 0, so the small ladder uses
    # the table4/col1 const cell, whose speed is positive there
    with pytest.raises(MemoryGuardError):
        rate_convergence_study(SPEC_07, CONST_2, 0.5, [10**4])
    spec = SequenceSpec(rule="power", constants={"c": 1.0, "beta": 2 / 3},
                        r=2, alpha=2.0)
    with pytest.raises(MemoryGuardError):
        rate_convergence_study(spec, CONST_1, 0.5, [600], cap=100)
    assert rate_convergence_study(spec, CONST_1, 0.5, [600], cap=600) \
        == rate_convergence_study(spec, CONST_1, 0.5, [600])


def test_default_stop_horizon_formula():
    x0, _ = minimize_rate(2.0, 2)
    assert default_stop_horizon(2.0, 2) == pytest.approx(
        max(2.0 + 2.0 * x0, 2.0) + 1.0)


# ---------------------------------------------------------------------------
# Poisson-limit distance

def test_poisson_distance_degenerate_point_mass():
    # p = 1 with a >= r forces n - A* = 0, so tv is the distance from a
    # point mass to Poisson(b_c); sanity check of the metric itself
    params = ModelParams(n=10, p=1.0, r=2, a=2)
    b = critical_quantities(params).b_c
    tv, gap = poisson_distance(params, 2000, RngSpec(0, 0))
    assert tv == pytest.approx(1.0 - math.exp(-b), abs=1e-9)
    assert gap == pytest.approx(1.0)


def test_poisson_distance_tv_shrinks_with_replicates():
    params = criterion4_params(1000, 2)
    tv_small, _ = poisson_distance(params, 1000, RngSpec(55, 0))
    tv_large, _ = poisson_distance(params, 100_000, RngSpec(55, 1))
    assert tv_large <= tv_small


# (tv, mean_gap) taken while the TV table still ran up to the largest gap.
# The first two samples hold no gap above the cut, so tv must match bit
# for bit; the third holds early stops, whose gaps now share one overflow
# bin, which moves tv by at most the Poisson mass beyond the table
@pytest.mark.parametrize("n,c,alpha,reps,rng,tol,pinned", [
    (1000, 2.0, 4, 2000, RngSpec(5, 0), 0.0,
     (0.04581101166587458, 0.08123745522621217)),
    (300, 1.0, 8, 3000, RngSpec(11, 2), 0.0,
     (0.016025448897642826, 0.0060719174219276105)),
    (1000, 2.0, 2, 1000, RngSpec(55, 0), 2e-12,
     (0.10268203290131254, 0.09933265125438528)),
])
def test_poisson_distance_is_pinned(n, c, alpha, reps, rng, tol, pinned):
    tv, mean_gap = poisson_distance(criterion4_params(n, alpha, c), reps, rng)
    assert abs(tv - pinned[0]) <= tol
    assert mean_gap == pinned[1]


def test_poisson_distance_memory_is_set_by_b_c():
    # early stops put gaps of order n in this sample; tables sized by the
    # largest gap peaked at 80.8 MB here
    params = criterion4_params(10 ** 6, 1.02)
    tracemalloc.start()
    try:
        poisson_distance(params, 2000, RngSpec(0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
