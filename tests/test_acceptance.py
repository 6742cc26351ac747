"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line as it
completes.  Criterion 5 is known-red: the pinned instance sits far from
its limit (see the assertion message for the exact-oracle argument).
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

import bootperc as bp
from bootperc.bounds import (approx_log_tail, approx_lower_tail,
                             approx_small_mean_tail, asymptotic_diagnostics,
                             penrose_grid_violations)
from bootperc.cli import main as cli_main
from bootperc.core import ModelParams, SequenceSpec, critical_quantities
from bootperc.montecarlo import (default_stop_horizon, estimate_tail_splitting,
                                 poisson_distance)
from bootperc.oracle import brute_force_pmf, exact_pmf, exact_stop_cdf
from bootperc.process import (RngSpec, final_sizes_activation,
                              final_sizes_graph, final_sizes_markchain)
from bootperc.ratefun import minimize_rate

SPEC_07 = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_oracle_equivalence():
    worst = 0.0
    checked = 0
    for r in (2, 3):
        for a in (r, r + 1):
            for n in range(max(a, 2), 7):
                for p in (0.1, 0.4, 0.7):
                    params = ModelParams(n=n, p=p, r=r, a=a)
                    dp = exact_pmf(params)
                    bf = brute_force_pmf(params)
                    for k in range(a, n + 1):
                        worst = max(worst, abs(dp.prob(k) - bf.prob(k)))
                    checked += 1
    ok = worst <= 1e-9
    assert report(1, ok, f"chain DP vs enumeration on {checked} configs, "
                         f"worst entry gap {worst:.2e} (<= 1e-9)")


def test_criterion_02_sampler_equivalence():
    params = ModelParams(n=6, p=0.4, r=2, a=2)
    reps = 1_000_000
    bf = brute_force_pmf(params)
    batches = {"graph": final_sizes_graph, "markchain": final_sizes_markchain,
               "activation": final_sizes_activation}
    pmfs = {}
    worst_tv = 0.0
    for i, (name, batch) in enumerate(batches.items()):
        sizes = batch(params, reps, RngSpec(2_000 + i, 0))
        emp = np.bincount(sizes, minlength=7) / reps
        pmfs[name] = emp
        tv = 0.5 * sum(abs(emp[k] - bf.prob(k)) for k in range(2, 7))
        worst_tv = max(worst_tv, tv)
    table = np.array([[pmfs[s][k] * reps for k in range(2, 7)] for s in pmfs])
    expected = np.outer(table.sum(1), table.sum(0)) / table.sum()
    stat = ((table - expected) ** 2 / expected).sum()
    p_value = float(chi2.sf(stat, (3 - 1) * (5 - 1)))
    ok = worst_tv <= 0.01 and p_value > 1e-3
    assert report(2, ok, f"worst sampler TV {worst_tv:.4f} (<= 0.01), "
                         f"3-way chi-square p = {p_value:.3g} (> 1e-3)")


def test_criterion_03_penrose_inequality_suite():
    p_grid = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9)
    checked, bad = penrose_grid_violations(range(5, 201), p_grid)
    ok = not bad
    assert report(3, ok, f"{len(bad)} violations in {checked} "
                         "inequality checks (slack floor -1e-12)")


def test_criterion_04_poisson_regime():
    n = 5000
    p = (math.log(n) + math.log(math.log(n)) - math.log(2)) / n
    a = math.ceil(2 * critical_quantities(ModelParams(n=n, p=p, r=2, a=1)).a_c)
    params = ModelParams(n=n, p=p, r=2, a=a)
    tv, mean_gap = poisson_distance(params, 100_000, RngSpec(2024, 0))
    ok = tv <= 0.1 and mean_gap <= 0.1
    assert report(4, ok, f"TV to Poisson(b_c) {tv:.4f} (<= 0.1), "
                         f"bulk mean gap {mean_gap:.4f} (<= 0.1)")


def test_criterion_05_lln_in_probability():
    n = 100_000
    p = math.log(n) / (2 * n)
    crit = critical_quantities(ModelParams(n=n, p=p, r=2, a=1))
    a = math.ceil(2 * crit.a_c)
    sizes = final_sizes_activation(ModelParams(n=n, p=p, r=2, a=a),
                                   1000, RngSpec(31, 0))
    median = float(np.median((n - sizes) / crit.b_c))
    ok = 0.85 <= median <= 1.15
    report(5, ok, f"median (n - A*)/b_c = {median:.4f} (window [0.85, 1.15])")
    assert ok, (
        f"median (n - A*)/b_c = {median:.4f} lies outside [0.85, 1.15]. "
        "This is a property of the pinned instance, not of the samplers: "
        "at the pinned n = 1e5 itself, closed-form bounds on P(T <= tau) "
        "bracket the median ratio in [1.2750, 1.2800] (x grid of step "
        "0.0025), and the samplers match the exact law wherever the DP "
        "reaches.  At n = 1e5, n p is only 5.76, so the count of "
        "inactive-for-degree-reasons nodes exceeds its n->inf surrogate "
        "b_c = n (np) e^{-np} by the (1 + 1/np) e^{gp} head factor "
        "~ 1.27; the window would first be reachable around n ~ 1e7-1e8.")


def test_criterion_06_early_stop_exponent():
    alpha, r = 2.0, 2
    x0, j0 = minimize_rate(alpha, r)
    k_const = default_stop_horizon(alpha, r)
    gaps = []
    normalized = []
    for n in (10**3, 10**4, 10**5, 10**6):
        params = SPEC_07.params_at(n)
        crit = SPEC_07.crit_at(n)
        prob = exact_stop_cdf(params, math.floor(k_const * crit.a_c))
        norm = prob.ln() / crit.a_c
        normalized.append(norm)
        gaps.append(abs(norm - (-j0)))
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    factor = normalized[-1] / (-j0)
    ok = monotone and 0.5 <= factor <= 1.5
    assert report(6, ok, f"(1/a_c) log P -> {normalized[-1]:.4f} vs -J(x0) = "
                         f"{-j0:.4f}; gaps {['%.3f' % g for g in gaps]} "
                         f"monotone={monotone}, factor {factor:.3f} in [0.5, 1.5]")


def test_criterion_07_rate_minimizer_vs_grid():
    worst_x = 0.0
    worst_j = 0.0
    for alpha in (1.1, 1.5, 2.0, 5.0):
        for r in (2, 3, 5):
            xs = np.arange(0.0, alpha / r + 1e-6, 1e-6)
            h = (alpha * (1 - 1 / r) + xs) ** r / r
            w = xs / h
            js = np.where(w > 0, 1 - w + w * np.log(np.maximum(w, 1e-300)), 1.0)
            js = r / (r - 1) * h * js
            i = int(np.argmin(js))
            x0, j0 = minimize_rate(alpha, r, tol=1e-6)
            worst_x = max(worst_x, abs(x0 - float(xs[i])))
            worst_j = max(worst_j, abs(j0 - float(js[i])) / float(js[i]))
    ok = worst_x <= 1e-4 and worst_j <= 1e-8
    assert report(7, ok, f"12 (alpha, r) grids: worst |x0 - grid| = "
                         f"{worst_x:.2e} (<= 1e-4), worst rel J gap = "
                         f"{worst_j:.2e} (<= 1e-8)")


def test_criterion_08_appendix_asymptotics_trends():
    ladders = {}
    ladders["small_mean_tail"] = [
        abs(approx_small_mean_tail(m, q, 2).ratio - 1.0)
        for m, q in [(10**4, 5e-6), (10**5, 2e-7), (10**6, 1e-8),
                     (10**7, 5e-10)]]
    ladders["log_tail"] = [
        abs(approx_log_tail(10 ** (9 + j), 100.0 / 10 ** (9 + j),
                            int(round(100 * math.exp(10 + 2 * j)))).ratio - 1.0)
        for j in range(4)]
    ladders["lower_tail"] = [
        abs(approx_lower_tail(m, 1e-3, 2).ratio - 1.0)
        for m in (10**4, 3 * 10**4, 10**5, 3 * 10**5)]
    for name, rel in (("speed", "speed"), ("one_minus_pi", "one_minus_pi")):
        ladders[name] = [
            abs(row.ratio - 1.0) for row in asymptotic_diagnostics(
                SPEC_07, rel, [10**4, 10**5, 10**6, 10**7])]
    ladders["log_bc"] = [
        abs(row.ratio - 1.0) for row in asymptotic_diagnostics(
            SPEC_07, "log_bc", [10**6, 10**8, 10**10, 10**12])]

    problems = []
    for name, gaps in ladders.items():
        monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))
        if not (monotone and gaps[-1] <= 0.1):
            problems.append((name, gaps))
    ok = not problems
    assert report(8, ok, "6 relations, |ratio-1| non-increasing over 4-rung "
                         f"ladders, final <= 0.1; offenders: {problems or 'none'}")


def test_criterion_09_splitting_calibration():
    n = 500
    p = n ** -0.7
    a_c = critical_quantities(ModelParams(n=n, p=p, r=2, a=1)).a_c
    params = ModelParams(n=n, p=p, r=2, a=math.ceil(2 * a_c))
    tau = math.floor(3 * a_c)
    exact = float(exact_stop_cdf(params, tau))
    covered = 0
    for trial in range(100):
        est = estimate_tail_splitting(params, tau, 4, 2000, RngSpec(1234, trial))
        covered += est.ci_low <= exact <= est.ci_high
    ok = covered >= 90
    assert report(9, ok, f"splitting 95% CI covered the DP value "
                         f"{exact:.5f} in {covered}/100 meta-trials (>= 90)")


def test_criterion_10_cli_determinism(tmp_path):
    runs = [
        ["simulate", "--sampler", "activation", "--n", "6", "--p", "0.4",
         "--r", "2", "--a", "2", "--replicates", "20000", "--seed", "5"],
        ["exact", "--n", "40", "--p", "0.1", "--r", "2", "--a", "3"],
        ["tail", "estimate", "--n", "500", "--p", str(500 ** -0.7), "--r", "2",
         "--a", "13", "--splitting", "--tau", "18", "--levels", "4",
         "--replicates", "2000", "--seed", "77"],
        ["critical", "--n", "10000", "--p", "0.001", "--r", "2"],
    ]
    identical = True
    for i, args in enumerate(runs):
        out = tmp_path / f"run{i}.txt"
        assert cli_main(args + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert cli_main(args + ["--out", str(out)]) == 0
        identical &= first == out.read_bytes()
    assert report(10, identical,
                  f"{len(runs)} commands rerun with identical flags; "
                  f"byte-identical outputs: {identical}")
