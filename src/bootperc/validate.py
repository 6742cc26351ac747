"""Named quick-validation suites behind `bootperc validate`.

Each check returns (ok, detail); suites are deliberately cheap cut-down
versions of the full acceptance tests in tests/test_acceptance.py.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ModelParams, activation_prob, critical_quantities
from .montecarlo import wilson_interval
from .oracle import brute_force_pmf, exact_pmf
from .process import RngSpec, final_sizes_activation
from .bounds import penrose_grid_violations
from .ratefun import minimize_rate, rate_J


def _check_core():
    pi, omp = activation_prob(2, 0.5, 2)
    if abs(pi - 0.25) > 1e-12:
        return False, f"pi(2; 0.5, 2) = {pi}, want 0.25"
    crit = critical_quantities(ModelParams(n=10_000, p=1e-3, r=2, a=100))
    if abs(crit.t_c - 100.0) > 1e-9 or abs(crit.a_c - 50.0) > 1e-9:
        return False, f"t_c={crit.t_c}, a_c={crit.a_c}, want 100/50"
    for t in (0, 1, 5, 50, 500, 10_000):
        for p in (1e-4, 1e-2, 0.3):
            for r in (2, 3):
                pi, omp = activation_prob(t, p, r)
                if abs(pi + omp - 1.0) > 1e-12:
                    return False, f"pi+1-pi off at t={t}, p={p}, r={r}"
    return True, "activation law and critical quantities"


def _check_rates():
    for alpha, r in ((1.5, 2), (2.0, 2), (2.0, 3)):
        x0, j0 = minimize_rate(alpha, r)
        xs = np.linspace(1e-4, alpha / r, 20_001)
        h = (alpha * (1 - 1 / r) + xs) ** r / r
        w = xs / h
        j = r / (r - 1) * h * (1 - w + w * np.log(w))
        x_grid = float(xs[np.argmin(j)])
        if abs(x0 - x_grid) > 1e-3:
            return False, f"x0 mismatch at alpha={alpha}, r={r}"
        if rate_J(x0, alpha, r)[1] > j.min() + 1e-9:
            return False, f"J(x0) above grid minimum at alpha={alpha}, r={r}"
    return True, "minimizer agrees with coarse grid search"


def _check_oracle():
    for p in (0.1, 0.4, 0.7):
        params = ModelParams(n=5, p=p, r=2, a=2)
        dp = exact_pmf(params)
        bf = brute_force_pmf(params)
        for k in range(2, 6):
            if abs(dp.prob(k) - bf.prob(k)) > 1e-9:
                return False, f"pmf mismatch at p={p}, k={k}"
        if abs(float(dp.total()) - 1.0) > 1e-9:
            return False, f"pmf does not normalize at p={p}"
    return True, "chain DP matches brute force on n=5"


def _check_bounds():
    checked, bad = penrose_grid_violations(range(5, 61), (0.05, 0.1, 0.3, 0.5, 0.8))
    if bad:
        return False, f"{len(bad)} violations out of {checked}"
    return True, f"0 violations in {checked} inequality checks"


def _check_samplers():
    params = ModelParams(n=5, p=0.3, r=2, a=2)
    bf = brute_force_pmf(params)
    reps = 40_000
    sizes = final_sizes_activation(params, reps, RngSpec(7, 0))
    counts = np.bincount(sizes, minlength=6)
    tv = 0.5 * sum(abs(counts[k] / reps - bf.prob(k)) for k in range(2, 6))
    if tv > 0.02:
        return False, f"TV distance {tv:.4f} > 0.02"
    for k in range(2, 6):
        lo, hi = wilson_interval(int(counts[k]), reps, 5.0)
        if not lo <= bf.prob(k) <= hi:
            return False, (f"P(A* = {k}) = {bf.prob(k):.4f} outside the "
                           f"5-sigma interval [{lo:.4f}, {hi:.4f}]")
    return True, f"activation sampler within TV {tv:.4f} of enumeration"


SUITES = {
    "core": (_check_core,),
    "rates": (_check_rates,),
    "oracle": (_check_oracle,),
    "bounds": (_check_bounds,),
    "samplers": (_check_samplers,),
    "all": (_check_core, _check_rates, _check_oracle, _check_bounds,
            _check_samplers),
}


def run_suite(name: str) -> bool:
    ok_all = True
    for check in SUITES[name]:
        ok, detail = check()
        ok_all &= ok
        label = check.__name__.removeprefix("_check_")
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok_all
