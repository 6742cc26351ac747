"""The three benchmark workloads and the reference check of each operation.

A workload is a list of operations.  Each operation calls the library
through module attributes (`oracle.exact_pmf(...)`, never a name bound
here), so the traced run's wrappers see every call, times the calls it
reports under `<module>.<function>[.<case>]`, and checks the result
against the exact law, a theorem of the paper or a sampling-noise bound.
A failed check raises `CheckFailed`.

All randomness comes from the workload seed: the same seed gives the
same inputs and, the library being deterministic, the same outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from collections import defaultdict

import numpy as np

from bootperc import bounds, core, montecarlo, oracle, process, ratefun
from bootperc.core import ModelParams, SequenceSpec
from bootperc.errors import DegenerateLevels
from bootperc.process import RngSpec

#: criterion-6 spec: p_n = n^-0.7, r = 2, a_n = ceil(2 a_c)
SPEC_07 = SequenceSpec(rule="power", constants={"beta": 0.7}, r=2, alpha=2.0)
#: criterion-3 p grid of the Penrose inequality sweep
PENROSE_P = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9)
#: rate-study rows whose probed event is the early stop {T <= K a_c}
EARLY_STOP_TAGS = ("table1/col4", "table2/col3", "table3/col4",
                   "table4/col2", "table5/col1")
#: z of the Wilson intervals that stand for sampling noise; a correct
#: sampler fails a 5-sigma check about once in 1.7 million
NOISE_Z = 5.0


class CheckFailed(Exception):
    """An operation's output disagreed with its reference."""


class Record:
    """Timers, timing samples and counts of one pass."""

    def __init__(self):
        self.timers = defaultdict(float)
        self.samples = defaultdict(list)
        self.values = {}

    def note(self, name: str, value, unit: str = "count") -> None:
        """Record a count or a measured quantity, keeping the largest
        value when one name is noted more than once in a pass."""
        if name in self.values:
            value = max(value, self.values[name][0])
        self.values[name] = (value, unit)

    def timed(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.timers[name] += elapsed
        self.samples[name].append(elapsed)
        return out


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def seeded_instance(n: int, p: float, r: int = 2, alpha: float = 2.0):
    """(ModelParams with a = ceil(alpha a_c), a_c) for one (n, p, r)."""
    a_c = core.critical_quantities(ModelParams(n=n, p=p, r=r, a=1)).a_c
    return ModelParams(n=n, p=p, r=r, a=math.ceil(alpha * a_c)), a_c


def poisson_rule_p(n: int) -> float:
    """Criterion-4 rule p = (log n + log log n - log 2)/n, where n - A*
    tends to Poisson(b_c)."""
    return (math.log(n) + math.log(math.log(n)) - math.log(2)) / n


def pmf_total_defect(pmf) -> float:
    return abs(float(pmf.total()) - 1.0)


def tv_to_law(counts, probs: dict) -> tuple:
    """(TV distance, its 5-sigma noise bound) between empirical counts
    indexed by final size and an exact law {k: P(A* = k)}.

    The bound is half the summed Wilson half-widths at NOISE_Z, the
    largest TV that sampling noise alone plausibly produces.
    """
    total = int(sum(counts.values()))
    tv = 0.0
    bound = 0.0
    for k in sorted(set(probs) | set(counts)):
        hits = int(counts.get(k, 0))
        tv += abs(hits / total - probs.get(k, 0.0))
        lo, hi = montecarlo.wilson_interval(hits, total, NOISE_Z)
        bound += (hi - lo) / 2.0
    return tv / 2.0, bound / 2.0


def check_poisson_bulk(sizes, params: ModelParams, b_c: float, what: str):
    """A* in [a, n], and the mean of n - A* over the bulk within 15% of
    b_c plus 5 sigma of Poisson(b_c) sampling noise.  The bulk drops the
    rare early-stop branch, whose gaps are of order n."""
    n = params.n
    check(bool(((sizes >= params.a) & (sizes <= n)).all()),
          f"{what}: final size outside [a, n]")
    gaps = n - sizes
    bulk = gaps[gaps <= n // 2]
    check(bulk.size > 0, f"{what}: every replicate stopped early")
    allowance = 0.15 * b_c + NOISE_Z * math.sqrt(b_c / bulk.size)
    check(abs(float(bulk.mean()) - b_c) <= allowance,
          f"{what}: bulk mean gap {float(bulk.mean()):.4f} vs b_c {b_c:.4f}")


def parse_csv(text: str) -> list:
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(rows))))[1:]


# ---------------------------------------------------------------------------

class Workload:
    """Operations, CLI call and headline metrics of one workload."""

    name = ""
    #: headline metric name -> unit, computed per pass by `headline`
    HEADLINE: dict = {}

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self) -> list:
        """[(operation name, fn(record))] in pass order."""
        raise NotImplementedError

    def cli_args(self) -> list:
        raise NotImplementedError

    def check_cli(self, stdout: str) -> None:
        raise NotImplementedError

    def headline(self, rec: Record) -> dict:
        raise NotImplementedError


class ExactLaw(Workload):
    """The chain DP: full pmf, truncated stop cdf, brute force, and the
    binomial-tail grid of criterion 3."""

    name = "exact_law"
    HEADLINE = {"pmf_s": "s", "stop_cdf_s": "s"}

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        r6 = int(rng.integers(2, 4))
        self.p6 = ModelParams(n=6, p=float(rng.uniform(0.1, 0.7)), r=r6,
                              a=r6 + int(rng.integers(0, 2)))
        self.pmf_sizes = (30, 50) if smoke else (200, 500)
        self.c6_ladder = (10**3, 10**4, 10**5) if smoke \
            else (10**3, 10**4, 10**5, 10**6)
        self.penrose_n = range(5, 41) if smoke else range(5, 201)
        self.tau_frac = float(rng.uniform(2.5, 4.0))
        self.cli_pmf = None

    def ops(self):
        return [("referee_n6", self.referee_n6),
                *[(f"pmf_n{n}", self._pmf_op(n)) for n in self.pmf_sizes],
                ("stop_cdf_c6", self.stop_cdf_c6),
                ("penrose_grid", self.penrose_grid)]

    def referee_n6(self, rec):
        dp = rec.timed("oracle.exact_pmf.n6_s", oracle.exact_pmf, self.p6)
        bf = rec.timed("oracle.brute_force_pmf.n6_s", oracle.brute_force_pmf,
                       self.p6)
        gap = max(abs(dp.prob(k) - bf.prob(k))
                  for k in range(self.p6.a, self.p6.n + 1))
        check(gap <= 1e-9, f"DP vs brute force at {self.p6}: gap {gap:.3e}")
        check(pmf_total_defect(dp) <= 1e-9, "n = 6 pmf does not sum to 1")

    def _pmf_op(self, n: int):
        def op(rec):
            params, a_c = seeded_instance(n, n ** -0.7)
            pmf = rec.timed(f"oracle.exact_pmf.n{n}_s", oracle.exact_pmf, params)
            defect = pmf_total_defect(pmf)
            check(defect <= 1e-9, f"n = {n}: |sum pmf - 1| = {defect:.3e}")
            rec.note("oracle.norm_defect", defect, "prob")
            rec.note("oracle.truncation_bound", pmf.truncation_bound, "prob")
            if n == self.pmf_sizes[0]:
                self.cli_pmf = pmf
            if n == self.pmf_sizes[-1]:
                tau = math.floor(self.tau_frac * a_c)
                stop = rec.timed(f"oracle.exact_stop_cdf.n{n}_s",
                                 oracle.exact_stop_cdf, params, tau)
                ref = float(pmf.cdf_at(tau))
                check(abs(float(stop) - ref) <= 1e-9 * ref,
                      f"n = {n}: stop cdf {float(stop)!r} vs pmf cdf {ref!r} "
                      f"at tau = {tau}")
        return op

    def stop_cdf_c6(self, rec):
        """Criterion 6: (1/a_c) ln P(T <= K a_c) moves monotonically toward
        -J(x0) along the ladder and ends within a factor 1.5 of it."""
        k_const = montecarlo.default_stop_horizon(SPEC_07.alpha, SPEC_07.r)
        _, j0 = ratefun.minimize_rate(SPEC_07.alpha, SPEC_07.r)
        normalized = []
        for n in self.c6_ladder:
            crit = SPEC_07.crit_at(n)
            prob = rec.timed(f"oracle.exact_stop_cdf.n1e{round(math.log10(n))}_s",
                             oracle.exact_stop_cdf, SPEC_07.params_at(n),
                             math.floor(k_const * crit.a_c))
            check(0.0 < float(prob) < 1.0, f"n = {n}: P(T <= tau) = {prob}")
            normalized.append(prob.ln() / crit.a_c)
        gaps = [abs(v + j0) for v in normalized]
        check(all(b < a for a, b in zip(gaps, gaps[1:])),
              f"criterion-6 gaps not decreasing: {gaps}")
        check(0.5 <= normalized[-1] / -j0 <= 1.5,
              f"criterion-6 factor {normalized[-1] / -j0:.3f}")

    def penrose_grid(self, rec):
        checked, bad = rec.timed("bounds.penrose_grid_s",
                                 bounds.penrose_grid_violations,
                                 self.penrose_n, PENROSE_P)
        rec.note("bounds.checks", checked)
        check(checked > 0 and not bad, f"{len(bad)} Penrose violations")

    def cli_args(self):
        params, _ = seeded_instance(self.pmf_sizes[0], self.pmf_sizes[0] ** -0.7)
        return ["exact", "--n", str(params.n), "--p", repr(params.p),
                "--r", str(params.r), "--a", str(params.a)]

    def check_cli(self, stdout):
        rows = parse_csv(stdout)
        check(len(rows) == len(self.cli_pmf.probs), "CLI pmf has wrong support")
        for k, prob, _ in rows:
            ref = self.cli_pmf.prob(int(k))
            check(abs(float(prob) - ref) <= 1e-12 * max(ref, 1e-300),
                  f"CLI pmf at k = {k}: {prob} vs {ref!r}")

    def headline(self, rec):
        def total(prefix):
            return sum(v for k, v in rec.timers.items() if k.startswith(prefix))
        return {"pmf_s": total("oracle.exact_pmf."),
                "stop_cdf_s": total("oracle.exact_stop_cdf.")}


class SamplerBatch(Workload):
    """The three samplers at n = 6 (per-replicate overhead) and at
    n = 5000 and 20000 (per-node cost), plus the low-degree counter."""

    name = "sampler_batch"
    HEADLINE = {"small_n_reps_per_s": "1/s", "large_n_reps_per_s": "1/s"}
    SAMPLERS = ("activation", "markchain", "graph")

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        self.p6 = ModelParams(n=6, p=0.4, r=2, a=2)  # criterion-2 instance
        self.reps6 = 20_000 if smoke else 1_000_000
        # (sampler, n, replicates); n = 5000 is the criterion-4 instance,
        # the graph sampler switches to its edge-list engine above 10^4
        self.large = [("activation", 5000, 10_000), ("markchain", 5000, 2_000),
                      ("graph", 5000, 20), ("graph", 20_000, 20)]
        if smoke:
            self.large = [(s, n // 10, max(reps // 100, 5))
                          for s, n, reps in self.large]
        self.low_degree = (self.large[0][1], 40 if smoke else 500)
        self.cli_reps = 10_000 if smoke else 100_000
        self.ref6 = None

    def ops(self):
        return [("referee_pmf_n6", self.referee_pmf_n6),
                *[(f"n6_{s}", self._n6_op(i, s))
                  for i, s in enumerate(self.SAMPLERS)],
                *[(f"n{n}_{s}", self._large_op(i, s, n, reps))
                  for i, (s, n, reps) in enumerate(self.large)],
                ("low_degree_counts", self.low_degree_counts)]

    def referee_pmf_n6(self, rec):
        pmf = rec.timed("oracle.exact_pmf.n6_s", oracle.exact_pmf, self.p6)
        check(pmf_total_defect(pmf) <= 1e-9, "n = 6 pmf does not sum to 1")
        self.ref6 = {k: pmf.prob(k) for k in pmf.support()}

    def _n6_op(self, index: int, sampler: str):
        def op(rec):
            batch = getattr(process, f"final_sizes_{sampler}")
            sizes = rec.timed(f"process.{sampler}.n6_s", batch, self.p6,
                              self.reps6, RngSpec(self.seed, index))
            counts = dict(enumerate(np.bincount(sizes, minlength=7).tolist()))
            tv, bound = tv_to_law(counts, self.ref6)
            rec.note(f"process.{sampler}.tv_n6", tv, "prob")
            check(tv <= bound, f"{sampler} n = 6: TV {tv:.5f} > noise {bound:.5f}")
        return op

    def _large_op(self, index: int, sampler: str, n: int, reps: int):
        def op(rec):
            params, _ = seeded_instance(n, poisson_rule_p(n))
            b_c = core.critical_quantities(params).b_c
            batch = getattr(process, f"final_sizes_{sampler}")
            sizes = rec.timed(f"process.{sampler}.n{n}_s", batch, params, reps,
                              RngSpec(self.seed, 10 + index))
            check_poisson_bulk(sizes, params, b_c, f"{sampler} n = {n}")
        return op

    def low_degree_counts(self, rec):
        """Mean of D_n (nodes of degree < r) against n P(Bin(n-1, p) <= r-1);
        D_n is close to Poisson, so twice the mean bounds its variance."""
        n, reps = self.low_degree
        params, _ = seeded_instance(n, poisson_rule_p(n))
        counts = rec.timed("process.low_degree_counts_s",
                           process.low_degree_counts, params, reps,
                           RngSpec(self.seed, 20))
        ref = n * bounds.chernoff_lower(n - 1, params.p, params.r - 1).exact
        allowance = NOISE_Z * math.sqrt(2.0 * ref / reps)
        check(abs(float(counts.mean()) - ref) <= allowance,
              f"low-degree mean {float(counts.mean()):.4f} vs {ref:.4f}")

    def cli_args(self):
        p = self.p6
        return ["simulate", "--sampler", "activation", "--n", str(p.n),
                "--p", repr(p.p), "--r", str(p.r), "--a", str(p.a),
                "--replicates", str(self.cli_reps), "--seed", str(self.seed)]

    def check_cli(self, stdout):
        counts = {int(k): int(c) for k, c in parse_csv(stdout)}
        check(sum(counts.values()) == self.cli_reps, "CLI histogram total")
        tv, bound = tv_to_law(counts, self.ref6)
        check(tv <= bound, f"CLI simulate: TV {tv:.5f} > noise {bound:.5f}")

    def headline(self, rec):
        small = sum(rec.timers[f"process.{s}.n6_s"] for s in self.SAMPLERS)
        large = sum(rec.timers[f"process.{s}.n{n}_s"] for s, n, _ in self.large)
        return {"small_n_reps_per_s": len(self.SAMPLERS) * self.reps6 / small,
                "large_n_reps_per_s": sum(r for _, _, r in self.large) / large}


class TailMc(Workload):
    """Tail estimators: multilevel splitting, the rate-convergence
    studies, naive Monte Carlo and the Poisson-limit distance."""

    name = "tail_mc"
    HEADLINE = {"splitting_s": "s", "naive_reps_per_s": "1/s"}

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        n9 = 500  # criterion-9 instance
        self.p9, a_c = seeded_instance(n9, n9 ** -0.7)
        self.tau9 = math.floor(3 * a_c)
        self.split_calls = 10 if smoke else 100
        self.exact_ladder = (10**3, 10**4) if smoke \
            else (10**3, 10**4, 10**5, 10**6)
        self.split_ladder = (2000, 10_000)
        self.split_reps = 1000 if smoke else 10_000
        self.naive_reps = 2000 if smoke else 20_000
        self.poisson = (5000, 5000 if smoke else 20_000)
        self.family = ratefun.family_from_string("between_acnp_n")

    def ops(self):
        return [("splitting_c9", self.splitting_c9),
                ("study_exact_dp", self.study_exact_dp),
                ("study_splitting", self.study_splitting),
                ("naive", self.naive),
                ("poisson_distance", self.poisson_distance),
                ("regime", self.regime)]

    def coverage_floor(self, calls: int) -> int:
        """Fewest covering intervals out of `calls` nominal-95% intervals
        that is not below a one-in-a-million binomial lower tail."""
        k = math.floor(0.95 * calls)
        while k > 0 and bounds.chernoff_lower(calls, 0.95, k).exact > 1e-6:
            k -= 1
        return k + 1

    def splitting_c9(self, rec):
        exact = float(rec.timed("oracle.exact_stop_cdf.n500_s",
                                oracle.exact_stop_cdf, self.p9, self.tau9))
        covered = degenerate = 0
        for trial in range(self.split_calls):
            try:
                est = rec.timed("montecarlo.estimate_tail_splitting_s",
                                montecarlo.estimate_tail_splitting, self.p9,
                                self.tau9, 4, 2000, RngSpec(self.seed, trial))
            except DegenerateLevels:
                degenerate += 1
                continue
            covered += est.ci_low <= exact <= est.ci_high
        rec.note("montecarlo.splitting.covered", covered)
        rec.note("montecarlo.splitting.degenerate", degenerate)
        floor = self.coverage_floor(self.split_calls)
        check(degenerate == 0, f"{degenerate} splitting calls raised "
                               "DegenerateLevels")
        check(covered >= floor, f"splitting CI covered the DP value "
                                f"{covered}/{self.split_calls} (< {floor})")

    def _study(self, rec, ladder, method: str, **kwargs):
        return rec.timed(f"montecarlo.rate_convergence_study.{method}_s",
                         montecarlo.rate_convergence_study, SPEC_07,
                         self.family, 0.5, list(ladder), method=method, **kwargs)

    def study_exact_dp(self, rec):
        """Criterion 6 again, through the study: early-stop rows whose
        normalized log-probability closes in on the target -J(x0)."""
        rows = self._study(rec, self.exact_ladder, "exact_dp")
        gaps = [abs(row.normalized - row.target) for row in rows]
        check(all(b < a for a, b in zip(gaps, gaps[1:])),
              f"exact_dp study gaps not decreasing: {gaps}")
        check(0.5 <= rows[-1].normalized / rows[-1].target <= 1.5,
              "exact_dp study misses the target by more than a factor 1.5")

    def study_splitting(self, rec):
        """Splitting rows against the DP rows of the same ladder; the
        tolerance is about eight standard deviations of the log estimate
        at 10^4 replicates per level."""
        rows = self._study(rec, self.split_ladder, "splitting",
                           replicates=self.split_reps,
                           rng=RngSpec(self.seed, 30))
        exact = montecarlo.rate_convergence_study(
            SPEC_07, self.family, 0.5, list(self.split_ladder))
        for row, ref in zip(rows, exact):
            check(abs(row.log_p - ref.log_p) <= 0.5,
                  f"splitting study n = {row.n}: ln p {row.log_p:.4f} "
                  f"vs DP {ref.log_p:.4f}")

    def naive(self, rec):
        """P(T <= tau9) by naive Monte Carlo: the event (n - A*)/n > eps
        with eps chosen so that floor(n - eps n) = tau9."""
        n = self.p9.n
        family = ratefun.family_from_string("between_acnp_n:1")
        eps = 1.0 - (self.tau9 + 0.5) / n
        est = rec.timed("montecarlo.estimate_tail_s", montecarlo.estimate_tail,
                        self.p9, family, eps, self.naive_reps,
                        RngSpec(self.seed, 40))
        exact = float(oracle.exact_stop_cdf(self.p9, self.tau9))
        lo, hi = montecarlo.wilson_interval(
            round(est.p_hat * est.replicates), est.replicates, NOISE_Z)
        check(lo <= exact <= hi, f"naive estimate {est.p_hat:.5f} vs DP "
                                 f"{exact:.5f} outside the 5-sigma interval")

    def poisson_distance(self, rec):
        """Criterion-4 limits (TV and bulk mean gap at most 0.1), the mean
        gap widened by 5 sigma of its noise at this replicate count."""
        n, reps = self.poisson
        params, _ = seeded_instance(n, poisson_rule_p(n))
        b_c = core.critical_quantities(params).b_c
        tv, mean_gap = rec.timed("montecarlo.poisson_distance_s",
                                 montecarlo.poisson_distance, params, reps,
                                 RngSpec(self.seed, 50))
        noise = NOISE_Z * math.sqrt(b_c / reps) / b_c
        check(tv <= 0.1, f"TV to Poisson(b_c) {tv:.4f}")
        check(mean_gap <= 0.1 + noise, f"bulk mean gap {mean_gap:.4f}")

    def regime(self, rec):
        """The (v(n), I(eps)) cell of the criterion-6 spec: speed a_c and
        rate J(x0), the early-stop exponent."""
        n = 10**5
        regime = rec.timed("core.classify_regime_s", core.classify_regime,
                           SPEC_07)
        te = rec.timed("ratefun.tail_exponent_s", ratefun.tail_exponent,
                       SPEC_07, n, self.family, 0.5, regime)
        _, j0 = ratefun.minimize_rate(SPEC_07.alpha, SPEC_07.r)
        check(te.table_row in EARLY_STOP_TAGS, f"cell {te.table_row}")
        check(te.rate_at_eps == j0, f"rate {te.rate_at_eps!r} vs J(x0) {j0!r}")
        check(te.speed_at_n == SPEC_07.crit_at(n).a_c, "speed is not a_c")

    def cli_args(self):
        p = self.p9
        return ["tail", "estimate", "--n", str(p.n), "--p", repr(p.p),
                "--r", str(p.r), "--a", str(p.a), "--splitting",
                "--tau", str(self.tau9), "--levels", "4",
                "--replicates", "2000", "--seed", str(self.seed)]

    def check_cli(self, stdout):
        got = json.loads(stdout)["result"]
        ref = montecarlo.estimate_tail_splitting(
            self.p9, self.tau9, 4, 2000, RngSpec(self.seed, 0)).to_dict()
        for key, value in ref.items():
            check(got.get(key) == value, f"CLI tail estimate {key}: "
                                         f"{got.get(key)!r} vs {value!r}")

    def headline(self, rec):
        return {"splitting_s": rec.timers["montecarlo.estimate_tail_splitting_s"],
                "naive_reps_per_s":
                    self.naive_reps / rec.timers["montecarlo.estimate_tail_s"]}


WORKLOADS = {w.name: w for w in (ExactLaw, SamplerBatch, TailMc)}
