import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chi2_contingency

from bootperc._binom import log_binom_cdf, log_cdf_head
from bootperc.core import ModelParams, critical_quantities
from bootperc.errors import MemoryGuardError, ParameterError
from bootperc.montecarlo import wilson_interval
from bootperc.oracle import brute_force_pmf, exact_pmf
from bootperc import process
from bootperc.process import (SAMPLER_BATCHES, RngSpec,
                              final_size_from_edge_uniforms,
                              final_sizes_activation, final_sizes_graph,
                              final_sizes_leap, final_sizes_markchain,
                              histogram, low_degree_counts, _leap_to_level,
                              _rth_success_times, _stop_from_sorted_times)

P6 = ModelParams(n=6, p=0.4, r=2, a=2)


def empirical_pmf(sizes, n):
    return np.bincount(sizes, minlength=n + 1) / len(sizes)


# ---------------------------------------------------------------------------
# degenerate anchors

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("batch", SAMPLER_BATCHES.values(),
                         ids=SAMPLER_BATCHES.keys())
def test_p_zero_keeps_only_seeds(batch):
    for p in (0.0, 5e-324):  # subnormal p gives infinite times, no warning
        sizes = batch(ModelParams(n=6, p=p, r=2, a=3), 50, RngSpec(0, 0))
        assert (sizes == 3).all()


@pytest.mark.parametrize("batch", SAMPLER_BATCHES.values(),
                         ids=SAMPLER_BATCHES.keys())
def test_p_one_percolates_when_seeds_reach_threshold(batch):
    sizes = batch(ModelParams(n=7, p=1.0, r=2, a=2), 50, RngSpec(0, 0))
    assert (sizes == 7).all()


BATCHES = {**SAMPLER_BATCHES, "low_degree": low_degree_counts}


@pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
@pytest.mark.parametrize("replicates", [0, -3])
def test_batches_reject_nonpositive_replicates(batch, replicates):
    with pytest.raises(ParameterError, match="replicates"):
        batch(P6, replicates, RngSpec(0, 0))


def test_all_seeded_stops_at_n():
    for batch in SAMPLER_BATCHES.values():
        sizes = batch(ModelParams(n=4, p=0.5, r=2, a=4), 20, RngSpec(0, 0))
        assert (sizes == 4).all()


def test_markchain_hand_enumeration():
    # node 3 activates iff both seed edges are present: P(A* = 3) = p^2
    sizes = final_sizes_markchain(ModelParams(n=3, p=0.5, r=2, a=2),
                                  40_000, RngSpec(21, 0))
    frac = (sizes == 3).mean()
    assert frac == pytest.approx(0.25, abs=0.01)


@pytest.mark.parametrize("p", [0.0, 5e-324, 0.003, 0.4, 1.0])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_markchain_leap_chances_gather_equals_direct_evaluation(p, r):
    # the sampler gathers them from a table over 0..max margin when that
    # is shorter than the batch, so both must give the same draws
    margin = np.random.default_rng(r).integers(1, 300, size=1000)
    direct = process._leap_chances(margin, p, r)
    table = process._leap_chances(np.arange(margin.max() + 1), p, r)
    for got, want in zip(table, direct):
        np.testing.assert_array_equal(got.take(margin, axis=1), want)
        assert ((0.0 <= want) & (want <= 1.0)).all()


def test_rth_success_times_match_activation_law():
    gen = RngSpec(5, 0).generator()
    y = _rth_success_times(200_000, 2, 0.5, gen)
    assert (y <= 2).mean() == pytest.approx(0.25, abs=0.005)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [0.0, 5e-324, 0.002, 0.4, 1.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_rth_success_times_are_the_inversion_formula_bit_for_bit(p, r):
    # sum over r of 1 + floor(log1p(-u) / log1p(-p)), one fresh array of
    # uniforms per term in the same order; p = 0 and p = 1 give +inf and
    # 1, a subnormal p overflows to +inf
    shape = (7, 13)
    got = _rth_success_times(shape, r, p, RngSpec(31, 4).generator())
    gen = RngSpec(31, 4).generator()
    want = np.zeros(shape)
    with np.errstate(divide="ignore", over="ignore"):
        log_q = np.log1p(-np.float64(p))
        for _ in range(r):
            want += 1.0 + np.floor(np.log1p(-gen.random(shape)) / log_q)
    np.testing.assert_array_equal(got, want)


def test_stop_from_sorted_times_matches_a_plain_loop():
    gen = np.random.default_rng(12)
    for _ in range(200):
        reps, m, a = (int(k) for k in gen.integers([1, 1, 0], [5, 9, 5]))
        n = a + m
        y = gen.integers(1, n + 4, size=(reps, m)).astype(float)
        y[gen.random((reps, m)) < 0.2] = np.inf  # nodes that never activate
        y.sort(axis=1)
        want = [next(t for t in range(n + 1) if a + (row <= t).sum() <= t)
                for row in y]
        np.testing.assert_array_equal(_stop_from_sorted_times(y, n, a), want)


# ---------------------------------------------------------------------------
# invariants

def test_deterministic_given_seed_and_stream():
    for batch in SAMPLER_BATCHES.values():
        a = batch(P6, 500, RngSpec(42, 7))
        b = batch(P6, 500, RngSpec(42, 7))
        assert np.array_equal(a, b)
    c = batch(P6, 500, RngSpec(42, 8))
    assert not np.array_equal(a, c)


@st.composite
def sampler_instances(draw):
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 30))
    a = draw(st.integers(1, n))
    return ModelParams(n=n, p=draw(st.floats(0.0, 1.0)), r=r, a=a)


@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(sampler_instances(), st.integers(0, 2**64 - 1))
def test_samplers_give_reproducible_sizes_in_range(params, seed):
    for batch in SAMPLER_BATCHES.values():
        sizes = batch(params, 16, RngSpec(seed, 3))
        assert sizes.dtype == np.int64 and sizes.shape == (16,)
        assert ((sizes >= params.a) & (sizes <= params.n)).all()
        assert np.array_equal(sizes, batch(params, 16, RngSpec(seed, 3)))


def test_rngspec_validation():
    with pytest.raises(ParameterError):
        RngSpec(seed=-1)
    with pytest.raises(ParameterError):
        RngSpec(seed=2**64)
    with pytest.raises(ParameterError):
        RngSpec(seed=1.5)


def test_coupled_monotonicity_in_p():
    n, r, a = 30, 2, 3
    gen = RngSpec(17, 0).generator()
    worse = 0
    for _ in range(1000):
        u = gen.random(n * (n - 1) // 2)
        low = final_size_from_edge_uniforms(n, r, a, u, 0.05)
        high = final_size_from_edge_uniforms(n, r, a, u, 0.12)
        worse += low > high
    assert worse == 0


def test_low_degree_nonseed_count_is_dominated_pathwise():
    # a low-degree seed is active by fiat, so only non-seeds are counted
    n, p, r, a = 50, 0.1, 2, 5
    ui, vi = np.triu_indices(n, k=1)
    for stream in range(300):
        u = RngSpec(23, stream).generator().random(n * (n - 1) // 2)
        final = final_size_from_edge_uniforms(n, r, a, u, p)
        edges = u < p
        deg = np.bincount(ui[edges], minlength=n) + np.bincount(vi[edges], minlength=n)
        assert n - final >= (deg[a:] < r).sum()


@pytest.mark.parametrize("n", [2, 3, 7, 1000, 99_999, process.GRAPH_NODE_CAP])
def test_slot_pairs_match_a_binary_search_at_every_row_boundary(n):
    # row i of the pair triangle starts at offsets[i] = i (2n - i - 1) / 2;
    # the closed-form decoder must land on the row a search gives, bit for
    # bit, at the slots either side of every row start, in two replicates
    pairs = n * (n - 1) // 2
    i = np.arange(n, dtype=np.int64)
    offsets = i * (2 * n - i - 1) // 2
    v = np.unique(np.concatenate([offsets - 1, offsets, offsets + 1]))
    v = v[(v >= 0) & (v < pairs)]
    slots = np.concatenate([v, v + 5 * pairs])
    rep, s = np.divmod(slots, pairs)
    row = np.searchsorted(offsets, s, side="right") - 1
    want_u = rep * n + row
    want_v = rep * n + s - offsets[row] + row + 1
    got_u, got_v = process._slot_pairs(slots, n)
    np.testing.assert_array_equal(got_u, want_u)
    np.testing.assert_array_equal(got_v, want_v)
    assert (got_u < got_v).all() and (got_v < (rep + 1) * n).all()


def test_low_degree_trivial_values():
    for p, count in ((0.0, 10), (1.0, 0)):
        counts = low_degree_counts(ModelParams(n=10, p=p, r=2, a=1), 5,
                                   RngSpec(0, 0))
        assert (counts == count).all()


def test_low_degree_mean_matches_binomial():
    params = ModelParams(n=1000, p=0.005, r=2, a=1)
    counts = low_degree_counts(params, 20_000, RngSpec(8, 0))
    expected = 1000 * math.exp(log_binom_cdf(999, 0.005, 1))
    assert counts.mean() == pytest.approx(expected, rel=0.02)


def test_memory_guard():
    big = ModelParams(n=200_000, p=1e-5, r=2, a=10)
    with pytest.raises(MemoryGuardError):
        final_sizes_graph(big, 1, RngSpec(0, 0))
    with pytest.raises(MemoryGuardError):
        low_degree_counts(big, 1, RngSpec(0, 0))
    # other samplers have no such cap
    final_sizes_activation(big, 1, RngSpec(0, 0))


def test_activation_guard_refuses_before_allocating():
    huge = ModelParams(n=10**9, p=2e-8, r=2, a=50)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryGuardError, match="leap"):
            final_sizes_activation(huge, 1, RngSpec(0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _poisson_rule_instance(n):
    """Criterion-4 rule p = (log n + log log n - log 2)/n, a = ceil(2 a_c)."""
    p = (math.log(n) + math.log(math.log(n)) - math.log(2)) / n
    a_c = critical_quantities(ModelParams(n=n, p=p, r=2, a=1)).a_c
    return ModelParams(n=n, p=p, r=2, a=math.ceil(2 * a_c))


#: the bound stated at process._BATCH_ELEMENTS: beyond its output, a
#: chunked sampler peaks below this many batch budgets of 2^18 float64
WORKING_SET_BUDGETS = 6
BATCH_BYTES = 8 * 2 ** 18


@pytest.mark.parametrize("batch, params, replicates", [
    (final_sizes_activation, _poisson_rule_instance(2000), 300),
    (final_sizes_graph, _poisson_rule_instance(2000), 60),
    (low_degree_counts, _poisson_rule_instance(2000), 60),
    # the mark chain keeps O(r) counts per replicate at any n, so it takes
    # many replicates of a small instance to fill two batches
    (final_sizes_markchain, P6, 400_000),
], ids=["activation", "graph", "low_degree", "markchain"])
def test_chunked_samplers_hold_a_bounded_working_set(batch, params,
                                                    replicates):
    # each case spans two or more batches of process._BATCH_ELEMENTS
    tracemalloc.start()
    try:
        sizes = batch(params, replicates, RngSpec(3, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = (peak - sizes.nbytes) / BATCH_BYTES
    assert held < WORKING_SET_BUDGETS, f"{held:.2f} budgets"
    assert 8 * process._BATCH_ELEMENTS <= BATCH_BYTES


def test_leap_sampler_tabulates_nothing_over_n():
    # tau = n: log Q is evaluated at the leap times; a float64 table over
    # 0..n would alone take 8 MB here
    params = ModelParams(n=10**6, p=6.3e-05, r=2, a=252)
    tracemalloc.start()
    try:
        sizes = final_sizes_leap(params, 100, RngSpec(0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ((params.a <= sizes) & (sizes <= params.n)).all()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# distributional equality across samplers

@pytest.mark.parametrize("config", [
    ModelParams(n=5, p=0.3, r=2, a=2),
    ModelParams(n=6, p=0.4, r=2, a=2),
    ModelParams(n=6, p=0.5, r=3, a=3),
])
def test_three_samplers_agree_with_enumeration(config):
    reps = 100_000
    bf = brute_force_pmf(config)
    pmfs = {}
    for i, (name, batch) in enumerate(SAMPLER_BATCHES.items()):
        sizes = batch(config, reps, RngSpec(100 + i, 0))
        emp = empirical_pmf(sizes, config.n)
        pmfs[name] = emp
        tv = 0.5 * sum(abs(emp[k] - bf.prob(k))
                       for k in range(config.a, config.n + 1))
        assert tv <= 0.01, f"{name} TV {tv}"

    # three-way chi-square on the pooled contingency table
    support = [k for k in range(config.a, config.n + 1)
               if any(pmfs[s][k] * reps >= 5 for s in pmfs)]
    table = np.array([[pmfs[s][k] * reps for k in support] for s in pmfs])
    col = table.sum(axis=0)
    row = table.sum(axis=1)
    expected = np.outer(row, col) / table.sum()
    stat = ((table - expected) ** 2 / expected).sum()
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    p_value = chi2.sf(stat, dof)
    assert p_value > 1e-3


def assert_tv_within_noise(sizes, pmf, n):
    """TV between the sizes and the exact pmf within half the summed
    5-sigma Wilson widths of the bins 0..n."""
    reps = len(sizes)
    counts = np.bincount(sizes, minlength=n + 1)
    tv = bound = 0.0
    for k in range(n + 1):
        tv += abs(counts[k] / reps - pmf.prob(k))
        lo, hi = wilson_interval(int(counts[k]), reps, 5.0)
        bound += (hi - lo) / 2.0
    assert tv / 2.0 <= bound / 2.0, (tv / 2.0, bound / 2.0)


@pytest.mark.parametrize("sampler, n, reps", [
    ("leap", 200, 200_000), ("leap", 500, 200_000), ("graph", 40, 20_000),
    ("markchain", 200, 200_000), ("markchain", 500, 200_000)])
def test_leap_matches_exact_law_beyond_brute_force(sampler, n, reps):
    p = n ** -0.7
    a_c = critical_quantities(ModelParams(n=n, p=p, r=2, a=1)).a_c
    params = ModelParams(n=n, p=p, r=2, a=math.ceil(2 * a_c))
    sizes = SAMPLER_BATCHES[sampler](params, reps, RngSpec(9, n))
    assert_tv_within_noise(sizes, exact_pmf(params), n)


def test_markchain_matches_exact_law_at_r3():
    # supercritical at r = 3: most replicates end with nodes at one and
    # two marks, so every leap splits its non-activated nodes over levels
    n = 200
    p = n ** -0.6
    a_c = critical_quantities(ModelParams(n=n, p=p, r=3, a=1)).a_c
    params = ModelParams(n=n, p=p, r=3, a=math.ceil(2 * a_c))
    pmf = exact_pmf(params)
    assert sum(pmf.prob(k) for k in range(n - 4, n)) > 0.5
    sizes = final_sizes_markchain(params, 200_000, RngSpec(9, 3))
    assert_tv_within_noise(sizes, pmf, n)


def test_markchain_agrees_with_leap_at_criterion_5_instance():
    # n = 1e5 lies beyond the exact oracle; the mark chain (per-node marks)
    # and the leap sampler (count chain) are built independently, so a
    # two-sample chi-square on the gaps n - A* checks one against the other
    n = 100_000
    p = math.log(n) / (2 * n)
    a_c = critical_quantities(ModelParams(n=n, p=p, r=2, a=1)).a_c
    params = ModelParams(n=n, p=p, r=2, a=math.ceil(2 * a_c))
    gaps = [n - batch(params, 20_000, RngSpec(41, i)) for i, batch
            in enumerate((final_sizes_markchain, final_sizes_leap))]
    # one bin per gap value seen 20 times in the pool, one for the rest
    values, pooled = np.unique(np.concatenate(gaps), return_counts=True)
    common = values[pooled >= 20]
    table = np.array([[*(np.count_nonzero(g == v) for v in common),
                       np.count_nonzero(~np.isin(g, common))] for g in gaps])
    table = table[:, table.sum(axis=0) > 0]
    assert table.shape[1] >= 10
    assert chi2_contingency(table).pvalue > 1e-3


def _exact_crossing_law(params, t0, s0, level, tau):
    """Law of the first time the margin a + S - t falls to `level`, from
    (t0, S0), by a step-by-step forward recursion over S; the key None
    holds the mass not crossed by tau."""
    n, p, r, a = params.n, params.p, params.r, params.a

    def inactive(t):  # Q(t) = P(Bin(t, p) <= r - 1)
        return math.fsum(math.comb(t, j) * p ** j * (1 - p) ** (t - j)
                         for j in range(min(r - 1, t) + 1))

    law, alive = {}, {s0: 1.0}
    for t in range(t0, tau):
        q = 1.0 - inactive(t + 1) / inactive(t)
        step = defaultdict(float)
        for s, w in alive.items():
            m = n - a - s
            for j in range(m + 1):
                step[s + j] += w * math.comb(m, j) * q ** j * (1 - q) ** (m - j)
        law[t + 1] = math.fsum(w for s, w in step.items()
                               if a + s - (t + 1) <= level)
        alive = {s: w for s, w in step.items() if a + s - (t + 1) > level}
    law[None] = math.fsum(alive.values())
    return law


def test_leap_to_level_matches_exact_crossing_law():
    # from margin 4 at (t, S) = (2, 3) down to level 1, with tau = 12
    # cutting about a tenth of the chains; a kernel that leaps one step
    # past the level puts no mass at t = 5 and fails every bin
    params = ModelParams(n=30, p=0.08, r=2, a=3)
    t0, s0, level, tau, reps = 2, 3, 1, 12, 200_000
    law = _exact_crossing_law(params, t0, s0, level, tau)
    assert 0.05 < law[None] < 0.5 and law[5] > 0.1
    crossed, t, s = _leap_to_level(
        params, np.full(reps, t0), np.full(reps, s0), level, tau,
        RngSpec(3, 0).generator(),
        lambda t: log_cdf_head(t, params.p, params.r - 1))
    assert np.all(params.a + s[crossed] - t[crossed] == level)
    assert np.all(t[~crossed] == tau)
    for when, prob in law.items():
        hits = (~crossed if when is None else crossed & (t == when)).sum()
        lo, hi = wilson_interval(int(hits), reps, 5.0)
        assert lo <= prob <= hi, (when, prob, hits / reps)


@pytest.mark.parametrize("params,t0,s0,level,tau,reps", [
    (ModelParams(n=30, p=0.08, r=2, a=3), 2, 3, 1, 12, 20_000),
    # tau close to n: the full event {T <= 9000} of the beta = 0.7 spec
    (ModelParams(n=10_000, p=10_000 ** -0.7, r=2, a=40), 0, 0, 0, 9000, 2000),
])
def test_leap_to_level_table_lookup_matches_direct_evaluation(
        params, t0, s0, level, tau, reps):
    # log_cdf_head is elementwise, so a gather from its table over 0..tau
    # must drive the same draws to the same states bit for bit
    table = log_cdf_head(np.arange(tau + 1), params.p, params.r - 1)
    runs = [_leap_to_level(params, np.full(reps, t0), np.full(reps, s0),
                           level, tau, RngSpec(8, 0).generator(), log_q)
            for log_q in (table.take,
                          lambda t: log_cdf_head(t, params.p, params.r - 1))]
    crossed = runs[0][0]
    assert 0 < crossed.sum() < reps
    for from_table, direct in zip(*runs):
        np.testing.assert_array_equal(from_table, direct)


def test_histogram_helper():
    assert histogram(np.array([2, 2, 3])) == {2: 2, 3: 1}
