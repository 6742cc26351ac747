import hashlib
import itertools
import math
import sys
import threading
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
from bootperc.oracle import _final_size_counts, brute_force_pmf, exact_pmf
from bootperc import process
from bootperc.process import (SAMPLER_BATCHES, RngSpec,
                              final_sizes_activation, final_sizes_graph,
                              final_sizes_leap, final_sizes_markchain,
                              low_degree_counts, _leap_to_level,
                              _stop_from_spacings)

MASK64 = 2 ** 64 - 1

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


@pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
@pytest.mark.parametrize("replicates", [1000.0, True])
def test_batches_reject_a_replicate_count_that_is_no_int(batch, replicates):
    # 1000.0 once ended in numpy's TypeError, and True ran one replicate
    with pytest.raises(ParameterError, match="replicates"):
        batch(P6, replicates, RngSpec(0, 0))


@pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
def test_batches_refuse_an_rng_that_is_no_generator(batch):
    # an int seed is no RngSpec: every batch refuses it first, so a sure
    # outcome (p = 0, or p = 1 for the leap sampler) refuses it too
    sure = ModelParams(n=6, p=float(batch is final_sizes_leap), r=2, a=2)
    for params in (P6, sure):
        with pytest.raises(ParameterError, match="rng"):
            batch(params, 10, 7)


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


@pytest.mark.parametrize("p", [5e-324, 0.003, 0.4])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_markchain_leap_chances_gather_equals_direct_evaluation(p, r):
    # the sampler gathers them from a table over 0..n when n + 1 is at
    # most the replicates and the batch budget, so both must give the
    # same draws
    margin = np.random.default_rng(r).integers(1, 300, size=1000)
    direct = process._leap_chances(margin, p, r)
    table = process._leap_chances(np.arange(margin.max() + 1), p, r)
    for got, want in zip(table, direct):
        np.testing.assert_array_equal(got.take(margin, axis=1), want)
        assert ((0.0 <= want) & (want <= 1.0)).all()


@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_markchain_leap_chances_read_log_cdf_head_bit_for_bit(r):
    # log F(d) comes from one set of head terms, summed over its first d,
    # and must give log_cdf_head(M, p, d)'s floats for every d = 0..r-1
    margin = np.arange(550)
    for p in (5e-324, 0.003, 0.05, 0.4, 0.9):
        act, up = process._leap_chances(margin, p, r)
        log_f = np.array([log_cdf_head(margin, p, d) for d in range(r)])
        with np.errstate(invalid="ignore"):
            log_up = log_f[:-1] - log_f[1:]
        np.testing.assert_array_equal(act, -np.expm1(np.fmin(log_f, 0.0)))
        np.testing.assert_array_equal(up, -np.expm1(np.fmin(log_up, 0.0)))


def _exact_survival(n, p, r, a):
    """Q(t) = P(Bin(t, p) <= r - 1) for t = a..n-1 by the plain binomial
    sum, clamped to be nonincreasing in t as the true Q is."""
    q = [math.fsum(math.comb(t, j) * p ** j * (1.0 - p) ** (t - j)
                   for j in range(min(r - 1, t) + 1)) for t in range(a, n)]
    return np.minimum.accumulate(np.array(q))


def _stop_by_inversion(spacings, q, a):
    """A plain loop: the uniform order statistics U_(k) = 1 - P_{m+1-k} /
    P_{m+1} of m + 1 spacings, the r-th-success times Y_(k) = F^-1(U_(k))
    with F = 1 - Q (so Y_(k) <= t iff Q(t) <= 1 - U_(k)), and the first
    t with a + S(t) <= t, S(t) = #{k: Y_(k) <= t}.  Times at or past n
    count as never; a + S(n) <= n always."""
    m = len(spacings) - 1
    prefix = list(itertools.accumulate(spacings.tolist()))
    times = []
    for k in range(1, m + 1):
        tail = prefix[m - k] / prefix[m]  # 1 - U_(k)
        times.append(next((a + i for i, qt in enumerate(q) if qt <= tail),
                          math.inf))
    return next((t for t in range(a, a + m)
                 if a + sum(y <= t for y in times) <= t), a + m)


def _activation_by_inversion(params, replicates, spec):
    """The sampler's sizes, and the plain loop's on the same spacings:
    one batch draws m + 1 exponentials per replicate, row by row."""
    n, p, r, a = params.n, params.p, params.r, params.a
    sizes = final_sizes_activation(params, replicates, spec)
    spacings = spec.generator().standard_exponential((replicates, n - a + 1))
    q = _exact_survival(n, p, r, a)
    return sizes, [_stop_by_inversion(row, q, a) for row in spacings]


def test_rth_success_times_match_activation_law():
    # the lone non-seed node activates by t = 3 iff its r-th success is
    # among the first 3 trials: P(A* = 4) = p^3 at r = 3
    sizes = final_sizes_activation(ModelParams(n=4, p=0.5, r=3, a=3),
                                   200_000, RngSpec(5, 0))
    assert (sizes == 4).mean() == pytest.approx(0.125, abs=0.004)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [0.0, 5e-324, 0.002, 0.4, 1.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_rth_success_times_are_the_inversion_formula_bit_for_bit(p, r):
    # the stop rule on prefix sums equals the stop time of the r-th-success
    # times F^-1(U_(k)) built from the same spacings by a plain loop, at
    # every row width m + 1 = 2..64 of one block; Q is 1 at p = 0 and at a
    # subnormal p, and 0 from t = r on at p = 1
    gen = RngSpec(31, 4).generator()
    assert process._block_lengths(63).size == 1
    for m in range(1, 64):
        reps, a = (int(k) for k in gen.integers([1, 1], [4, 5]))
        q = _exact_survival(a + m, p, r, a)
        spacings = gen.standard_exponential((reps, m + 1))
        want = [_stop_by_inversion(row, q, a) for row in spacings]
        np.testing.assert_array_equal(
            _stop_from_spacings(spacings, q, a), want)


def test_stop_from_spacings_matches_a_plain_loop():
    gen = np.random.default_rng(12)
    outcomes = set()
    for seed in range(200):
        n, r = int(gen.integers(2, 13)), int(gen.integers(2, 4))
        params = ModelParams(n=n, p=float(gen.random()), r=r,
                             a=int(gen.integers(1, n + 1)))
        sizes, want = _activation_by_inversion(
            params, int(gen.integers(1, 6)), RngSpec(seed, 2))
        np.testing.assert_array_equal(sizes, want)
        outcomes.update(sizes == n)
    assert outcomes == {False, True}


def _splitmix64_words(key, count):
    """The first `count` SplitMix64 words from state `key`, on Python ints."""
    words = []
    for _ in range(count):
        key = (key + 0x9E3779B97F4A7C15) & MASK64
        z = key
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        words.append(z ^ (z >> 31))
    return words


@pytest.mark.filterwarnings("error")
def test_splitmix64_matches_the_published_generator():
    assert process._splitmix64(np.zeros(1, dtype=np.uint64), 1)[0, 0] == \
        0xE220A8397B1DCDAF
    keys = [0, 1, 2 ** 63, MASK64, 0x0123456789ABCDEF]
    got = process._splitmix64(np.array(keys, dtype=np.uint64), 70)
    assert got.tolist() == [_splitmix64_words(k, 70) for k in keys]
    # exponentials are -log u, u in (0, 1] from a word's top 53 bits
    top = np.array([[(w >> 11) + 1 for w in _splitmix64_words(k, 70)]
                    for k in keys], dtype=np.float64)
    np.testing.assert_array_equal(
        process._block_exponentials(np.array(keys, dtype=np.uint64), 70),
        -np.log(top * 2.0 ** -53))


def _full_prefix_sums(sums, keys, lengths):
    """Every block of every row expanded: P_k = C_b + S_j G_b / S_len in
    column k - 1 (padding included), and the row totals P_{m+1}."""
    size, blocks = sums.shape
    width = lengths[0]
    prefix = np.zeros((size, blocks + 1))
    np.cumsum(sums, axis=1, out=prefix[:, 1:])
    spacings = process._block_exponentials(keys.ravel(), width)
    s = np.cumsum(spacings, axis=1).reshape(size, blocks, width)
    last = s[:, np.arange(blocks), lengths - 1]
    p = s * (sums / last)[:, :, None] + prefix[:, :blocks, None]
    return p.reshape(size, -1), prefix[:, blocks:]


def _largest_hits_in_full(sums, keys, q_blocks, lengths):
    """Reference for process._largest_hits: the largest k with P_k <
    P_{m+1} q_k over every expanded block (0 if none), by a plain scan."""
    p, total = _full_prefix_sums(sums, keys, lengths)
    hit = p < total * q_blocks.ravel()
    return np.array([max((k + 1 for k in np.flatnonzero(row)), default=0)
                     for row in hit])


def _q_blocks(q, lengths):
    """The survival table Q(a..n-1) in the order k = n - t = 1..m, padded
    with -1 to whole blocks, one row per block."""
    width = lengths[0]
    table = np.full(lengths.size * width, -1.0)
    table[:q.size] = q[::-1]
    return table.reshape(lengths.size, width)


@pytest.mark.filterwarnings("error")
def test_lazy_blocks_equal_the_full_expansion():
    # random survival tables, block sums and keys; the cases force
    # m + 1 = 0 and 1 (mod the width), Q = 1 (p = 0 and subnormal p),
    # r = 1, and tables underflowing to 0 where no row can stop
    gen = np.random.default_rng(20)
    width = int(process._block_lengths(640)[0])
    cases = [(width * j + d, p, r) for j in (2, 5) for d in (0, 1)
             for p, r in ((0.0, 2), (5e-324, 3), (0.01, 1), (0.5, 2))]
    cases += [(int(gen.integers(65, 2500)), float(gen.random()) ** 4,
               int(gen.integers(1, 4))) for _ in range(40)]
    outcomes = set()
    for m_plus_1, p, r in cases:
        m = m_plus_1 - 1
        lengths = process._block_lengths(m)
        assert lengths.sum() == m + 1 and lengths.size > 1
        a = int(gen.integers(1, 20))
        q = _q_blocks(_exact_survival(a + m, p, r, a), lengths)
        bound = q.max(axis=1)
        rows = int(gen.integers(1, 30))
        sums = gen.standard_gamma(lengths, (rows, lengths.size))
        keys = gen.integers(2 ** 64, size=sums.shape, dtype=np.uint64)
        got = process._largest_hits(sums, keys, q, bound, lengths)
        np.testing.assert_array_equal(
            got, _largest_hits_in_full(sums, keys, q, lengths))
        outcomes.update(got == 0)
    assert outcomes == {False, True}


@pytest.mark.filterwarnings("error")
def test_lazy_blocks_keep_a_hit_at_a_block_start():
    # q puts one hit, by the least margin a double allows, on the first k
    # of the block whose prefix C_b lies closest to its first P_k, and no
    # other: C_b is then within one short spacing of P_{m+1} bound[b],
    # the tightest case the skip test meets
    gen = np.random.default_rng(21)
    lengths = process._block_lengths(64 * 30)
    width = lengths[0]
    sums = gen.standard_gamma(lengths, (1, lengths.size))
    keys = gen.integers(2 ** 64, size=sums.shape, dtype=np.uint64)
    p, total = _full_prefix_sums(sums, keys, lengths)
    starts = np.arange(0, lengths.sum() - 1, width)
    k = starts[np.argmax(np.cumsum(sums)[:starts.size - 1]
                         / p[0, starts[1:]]) + 1]
    q = np.zeros(lengths.size * width)
    q[lengths.sum() - 1:] = -1.0
    q[k] = p[0, k] / total[0, 0]
    while total[0, 0] * q[k] <= p[0, k]:
        q[k] = np.nextafter(q[k], 2.0)
    q = q.reshape(lengths.size, width)
    got = process._largest_hits(sums, keys, q, q.max(axis=1), lengths)
    assert got[0] == k + 1
    np.testing.assert_array_equal(
        got, _largest_hits_in_full(sums, keys, q, lengths))


def _activation_in_full(params, replicates, spec):
    """The sampler's sizes, and the full expansion's on the same draws:
    one batch draws the block sums, then the block keys."""
    n, p, r, a = params.n, params.p, params.r, params.a
    lengths = process._block_lengths(n - a)
    gen = spec.generator()
    sums = gen.standard_gamma(lengths, (replicates, lengths.size))
    keys = gen.integers(2 ** 64, size=sums.shape, dtype=np.uint64)
    q = np.exp(log_cdf_head(np.arange(a, n), p, r - 1))
    want = n - _largest_hits_in_full(sums, keys, _q_blocks(q, lengths),
                                     lengths)
    return final_sizes_activation(params, replicates, spec), want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", [
    ModelParams(n=700, p=0.01, r=2, a=61),  # m + 1 = 640 = 10 blocks
    ModelParams(n=700, p=0.01, r=2, a=60),  # last block: the total alone
    ModelParams(n=3000, p=0.003, r=3, a=40),
], ids=["whole_blocks", "lone_total", "n3000"])
def test_activation_sampler_is_the_full_expansion_on_its_draws(params):
    sizes, want = _activation_in_full(params, 50, RngSpec(14, 1))
    np.testing.assert_array_equal(sizes, want)
    assert len(set(sizes.tolist())) > 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [0.02, 0.06, 0.15])
def test_activation_sampler_at_the_last_one_block_and_first_two_block_rows(p):
    # m + 1 = 64 is the widest row of one block, read by columns; m + 1 =
    # 65 the narrowest of two blocks, read block by block
    a = 3
    params = ModelParams(n=a + 63, p=p, r=2, a=a)
    sizes = final_sizes_activation(params, 200, RngSpec(15, 2))
    spacings = RngSpec(15, 2).generator().standard_exponential((200, 64))
    q = np.exp(log_cdf_head(np.arange(a, params.n), p, 1))
    np.testing.assert_array_equal(
        sizes, [_stop_by_inversion(row, q, a) for row in spacings])
    assert len(set(sizes.tolist())) > 1
    params = ModelParams(n=a + 64, p=p, r=2, a=a)
    assert process._block_lengths(params.n - a).tolist() == [64, 1]
    sizes, want = _activation_in_full(params, 200, RngSpec(15, 3))
    np.testing.assert_array_equal(sizes, want)
    assert len(set(sizes.tolist())) > 1


@pytest.mark.filterwarnings("error")
def test_activation_stop_falls_back_to_n_where_q_underflows():
    # Q(t) = (1 + t) 2^-t is 0.0 from t of about 1090, so no row stops
    # there, none stops before, and every row falls back to t = n
    params = ModelParams(n=1200, p=0.5, r=2, a=2)
    q = np.exp(log_cdf_head(np.arange(params.a, params.n), 0.5, 1))
    assert (q == 0.0).sum() > 100
    sizes, want = _activation_in_full(params, 3, RngSpec(6, 0))
    np.testing.assert_array_equal(sizes, want)
    assert (sizes == params.n).all()


def test_activation_sizes_are_monotone_in_p():
    # one RngSpec fixes the spacings; Q(t) falls as p grows, so the sizes
    # are ordered elementwise along the p grid; n = 3000 cuts a row into
    # 39 blocks, of which only those that may hold a stop are expanded
    grid = (0.002, 0.005, 0.01, 0.02, 0.05, 0.2)
    for n, r, a, ps in ((300, 2, 6, grid), (300, 3, 12, grid),
                        (3000, 2, 30, [p / 10 for p in grid])):
        sizes = np.array([final_sizes_activation(
            ModelParams(n=n, p=p, r=r, a=a), 2000, RngSpec(19, r))
            for p in ps])
        steps = np.diff(sizes, axis=0)
        assert (steps >= 0).all()
        assert (steps > 0).any(axis=1).all()


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
    n = draw(st.integers(1, 200))  # activation rows span blocks from n = 65
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


def _final_size_from_edge_uniforms(n, r, a, uniforms, p):
    """Cascade final size on the graph with edges {u_e < p}, one uniform
    per node pair: shared uniforms couple p values monotonically."""
    u, v = process._slot_pairs(np.flatnonzero(uniforms < p), n)
    return int(process._vector_cascade_sizes(u, v, 1, n, r, a)[0])


def test_coupled_monotonicity_in_p():
    n, r, a = 30, 2, 3
    gen = RngSpec(17, 0).generator()
    worse = 0
    for _ in range(1000):
        u = gen.random(n * (n - 1) // 2)
        low = _final_size_from_edge_uniforms(n, r, a, u, 0.05)
        high = _final_size_from_edge_uniforms(n, r, a, u, 0.12)
        worse += low > high
    assert worse == 0


def test_low_degree_nonseed_count_is_dominated_pathwise():
    # a low-degree seed is active by fiat, so only non-seeds are counted
    n, p, r, a = 50, 0.1, 2, 5
    ui, vi = np.triu_indices(n, k=1)
    for stream in range(300):
        u = RngSpec(23, stream).generator().random(n * (n - 1) // 2)
        final = _final_size_from_edge_uniforms(n, r, a, u, p)
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


def test_slot_pairs_root_is_exact_up_to_the_graph_cap():
    # _slot_pairs floors the float root with no integer correction; its
    # proof needs the radicand (2M - 1)^2 - 8v exact, so 4 M^2 < 2^53
    assert 4 * process.GRAPH_NODE_CAP ** 2 < 2 ** 53


class _FirstGapsOne:
    """Generator stand-in whose first random() batch is zeros (every gap
    1, so the batch falls short of the slots and a refill round runs) and
    whose later batches come from a real generator; keeps what it gave."""

    def __init__(self, seed):
        self.gen, self.drawn = np.random.default_rng(seed), []

    def random(self, size):
        u = self.gen.random(size) if self.drawn else np.zeros(size)
        self.drawn.append(u.copy())
        return u


def test_edge_slots_refill_continues_the_cumulative_sum():
    total, p = 1000, 0.1
    stub = _FirstGapsOne(4)
    got = process._sample_edge_slots(total, p, stub)
    assert len(stub.drawn) == 2
    u = np.concatenate(stub.drawn)
    pos = np.cumsum(1.0 + np.floor(np.log1p(-u) / math.log1p(-p))) - 1
    np.testing.assert_array_equal(got, pos[pos < total].astype(np.int64))


def _slots_in_rounds_of_64(total, p, gen):
    """The slot fill, 64 gaps a round, each round's cumulative sum going
    on from the last position of the round before."""
    slots, base = [], 0
    while True:
        gaps = 1.0 + np.floor(np.log1p(-gen.random(64)) / math.log1p(-p))
        pos = np.cumsum(gaps) + (base - 1)
        slots.append(pos[pos < total].astype(np.int64))
        if pos[-1] >= total:
            return np.concatenate(slots)
        base = int(pos[-1]) + 1


@pytest.mark.parametrize("total, p", [(1, 0.5), (1000, 0.02), (5000, 0.3),
                                      (100_000, 0.4), (10 ** 7, 1e-4),
                                      (640, 0.999)])
def test_edge_slots_do_not_depend_on_the_round_size(total, p):
    # the library sizes its rounds by the mean it expects; rounds of 64
    # gaps run many refills, and both keep the same slots
    for seed in range(3):
        got = process._sample_edge_slots(total, p, np.random.default_rng(seed))
        want = _slots_in_rounds_of_64(total, p, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)


def _edge_uniform_sizes():
    gen = np.random.default_rng(22)
    sizes = []
    for n, r, a in ((8, 2, 2), (40, 2, 3), (120, 3, 6)):
        uniforms = gen.random(n * (n - 1) // 2)
        sizes += [_final_size_from_edge_uniforms(n, r, a, uniforms, p)
                  for p in np.linspace(0.0, 1.0, 21)]
    return np.array(sizes)


#: outputs of the graph engine (slot sampling, decode, cascade, degrees)
ENGINE_CASES = {
    "graph-n6": lambda: final_sizes_graph(P6, 100_000, RngSpec(22, 0)),
    "graph-n30-r4": lambda: final_sizes_graph(
        ModelParams(n=30, p=0.5, r=4, a=5), 5000, RngSpec(22, 1)),
    "graph-n2000": lambda: final_sizes_graph(
        _poisson_rule_instance(2000), 60, RngSpec(22, 2)),
    "graph-n300-r3": lambda: final_sizes_graph(
        ModelParams(n=300, p=0.03, r=3, a=12), 200, RngSpec(22, 3)),
    "graph-n1-3": lambda: np.concatenate([
        final_sizes_graph(ModelParams(n=n, p=0.5, r=2, a=a), 1000,
                          RngSpec(22, 4)) for n, a in ((1, 1), (2, 1), (3, 2))]),
    "low-degree-n5000": lambda: low_degree_counts(
        _poisson_rule_instance(5000), 60, RngSpec(22, 5)),
    "low-degree-n1000": lambda: low_degree_counts(
        ModelParams(n=1000, p=0.005, r=2, a=1), 2000, RngSpec(22, 6)),
    "brute-n7-r2": lambda: _final_size_counts.__wrapped__(7, 2, 2),
    "brute-n7-r3": lambda: _final_size_counts.__wrapped__(7, 3, 3),
    "edge-uniforms": _edge_uniform_sizes,
}

#: sha256 of each case's int64 output: the graph-* and brute-* entries
#: were computed before the live-edge cascade and the two-gather decode
#: replaced the full-edge cascade, and they pin the engine bit for bit;
#: the low-degree-* entries pin low_degree_counts's deferred-decision draws.
#: graph-n6, graph-n30-r4, graph-n2000 and graph-n300-r3 span more than one
#: chunk, so they were retaken when chunk k came to draw from the k-th
#: spawned stream (test_a_multi_chunk_run_concatenates_one_chunk_runs).
#: The low-degree-* entries were retaken when low_degree_counts came to
#: cut its band and finish batches at the chunk budget, not the batch
#: budget: their slot draws split at other replicates (n5000 moves by its
#: band batches alone, n1000 by both), and again when the slot fill came
#: to draw about as many gaps as it keeps: the graph-* runs call it once a
#: chunk and keep their slots, but low_degree_counts calls it several
#: times a chunk, so the generator state between the calls moved
ENGINE_SHA256 = {
    "graph-n6": "e80f162779a07983581ce1b6ab809b129b1ebbecce2393aeb7d3185f21cd4d66",
    "graph-n30-r4": "8cdb8f8a1d30599e196826d9b86441f2527c566fb5021d85185d5e3c7ca9869e",
    "graph-n2000": "5379773adfedf921360a61e23e6bce44ae0b69929a582718446a3d25c274cc7a",
    "graph-n300-r3": "5034ca5f9dd3ff2f4f609a0281dfafc9fbc37262a3f5d2bc46a4ba8cd36e4f0b",
    "graph-n1-3": "8fe4a2261aa8c7f087cc311606c919e82896ab4776be17da4a97750655b20511",
    "low-degree-n5000": "33cfb316316a458fba3deb8c1f609920696ccc9e41d8596ab6af193a8357bfef",
    "low-degree-n1000": "ee79cad2edf171b2f206f61a5e247d0e7a84acd57d9054b2381c1a32bff9d80d",
    "brute-n7-r2": "39e2b48f734650fb465198800b2ee53f6be4e4a9d2c8dec7eaa0bd5edf9efdbc",
    "brute-n7-r3": "1894e6f96d938f852fbeb165c8eec6d7837db020c0a4f64a5dc025c7627626e2",
    "edge-uniforms": "4d298be784859e0583d92ee29a0bc090b2aedbc570670a2e49d486518562b32b",
}


@pytest.mark.parametrize("case", sorted(ENGINE_SHA256))
def test_graph_engine_output_is_pinned_bit_for_bit(case):
    out = np.ascontiguousarray(ENGINE_CASES[case](), dtype=np.int64)
    assert hashlib.sha256(out.tobytes()).hexdigest() == ENGINE_SHA256[case]


def _row_boundary_cases(nodes, rows):
    """Slots either side of every row start of each graph of a union
    (graph g: nodes[g] nodes, pairs i < j with i < rows[g]), and the
    (u, v) a binary search over each graph's row starts gives them."""
    slots, want_u, want_v = [], [], []
    slot_base = node_base = 0
    for m, k in zip(nodes, rows):
        i = np.arange(k + 1, dtype=np.int64)
        offsets = i * (2 * m - i - 1) // 2  # offsets[k]: the graph's pairs
        s = np.unique(np.concatenate([offsets - 1, offsets, offsets + 1]))
        s = s[(s >= 0) & (s < offsets[k])]
        row = np.searchsorted(offsets, s, side="right") - 1
        slots.append(slot_base + s)
        want_u.append(node_base + row)
        want_v.append(node_base + s - offsets[row] + row + 1)
        slot_base += int(offsets[k])
        node_base += m
    return [np.concatenate(x) for x in (slots, want_u, want_v)]


@pytest.mark.parametrize("n", [2, 3, 7, 1000, process.GRAPH_NODE_CAP])
def test_slot_pairs_match_a_binary_search_in_bands_and_unions(n):
    # a band (rows < nodes) of one graph repeated, as low_degree_counts
    # reveals it: graphs 0 and 5 of six
    band = max(1, n // 3)
    slots, u, v = _row_boundary_cases([n] * 6, [band] * 6)
    keep = (u < band) | (u >= 5 * n)
    got_u, got_v = process._slot_pairs(slots[keep], n, band)
    np.testing.assert_array_equal(got_u, u[keep])
    np.testing.assert_array_equal(got_v, v[keep])
    # unequal graphs in one union, whole and banded, an edgeless one among
    # them, as the survivors' graphs and the band are drawn
    nodes = [n, 1, n - 1 or 1, max(2, n // 2), n]
    rows = [n, 1, max(1, (n - 1) // 2), max(2, n // 2), band]
    slots, u, v = _row_boundary_cases(nodes, rows)
    got_u, got_v = process._slot_pairs(slots, nodes, rows)
    np.testing.assert_array_equal(got_u, u)
    np.testing.assert_array_equal(got_v, v)
    for x in (process._slot_pairs(np.empty(0, dtype=np.int64), nodes, rows),
              process._slot_pairs(np.empty(0, dtype=np.int64), n, band)):
        assert all(y.size == 0 for y in x)


def _closure_sizes(u, v, reps, n, r, a):
    """Per replicate, activate every inactive node with r or more active
    neighbours until nothing changes (seeds: node i < a of each)."""
    sizes = []
    for k in range(reps):
        own = (u // n == k)
        nbrs = [set() for _ in range(n)]
        for x, y in zip(u[own] - k * n, v[own] - k * n):
            nbrs[x].add(y)
            nbrs[y].add(x)
        active = set(range(a))
        grown = True
        while grown:
            new = {x for x in range(n) if x not in active
                   and len(nbrs[x] & active) >= r}
            active |= new
            grown = bool(new)
        sizes.append(len(active))
    return sizes


@st.composite
def disjoint_unions(draw):
    """Up to 8 random graphs on n <= 12 nodes as one disjoint union, edge
    ends in either order and the edges shuffled; seed-seed edges and
    isolated nodes occur."""
    n = draw(st.integers(1, 12))
    reps = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    for k in range(reps):
        for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)
                         if pairs else st.just([])):
            edges.append((k * n + j, k * n + i) if draw(st.booleans())
                         else (k * n + i, k * n + j))
    edges = draw(st.permutations(edges))
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    return u, v, reps, n, draw(st.sampled_from([2, 3, 4])), draw(st.integers(0, n))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(disjoint_unions())
def test_cascade_sizes_equal_the_closure(case):
    u, v, reps, n, r, a = case
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    want = _closure_sizes(lo, hi, reps, n, r, a)
    np.testing.assert_array_equal(process._vector_cascade_sizes(u, v, reps, n, r, a), want)


def _engine_sizes(params, replicates, rng):
    """The graph sampler's cascade path at any replicate count."""
    n, p, r, a = params.n, params.p, params.r, params.a
    pairs = n * (n - 1) // 2

    def fill(size, g):
        return process._vector_cascade_sizes(*process._slot_pairs(
            process._sample_edge_slots(size * pairs, p, g), n), size, n, r, a)
    return process._map_chunks(replicates, pairs * p + n, rng, fill)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_graph_table_path_equals_the_engine(data):
    n = data.draw(st.integers(1, 6))
    a = data.draw(st.integers(1, n))  # ModelParams refuses a = 0 and r = 1
    r = data.draw(st.integers(2, 4))
    p = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(
        0.0, 1.0, exclude_min=True, exclude_max=True)))
    # both sides of 2^C(n, 2), where the table path starts
    graphs = 1 << n * (n - 1) // 2
    reps = data.draw(st.integers(max(1, graphs // 2), 2 * graphs))
    rng = RngSpec(data.draw(st.integers(0, 2 ** 32)), 3)
    params = ModelParams(n=n, p=p, r=r, a=a)
    np.testing.assert_array_equal(final_sizes_graph(params, reps, rng),
                                  _engine_sizes(params, reps, rng))


@pytest.mark.parametrize("n", [50, process.GRAPH_NODE_CAP])
def test_graph_sampler_answers_a_sure_final_size_without_drawing(
        n, monkeypatch):
    # p = 1 once drew all replicates * C(n, 2) slots: 40 GB at the cap
    def refuse(*args):
        raise AssertionError("a sure final size drew edge slots")
    monkeypatch.setattr(process, "_sample_edge_slots", refuse)
    for (p, r, a), want in {(0.0, 2, 3): 3, (1.0, 2, 3): n, (1.0, 4, 3): 3,
                            (0.3, 2, n): n, (0.3, n, 3): 3,
                            (0.3, n + 5, 3): 3}.items():
        sizes = final_sizes_graph(ModelParams(n=n, p=p, r=r, a=a), 4,
                                  RngSpec(0, 0))
        assert sizes.tolist() == [want] * 4


def test_graph_table_is_built_only_when_it_costs_no_more_than_the_replicates(
        monkeypatch):
    built = []
    enumerate_all = process._graph_closures
    monkeypatch.setattr(process, "_graph_closures",
                        lambda *args: built.append(args) or enumerate_all(*args))
    process._closure_table.cache_clear()  # earlier tests may have built it
    for reps in (1000, (1 << 15) - 1):  # fewer than the 2^15 graphs
        final_sizes_graph(P6, reps, RngSpec(0, 0))
    assert built == []
    final_sizes_graph(P6, 1 << 15, RngSpec(0, 0))
    assert built == [(6, 2, 2)]


def test_graph_table_is_built_once_per_instance_across_p(monkeypatch):
    built = []
    enumerate_all = process._graph_closures
    monkeypatch.setattr(process, "_graph_closures",
                        lambda *args: built.append(args) or enumerate_all(*args))
    process._closure_table.cache_clear()
    for p in (0.2, 0.4, 0.7):
        for r, a in ((2, 2), (3, 2)):
            params = ModelParams(n=6, p=p, r=r, a=a)
            sizes = final_sizes_graph(params, 1 << 15, RngSpec(0, 0))
            np.testing.assert_array_equal(
                sizes, _engine_sizes(params, 1 << 15, RngSpec(0, 0)))
    assert built == [(6, 2, 2), (6, 3, 2)]


def test_cached_closure_tables_are_read_only():
    # each cache hands one array to every call, so no caller may write it
    for table in (process._closure_table(6, 2, 2), _final_size_counts(5, 2, 2)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
def test_graph_table_path_at_n1_and_n2_raises_no_warning(n):
    for p in (0.0, 0.5, 1.0):
        params = ModelParams(n=n, p=p, r=2, a=1)
        sizes = final_sizes_graph(params, 100, RngSpec(0, 0))
        np.testing.assert_array_equal(sizes, _engine_sizes(params, 100, RngSpec(0, 0)))
        if n == 1:
            assert (sizes == 1).all()


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


def _low_degree_law(n, p, r):
    """P(D = d), d = 0..n, summed over all 2^C(n, 2) graphs on n nodes,
    D the nodes of degree < r."""
    pairs = n * (n - 1) // 2
    bits = (np.arange(1 << pairs)[:, None] >> np.arange(pairs)) & 1
    ends = np.zeros((pairs, n), dtype=np.int64)  # row s: pair s's two ends
    for end in np.triu_indices(n, k=1):
        ends[np.arange(pairs), end] = 1
    low = ((bits @ ends) < r).sum(axis=1)
    edges = bits.sum(axis=1)
    return np.bincount(low, weights=p ** edges * (1 - p) ** (pairs - edges),
                       minlength=n + 1)


@pytest.mark.parametrize("n, p, r", [
    (6, 0.05, 2),  # 2 a_c >= n: the band is the whole graph
    (6, 0.3, 2), (6, 0.5, 3), (6, 0.9, 2), (5, 0.7, 4)])
def test_low_degree_law_matches_the_enumeration(n, p, r):
    # TV to the exact law within half the summed 5-sigma Wilson half-widths
    reps = 200_000
    d = low_degree_counts(ModelParams(n=n, p=p, r=r, a=1), reps,
                          RngSpec(35, n * r))
    counts = np.bincount(d, minlength=n + 1)
    tv = np.abs(counts / reps - _low_degree_law(n, p, r)).sum() / 2
    bound = sum(hi - lo for lo, hi in (wilson_interval(int(c), reps, 5.0)
                                       for c in counts)) / 4
    assert tv <= bound, f"TV {tv:.5f} above {bound:.5f}"


def _low_degree_moments(n, p, r):
    """E D = n P1 and Var D = n P1 (1 - P1) + n (n - 1) (P2 - P1^2), with
    P1 = F(n - 1, r - 1), P2 = (1 - p) F(n - 2, r - 1)^2
    + p F(n - 2, r - 2)^2 and F(m, k) = P(Bin(m, p) <= k): two nodes are
    both low given their pair's state, each over its other n - 2 pairs."""
    def cdf(m, k):
        return math.exp(log_binom_cdf(m, p, k))
    p1 = cdf(n - 1, r - 1)
    p2 = (1 - p) * cdf(n - 2, r - 1) ** 2 + p * cdf(n - 2, r - 2) ** 2
    return n * p1, n * p1 * (1 - p1) + n * (n - 1) * (p2 - p1 ** 2)


@pytest.mark.parametrize("n, p, r", [(30, 0.1, 2), (200, 0.02, 2),
                                     (200, 0.04, 3)])
def test_low_degree_variance_matches_the_closed_form(n, p, r):
    # at n = 30 the covariance term is 2.0 of 6.8: independent degrees fail
    reps = 100_000
    d = low_degree_counts(ModelParams(n=n, p=p, r=r, a=1), reps,
                          RngSpec(35, n + r)).astype(np.float64)
    mean, var = _low_degree_moments(n, p, r)
    sq = (d - mean) ** 2
    assert abs(d.mean() - mean) <= 5 * math.sqrt(var / reps)
    assert abs(sq.mean() - var) <= 5 * sq.std() / math.sqrt(reps)


def test_low_degree_mean_at_the_criterion_4_instance():
    # about one replicate in 8000 stalls early and leaves most nodes to the
    # finish, so 40000 replicates test that path too
    params = _poisson_rule_instance(5000)
    reps = 40_000
    d = low_degree_counts(params, reps, RngSpec(35, 5000))
    mean, var = _low_degree_moments(params.n, params.p, params.r)
    assert abs(d.mean() - mean) <= 5 * math.sqrt(var / reps)


@pytest.mark.parametrize("params, share", [
    # the band is about 2 a_c / n of the pairs, and few nodes survive it
    (_poisson_rule_instance(5000), 0.1),
    # np <= 1: 2 a_c >= n, so the band is the whole graph
    (ModelParams(n=2000, p=5e-4, r=2, a=1), 1.0)])
def test_low_degree_draws_at_most_every_pair(monkeypatch, params, share):
    asked = []
    sample = process._sample_edge_slots
    monkeypatch.setattr(process, "_sample_edge_slots", lambda total, p, gen:
                        asked.append(total) or sample(total, p, gen))
    reps = 200
    low_degree_counts(params, reps, RngSpec(35, 7))
    every = reps * params.n * (params.n - 1) // 2
    assert sum(asked) <= share * every
    if share == 1.0:
        assert sum(asked) == every


def test_low_degree_counts_where_t_c_overflows_a_float():
    # the band size reads ln t_c, so p = 1e-300 needs no t_c: every pair
    # is drawn and none is present
    counts = low_degree_counts(ModelParams(n=10, p=1e-300, r=2, a=1), 5,
                               RngSpec(0, 0))
    assert (counts == 10).all()


#: the bound stated at process._BATCH_ELEMENTS: beyond its output, a
#: chunked sampler peaks below this many batch budgets of 2^18 float64
WORKING_SET_BUDGETS = 6
BATCH_BYTES = 8 * 2 ** 18


@pytest.mark.parametrize("batch, params, replicates", [
    (final_sizes_activation, _poisson_rule_instance(2000), 3000),
    # rows of one block, whose stops are read a column at a time
    (final_sizes_activation, P6, 400_000),
    # Q is near 1 over every time, so every block of every row is expanded
    (final_sizes_activation, ModelParams(n=2000, p=1e-7, r=2, a=20), 3000),
    # the survival table over 20000 times holds 99 head terms per time,
    # 16 MB if it were evaluated in one piece
    (final_sizes_activation, ModelParams(n=20_000, p=0.01, r=100, a=200), 3),
    # log Q at the leap times holds 99 head terms per chain, three times
    (final_sizes_leap, ModelParams(n=20_000, p=0.01, r=100, a=200), 6000),
    # n + 1 <= replicates: log Q is gathered from one table over 0..n
    (final_sizes_leap, _poisson_rule_instance(20_000), 30_000),
    (final_sizes_graph, _poisson_rule_instance(2000), 60),
    (low_degree_counts, _poisson_rule_instance(2000), 60),
    # the mark chain keeps O(r) counts per replicate at any n, so it takes
    # many replicates of a small instance to fill two batches; P6 leaps
    # through its alias table, and n = 40 by binomial draws
    (final_sizes_markchain, P6, 400_000),
    (final_sizes_markchain, ModelParams(n=40, p=0.15, r=2, a=4), 100_000),
], ids=["activation", "activation_one_block", "activation_every_block",
        "activation_large_r",
        "leap", "leap_table", "graph", "low_degree", "markchain",
        "markchain_leaps"])
def test_chunked_samplers_hold_a_bounded_working_set(batch, params,
                                                    replicates):
    # each case spans two or more batches of process._BATCH_ELEMENTS
    # (activation_large_r: of its survival table's head terms)
    tracemalloc.start()
    try:
        sizes = batch(params, replicates, RngSpec(3, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = (peak - sizes.nbytes) / BATCH_BYTES
    assert held < WORKING_SET_BUDGETS, f"{held:.2f} budgets"
    assert 8 * process._BATCH_ELEMENTS <= BATCH_BYTES


def test_low_degree_holds_a_bounded_working_set_over_many_chunks():
    # its band and finish batches keep to the chunk budget, so its chunks
    # run two at once; when those batches took up to a whole budget each,
    # two chunks at once held about seven budgets here
    params = ModelParams(n=100, p=0.3, r=3, a=1)
    tracemalloc.start()
    try:
        counts = low_degree_counts(params, 20_000, RngSpec(3, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(_chunk_runs(low_degree_counts, params, 20_000)) >= 3
    assert (peak - counts.nbytes) / BATCH_BYTES < WORKING_SET_BUDGETS


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
# chunks of replicates: spawned streams, run two at a time on threads

#: (batch, params, replicates) runs of three or more chunks
CHUNKED_CASES = {
    "activation-one-block": (final_sizes_activation, P6, 30_000),
    "activation-blocks": (final_sizes_activation,
                          _poisson_rule_instance(2000), 1600),
    "leap": (final_sizes_leap, _poisson_rule_instance(2000), 12_000),
    # 20 000 replicates leap through the alias table, 8 numbers per chain
    "markchain": (final_sizes_markchain, P6, 20_000),
    # 20 million table entries: binomial leaps, 12 numbers per chain
    "markchain-leaps": (final_sizes_markchain,
                        ModelParams(n=40, p=0.15, r=2, a=4), 12_000),
    "graph-table": (final_sizes_graph, P6, 40_000),
    "graph-cascade": (final_sizes_graph, ModelParams(n=30, p=0.5, r=4, a=5),
                      800),
    "low-degree": (low_degree_counts, ModelParams(n=40, p=0.1, r=2, a=1),
                   12_000),
}


def _chunk_runs(batch, params, replicates):
    """The (start, size) runs that a batch call hands _map_chunks."""
    runs, real = [], process._map_chunks

    def spy(replicates, elements, rng, fill):
        runs.extend(process._chunks(replicates, elements,
                                    process._CHUNK_ELEMENTS))
        return real(replicates, elements, rng, fill)

    process._map_chunks = spy
    try:
        batch(params, replicates, RngSpec(0, 0))
    finally:
        process._map_chunks = real
    return runs


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_a_multi_chunk_run_concatenates_one_chunk_runs(case):
    # chunk 0 draws from the caller's generator, chunk k from child k of
    # its spawn; this is how the pins of multi-chunk runs were derived
    batch, params, replicates = CHUNKED_CASES[case]
    runs = _chunk_runs(batch, params, replicates)
    assert len(runs) >= 3
    spec = RngSpec(5, 1)
    gens = [spec.generator(), *spec.generator().spawn(len(runs) - 1)]
    parts = [batch(params, size, g) for (_, size), g in zip(runs, gens)]
    np.testing.assert_array_equal(batch(params, replicates, spec),
                                  np.concatenate(parts))


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_chunked_output_does_not_depend_on_the_worker_count(case,
                                                            monkeypatch):
    batch, params, replicates = CHUNKED_CASES[case]
    outs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(process, "_worker_count",
                            lambda chunks, w=workers: min(w, chunks))
        outs.append(batch(params, replicates, RngSpec(5, 1)))
    for out in outs[1:]:
        np.testing.assert_array_equal(out, outs[0])


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(process.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert process._worker_count(10) == 1
    monkeypatch.setattr(process.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3}, raising=False)
    assert process._worker_count(10) == 2
    assert process._worker_count(1) == 1


def test_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    # a platform without sched_getaffinity, whose cpu_count may be None
    monkeypatch.delattr(process.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(process.os, "cpu_count", lambda: None)
    assert process._worker_count(10) == 1
    monkeypatch.setattr(process.os, "cpu_count", lambda: 8)
    assert process._worker_count(10) == 2


def _chunk_threads(elements, monkeypatch):
    """Thread ids of the four one-replicate chunks of a two-worker map."""
    monkeypatch.setattr(process, "_worker_count", lambda chunks: 2)
    threads = []

    def fill(size, g):
        threads.append(threading.get_ident())
        return np.zeros(size, dtype=np.int64)

    process._map_chunks(4, elements, RngSpec(0, 0).generator(), fill)
    return set(threads)


def test_chunks_run_one_at_a_time_where_a_replicate_outgrows_one(
        monkeypatch):
    here = threading.get_ident()
    assert _chunk_threads(process._CHUNK_ELEMENTS + 1, monkeypatch) == {here}
    assert here not in _chunk_threads(process._CHUNK_ELEMENTS, monkeypatch)


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_every_sampler_runs_its_chunks_off_the_calling_thread(case,
                                                             monkeypatch):
    # every fill keeps to the chunk budget, low_degree_counts's band and
    # finish batches included, so no sampler's chunks run one at a time
    batch, params, replicates = CHUNKED_CASES[case]
    monkeypatch.setattr(process, "_worker_count", lambda chunks: 2)
    threads, real = [], process._map_chunks

    def spy(replicates, elements, rng, fill):
        def traced(size, g):
            threads.append(threading.get_ident())
            return fill(size, g)
        return real(replicates, elements, rng, traced)

    monkeypatch.setattr(process, "_map_chunks", spy)
    batch(params, replicates, RngSpec(5, 1))
    assert len(threads) >= 3 and threading.get_ident() not in threads


def test_a_chunk_error_reaches_the_caller_and_its_threads_end(monkeypatch):
    class ChunkFailed(Exception):
        pass

    def fill(size, g):
        if g.bit_generator.seed_seq.spawn_key == (0,):  # chunk 1
            raise ChunkFailed
        return np.zeros(size, dtype=np.int64)

    monkeypatch.setattr(process, "_worker_count", lambda chunks: 2)
    before = threading.active_count()
    with pytest.raises(ChunkFailed):
        process._map_chunks(4, process._CHUNK_ELEMENTS,
                            RngSpec(0, 0).generator(), fill)
    assert threading.active_count() == before


def test_every_chunk_runs_once_under_many_threads(monkeypatch):
    # the workers share one queue of chunk indices; a lost update would run
    # a chunk twice or skip one.  Eight threads on a short switch interval
    monkeypatch.setattr(process, "_worker_count", lambda chunks: 8)
    runs = []

    def fill(size, g):
        runs.append(g.bit_generator.seed_seq.spawn_key)
        return np.full(size, len(g.bit_generator.seed_seq.spawn_key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = process._map_chunks(400, process._CHUNK_ELEMENTS,
                                  RngSpec(0, 0).generator(), fill)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == [(), *((k,) for k in range(399))]
    np.testing.assert_array_equal(out, [0] + [1] * 399)


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
    ("markchain", 200, 200_000), ("markchain", 500, 200_000),
    ("activation", 200, 200_000), ("activation", 500, 200_000),
    ("activation", 2000, 200_000)])
def test_leap_matches_exact_law_beyond_brute_force(sampler, n, reps):
    p = n ** -0.7
    a_c = critical_quantities(ModelParams(n=n, p=p, r=2, a=1)).a_c
    params = ModelParams(n=n, p=p, r=2, a=math.ceil(2 * a_c))
    sizes = SAMPLER_BATCHES[sampler](params, reps, RngSpec(9, n))
    assert_tv_within_noise(sizes, exact_pmf(params), n)


def _r3_instance_and_law():
    """Supercritical at r = 3 (n = 200, p = n^-0.6, a = ceil(2 a_c)):
    most replicates end with nodes at one and two marks."""
    n = 200
    p = n ** -0.6
    a_c = critical_quantities(ModelParams(n=n, p=p, r=3, a=1)).a_c
    params = ModelParams(n=n, p=p, r=3, a=math.ceil(2 * a_c))
    pmf = exact_pmf(params)
    assert sum(pmf.prob(k) for k in range(n - 4, n)) > 0.5
    return params, pmf


def test_markchain_matches_exact_law_at_r3():
    # every leap splits its non-activated nodes over the mark levels
    params, pmf = _r3_instance_and_law()
    sizes = final_sizes_markchain(params, 200_000, RngSpec(9, 3))
    assert_tv_within_noise(sizes, pmf, params.n)


#: instances whose mark chain leaps through its alias table at 10^6
#: replicates; n = 3 is test_markchain_hand_enumeration's
MARK_TABLE_INSTANCES = [
    ModelParams(n=6, p=0.4, r=2, a=2), ModelParams(n=6, p=0.5, r=3, a=3),
    ModelParams(n=7, p=0.3, r=2, a=2), ModelParams(n=7, p=0.6, r=4, a=4),
    ModelParams(n=10, p=0.2, r=2, a=3), ModelParams(n=12, p=0.15, r=2, a=2),
    ModelParams(n=3, p=0.5, r=2, a=2)]
MARK_TABLE_IDS = [f"n{q.n}-p{q.p}-r{q.r}-a{q.a}" for q in MARK_TABLE_INSTANCES]


def _mark_table_entries(params):
    """(n + 1) V^2 for the V = C(n - a + r, r) count vectors."""
    v = math.comb(params.n - params.a + params.r, params.r)
    return (params.n + 1) * v * v


@pytest.mark.parametrize("params", MARK_TABLE_INSTANCES, ids=MARK_TABLE_IDS)
def test_markchain_table_path_matches_exact_law(params):
    assert _mark_table_entries(params) <= process._BATCH_ELEMENTS
    sizes = final_sizes_markchain(params, 1_000_000, RngSpec(39, params.n))
    assert_tv_within_noise(sizes, exact_pmf(params), params.n)


@pytest.mark.parametrize("params", MARK_TABLE_INSTANCES, ids=MARK_TABLE_IDS)
def test_markchain_alias_table_carries_the_exact_law(params):
    # the table's own law, pushed through it row by row: column k of a row
    # sends chance prob / V to its own next row and 1 - prob of that to
    # the alias's (a column of chance 0 may name no row); each leap but
    # the last gains a node, so n - a + 1 leaps stop every chain
    n, a = params.n, params.a
    held, start, prob, own, other = process._mark_table(
        n, params.p, params.r, a)
    mass, law = np.zeros(prob.shape[0]), np.zeros(n + 1)
    mass[start] = 1.0
    for _ in range(n - a + 1):
        share, mass = mass[:, None] / held.size, np.zeros_like(mass)
        for rows, weight in ((own, share * prob),
                             (other, share * (1.0 - prob))):
            used = weight > 0.0
            assert (rows[used] >= 0).all()
            np.add.at(mass, rows[used], weight[used])
        np.add.at(law, n - held, mass[:held.size])
        mass[:held.size] = 0.0
    assert np.abs(mass).sum() < 1e-12
    pmf = exact_pmf(params)
    np.testing.assert_allclose(law, [pmf.prob(k) for k in range(n + 1)],
                               rtol=0.0, atol=1e-13)


def test_markchain_table_and_binomial_paths_agree():
    # below its 56 628 table entries the instance leaps by binomial draws:
    # four such runs against one table run of as many replicates
    params = ModelParams(n=12, p=0.15, r=2, a=2)
    entries = _mark_table_entries(params)
    leaps = np.concatenate([final_sizes_markchain(params, entries - 1,
                                                  RngSpec(39, k))
                            for k in range(4)])
    table = final_sizes_markchain(params, leaps.size, RngSpec(39, 4))
    counts = np.array([np.bincount(x, minlength=params.n + 1)
                       for x in (leaps, table)])
    counts = counts[:, counts.sum(axis=0) >= 20]
    assert counts.shape[1] >= 8
    assert chi2_contingency(counts).pvalue > 1e-3


def test_markchain_takes_the_table_up_to_its_entries(monkeypatch):
    # the rule (n + 1) V^2 <= min(replicates, budget), at its boundary on
    # either side of the min
    built, real = [], process._mark_table
    monkeypatch.setattr(process, "_mark_table",
                        lambda *args: built.append(args) or real(*args))
    entries = _mark_table_entries(P6)
    assert entries == 1575
    for replicates, budget, table in [
            (entries, process._BATCH_ELEMENTS, True),
            (entries - 1, process._BATCH_ELEMENTS, False),
            (10 ** 4, entries, True), (10 ** 4, entries - 1, False)]:
        built.clear()
        monkeypatch.setattr(process, "_BATCH_ELEMENTS", budget)
        sizes = final_sizes_markchain(P6, replicates, RngSpec(0, 0))
        assert len(built) == table and sizes.size == replicates
    monkeypatch.undo()

    # V >= n - a + r: above the root of the budget the rule computes no
    # C(n - a + r, r), which takes long for a large r
    def refuse(*args):
        raise AssertionError(f"math.comb{args}")

    monkeypatch.setattr(process.math, "comb", refuse)
    params = ModelParams(n=1000, p=0.002, r=2, a=10)
    sizes = final_sizes_markchain(params, 1000, RngSpec(0, 0))
    assert ((10 <= sizes) & (sizes <= 1000)).all()


def test_activation_matches_exact_law_at_r3():
    # the survival table holds two head terms per time at r = 3
    params, pmf = _r3_instance_and_law()
    sizes = final_sizes_activation(params, 200_000, RngSpec(10, 3))
    assert_tv_within_noise(sizes, pmf, params.n)


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
    # the leap sampler's own stage, from the origin to level 0, where
    # tau = n - 1 leaves the chains that reach n uncrossed; r = 12 sums
    # eleven head terms per time in numpy's pairwise loop
    (ModelParams(n=200, p=200 ** -0.6, r=3, a=16), 0, 0, 0, 199, 5000),
    (ModelParams(n=3000, p=3000 ** -0.4, r=12, a=112), 0, 0, 0, 2999, 5000),
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


def _exact_law_instance(n, r=2, beta=0.7):
    """p = n^-beta, a = ceil(2 a_c): the instances the exact law checks."""
    p = n ** -beta
    a_c = critical_quantities(ModelParams(n=n, p=p, r=r, a=1)).a_c
    return ModelParams(n=n, p=p, r=r, a=math.ceil(2 * a_c))


def _leap_stage():
    """One splitting stage at the criterion-9 instance: 20000 chains from
    the origin down to margin level 4, tau = floor(3 a_c) < n, gathering
    log Q from the table over 0..tau."""
    params = _exact_law_instance(500)
    tau = math.floor(3 * critical_quantities(params).a_c)
    origin = np.zeros(20_000, dtype=np.int64)
    crossed, t, s = _leap_to_level(
        params, origin, origin, 4, tau, RngSpec(27, 5).generator(),
        log_cdf_head(np.arange(tau + 1), params.p, 1).take)
    return np.concatenate([crossed.astype(np.int64), t, s])


#: outputs of the margin-leaping kernel, through the leap sampler (log Q
#: gathered from a table over 0..n, or evaluated at the leap times where
#: the table would be longer than the run or the batch budget) and through
#: one splitting stage
LEAP_CASES = {
    "table-n500": lambda: final_sizes_leap(
        _exact_law_instance(500), 20_000, RngSpec(27, 0)),
    "table-n5000": lambda: final_sizes_leap(
        _poisson_rule_instance(5000), 20_000, RngSpec(27, 1)),
    "table-r3": lambda: final_sizes_leap(
        _exact_law_instance(200, r=3, beta=0.6), 20_000, RngSpec(27, 2)),
    "eval-few-replicates": lambda: final_sizes_leap(
        _poisson_rule_instance(5000), 2000, RngSpec(27, 3)),
    "eval-over-budget": lambda: final_sizes_leap(
        _poisson_rule_instance(2 ** 18), 2 ** 18 + 1, RngSpec(27, 4)),
    "stage-tau-below-n": _leap_stage,
}

#: sha256 of each case's int64 output (crossed, t and s end to end for
#: the stage), computed before the leap kernel was cut to fewer numpy
#: calls per leap and the leap sampler learnt to gather from a table;
#: the table-* and eval-over-budget runs span more than one chunk and
#: were retaken when chunks came to draw from spawned streams
LEAP_SHA256 = {
    "table-n500":
        "ed0676ac01033b9d4c8cf39a984487b457f6036a800316e075397c2585ee356c",
    "table-n5000":
        "3f8072a21e304349c7e030081c3bf0fe86c863b7cadbde0ec2e2313a14a57333",
    "table-r3":
        "272858770c84b52d436a25bbcee50c3aadaa3a790d21b361d15fd7c8ff3e2bb3",
    "eval-few-replicates":
        "7ac920992e5017e08b2fb9c232820ee69be52a049dbbc8111d633df267749f1c",
    "eval-over-budget":
        "db1d5759c40a8f01d8bf3452c8091b86b02c4807b59c54c28ddce653153f0724",
    "stage-tau-below-n":
        "d5ae77b1962b66a38b96515bb50836d7981acb38c2df8a678bf3f2757f1cef23",
}


@pytest.mark.parametrize("case", sorted(LEAP_SHA256))
def test_leap_kernel_output_is_pinned_bit_for_bit(case):
    out = np.ascontiguousarray(LEAP_CASES[case](), dtype=np.int64)
    assert hashlib.sha256(out.tobytes()).hexdigest() == LEAP_SHA256[case]


def test_leap_sampler_gathers_from_one_table_when_it_is_short(monkeypatch):
    # a table over 0..n costs n + 1 head evaluations and a run at least
    # one per replicate, so up to n + 1 = replicates (within the batch
    # budget) one fill replaces the evaluations at the leap times
    calls = []

    def counted(m, q, k):
        calls.append(np.size(m))
        return log_cdf_head(m, q, k)

    monkeypatch.setattr(process, "log_cdf_head", counted)
    final_sizes_leap(_exact_law_instance(500), 20_000, RngSpec(27, 0))
    assert calls == [501]
    calls.clear()
    # n + 1 > replicates: evaluated at the leap times, once on entry and
    # once per leap, 18 times for this run
    final_sizes_leap(_poisson_rule_instance(5000), 2000, RngSpec(27, 3))
    assert len(calls) == 18 and calls[0] == 2000


#: outputs of the mark chain: table-n6 leaps through its alias table
#: (1575 entries), and the others by binomial draws, with the leap chances
#: gathered from one table over 0..n (n + 1 within the replicates and the
#: batch budget over 2r) or evaluated at the margins of every leap
MARKCHAIN_CASES = {
    "table-n6": lambda: final_sizes_markchain(P6, 100_000, RngSpec(29, 0)),
    "eval-n5000": lambda: final_sizes_markchain(
        _poisson_rule_instance(5000), 2000, RngSpec(29, 1)),
    "table-r3": lambda: final_sizes_markchain(
        _exact_law_instance(200, r=3, beta=0.6), 20_000, RngSpec(29, 2)),
}

#: sha256 of each case's int64 output, computed before the mark chain
#: built its leap-chance table once per run; table-n6 and table-r3 span
#: more than one chunk and were retaken when chunks came to draw from
#: spawned streams, and table-n6 again when small instances came to leap
#: through the alias table
MARKCHAIN_SHA256 = {
    "table-n6":
        "3dcff2560a020f52d7edae923568e98f23c3da575b121481acd188b74bc1356b",
    "eval-n5000":
        "025f4ce587336663d9c9f2f43c90399922f7988451d55e3dd592e41c02db0319",
    "table-r3":
        "9ccca8d35e135eed3be75a2673b2aeaf71de56bac54411af2c64fbba18956f7c",
}


@pytest.mark.parametrize("case", sorted(MARKCHAIN_SHA256))
def test_markchain_output_is_pinned_bit_for_bit(case):
    out = np.ascontiguousarray(MARKCHAIN_CASES[case](), dtype=np.int64)
    assert hashlib.sha256(out.tobytes()).hexdigest() == MARKCHAIN_SHA256[case]


def test_markchain_builds_its_leap_chances_once_when_the_table_is_short(
        monkeypatch):
    calls, leap_chances = [], process._leap_chances

    def counted(margin, p, r):
        calls.append(np.size(margin))
        return leap_chances(margin, p, r)

    monkeypatch.setattr(process, "_leap_chances", counted)
    MARKCHAIN_CASES["table-n6"]()
    assert calls == [5]  # the margins 0..max(a, n - a) of the alias table
    calls.clear()
    # n + 1 > replicates: one evaluation per leap, over the live margins
    MARKCHAIN_CASES["eval-n5000"]()
    assert len(calls) > 1 and calls[0] == 2000
