import math

import numpy as np
import pytest
from scipy.stats import chi2

from bootperc._binom import log_binom_cdf
from bootperc.core import ModelParams
from bootperc.errors import MemoryGuardError, ParameterError
from bootperc.oracle import brute_force_pmf
from bootperc.process import (SAMPLER_BATCHES, RngSpec, count_low_degree,
                              final_size_from_edge_uniforms,
                              final_sizes_activation, final_sizes_markchain,
                              histogram,
                              low_degree_counts, sample_activation_times,
                              sample_graph, sample_graph_with_low_degree,
                              sample_markchain, _rth_success_times)

P6 = ModelParams(n=6, p=0.4, r=2, a=2)


def empirical_pmf(sizes, n):
    return np.bincount(sizes, minlength=n + 1) / len(sizes)


# ---------------------------------------------------------------------------
# degenerate anchors

@pytest.mark.parametrize("batch", SAMPLER_BATCHES.values(),
                         ids=SAMPLER_BATCHES.keys())
def test_p_zero_keeps_only_seeds(batch):
    sizes = batch(ModelParams(n=6, p=0.0, r=2, a=3), 50, RngSpec(0, 0))
    assert (sizes == 3).all()


@pytest.mark.parametrize("batch", SAMPLER_BATCHES.values(),
                         ids=SAMPLER_BATCHES.keys())
def test_p_one_percolates_when_seeds_reach_threshold(batch):
    sizes = batch(ModelParams(n=7, p=1.0, r=2, a=2), 50, RngSpec(0, 0))
    assert (sizes == 7).all()


@pytest.mark.parametrize("batch", SAMPLER_BATCHES.values(),
                         ids=SAMPLER_BATCHES.keys())
@pytest.mark.parametrize("replicates", [0, -3])
def test_batches_reject_nonpositive_replicates(batch, replicates):
    with pytest.raises(ParameterError, match="replicates"):
        batch(P6, replicates, RngSpec(0, 0))


def test_all_seeded_stops_at_n():
    out = sample_markchain(ModelParams(n=4, p=0.5, r=2, a=4), RngSpec(0, 0))
    assert out.final_size == 4 and out.stop_time == 4
    assert out.trajectory == (4, 4, 4, 4, 4)


def test_markchain_hand_enumeration():
    # node 3 activates iff both seed edges are present: P(A* = 3) = p^2
    sizes = final_sizes_markchain(ModelParams(n=3, p=0.5, r=2, a=2),
                                  40_000, RngSpec(21, 0))
    frac = (sizes == 3).mean()
    assert frac == pytest.approx(0.25, abs=0.01)


def test_rth_success_times_match_activation_law():
    gen = RngSpec(5, 0).generator()
    y = _rth_success_times(200_000, 2, 0.5, gen)
    assert (y <= 2).mean() == pytest.approx(0.25, abs=0.005)


# ---------------------------------------------------------------------------
# invariants

def test_stop_time_equals_final_size_and_bounds():
    params = ModelParams(n=40, p=0.08, r=2, a=3)
    for sampler in (sample_graph, sample_markchain, sample_activation_times):
        for stream in range(30):
            out = sampler(params, RngSpec(11, stream))
            assert out.stop_time == out.final_size
            assert params.a <= out.final_size <= params.n


def test_trajectory_stays_above_the_clock():
    out = sample_markchain(ModelParams(n=50, p=0.12, r=2, a=4), RngSpec(3, 2))
    for t in range(out.stop_time):
        assert out.trajectory[t] > t
    assert out.trajectory[out.stop_time] == out.stop_time


def test_deterministic_given_seed_and_stream():
    for batch in SAMPLER_BATCHES.values():
        a = batch(P6, 500, RngSpec(42, 7))
        b = batch(P6, 500, RngSpec(42, 7))
        assert np.array_equal(a, b)
    c = batch(P6, 500, RngSpec(42, 8))
    assert not np.array_equal(a, c)


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
    params = ModelParams(n=50, p=0.1, r=2, a=5)
    for stream in range(300):
        out, _, d_nonseed = sample_graph_with_low_degree(params, RngSpec(23, stream))
        assert params.n - out.final_size >= d_nonseed


def test_low_degree_trivial_values():
    assert count_low_degree(ModelParams(n=10, p=0.0, r=2, a=1), RngSpec(0, 0)) == 10
    assert count_low_degree(ModelParams(n=10, p=1.0, r=2, a=1), RngSpec(0, 0)) == 0


def test_low_degree_mean_matches_binomial():
    params = ModelParams(n=1000, p=0.005, r=2, a=1)
    counts = low_degree_counts(params, 20_000, RngSpec(8, 0))
    expected = 1000 * math.exp(log_binom_cdf(999, 0.005, 1))
    assert counts.mean() == pytest.approx(expected, rel=0.02)


def test_memory_guard():
    big = ModelParams(n=200_000, p=1e-5, r=2, a=10)
    with pytest.raises(MemoryGuardError):
        sample_graph(big, RngSpec(0, 0))
    with pytest.raises(MemoryGuardError):
        count_low_degree(big, RngSpec(0, 0))
    # other samplers have no such cap
    final_sizes_activation(big, 1, RngSpec(0, 0))


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


def test_graph_generations_counter():
    out = sample_graph(ModelParams(n=7, p=1.0, r=2, a=2), RngSpec(0, 0))
    assert out.generations == 1
    out = sample_graph(ModelParams(n=7, p=0.0, r=2, a=2), RngSpec(0, 0))
    assert out.generations == 0


def test_histogram_helper():
    assert histogram(np.array([2, 2, 3])) == {2: 2, 3: 1}
