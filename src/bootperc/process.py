"""Four distribution-equivalent samplers of the percolation outcome.

* graph sampler: draws a batch of G(n, p) graphs as one disjoint union and
  runs one synchronous-generation cascade on its edge list (the same
  engine runs ``oracle.brute_force_pmf`` and the coupled edge-uniform
  cascade);
* mark chain: one active node is used per time step and sends Bernoulli(p)
  marks to the inactive nodes; a node activates at its r-th mark;
* activation times: each non-seed node gets an i.i.d. r-th-success time
  Y_i, and the stop time is read off the order statistics in one sweep;
* leap: the count chain S(t) jumps over every stretch where it cannot
  stop, so a replicate costs a few dozen binomial draws at any n; the
  naive, rate-study and Poisson-limit estimators in montecarlo use it,
  and the splitting stages run its kernel down to each margin level.
  The kernel reads log Q(t) = log P(Bin(t, p) <= r - 1) through a lookup
  its caller supplies: the splitting estimator gathers from one table
  over 0..tau, while the sampler (tau = n) evaluates log_cdf_head at the
  leap times, since a table over 0..n would cost O(n) time and memory.

All randomness flows through an RngSpec (seed, stream), so a replicate is
reproducible bit-for-bit within one build.  Geometric variables are drawn
by inversion of a single uniform, which makes coupling in p monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ._binom import log_cdf_head
from .core import ModelParams
from .errors import MemoryGuardError, ParameterError

__all__ = [
    "RngSpec", "final_sizes_graph", "final_sizes_markchain",
    "final_sizes_activation", "final_sizes_leap", "low_degree_counts",
    "final_size_from_edge_uniforms", "GRAPH_NODE_CAP", "ACTIVATION_NODE_CAP",
]

#: the graph sampler refuses instances above this node count
GRAPH_NODE_CAP = 100_000
#: the activation-time sampler refuses rows of more non-seed nodes (80 MB)
ACTIVATION_NODE_CAP = 10_000_000

_BATCH_ELEMENTS = 8_000_000  # target elements per internal numpy batch


@dataclass(frozen=True)
class RngSpec:
    """(seed, stream) pair that fully determines one replicate's randomness."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v < 2 ** 64:
                raise ParameterError(f"{name} must be an integer in [0, 2^64)")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, self.stream))))


def _check_replicates(replicates: int) -> None:
    if replicates < 1:
        raise ParameterError("replicates must be >= 1")


def _chunks(replicates: int, elements_per_replicate):
    """Yield (start, size) runs of replicates holding about
    _BATCH_ELEMENTS array elements each (at least one replicate)."""
    chunk = max(1, int(_BATCH_ELEMENTS / max(1.0, elements_per_replicate)))
    for start in range(0, replicates, chunk):
        yield start, min(chunk, replicates - start)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ParameterError("rng must be an RngSpec or a numpy Generator")


# ---------------------------------------------------------------------------
# geometric / r-th-success machinery

def _geometric_inverse(u: np.ndarray, p: float) -> np.ndarray:
    """Trials-to-first-success from uniforms via inversion; support {1,2,...}.

    Monotone nonincreasing in p for fixed u.  p = 0 gives +inf, p = 1
    gives 1.
    """
    if p == 0.0:
        return np.full(u.shape, np.inf)
    if p == 1.0:
        return np.ones(u.shape)
    # subnormal p overflows to an infinite time, which is the right answer
    with np.errstate(over="ignore"):
        return 1.0 + np.floor(np.log1p(-u) / math.log1p(-p))


def _rth_success_times(shape, r: int, p: float,
                       gen: np.random.Generator) -> np.ndarray:
    """Trials to the r-th success, one per entry of an array of `shape`."""
    y = np.zeros(shape)
    with np.errstate(over="ignore"):
        for _ in range(r):
            y += _geometric_inverse(gen.random(shape), p)
    return y


# ---------------------------------------------------------------------------
# activation-time sampler

def _stop_from_sorted_times(y_sorted: np.ndarray, n: int, a: int) -> np.ndarray:
    """First t with a + #{Y_i <= t} <= t, per row of sorted times.

    With S(t) = k exactly on [y_(k), y_(k+1)), the earliest admissible t
    at level k is max(a + k, y_(k)); the stop time is the first level
    whose candidate precedes y_(k+1).  Always <= n because S(n) <= n - a.
    """
    reps, m = y_sorted.shape
    pad = np.concatenate([
        np.zeros((reps, 1)), y_sorted, np.full((reps, 1), np.inf)], axis=1)
    cand = np.maximum(float(a) + np.arange(m + 1), pad[:, :m + 1])
    valid = cand < pad[:, 1:]
    k_star = np.argmax(valid, axis=1)
    return cand[np.arange(reps), k_star].astype(np.int64)


def final_sizes_activation(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the activation-time sampler."""
    _check_replicates(replicates)
    n, p, r, a = params.n, params.p, params.r, params.a
    m = n - a
    if m > ACTIVATION_NODE_CAP:
        raise MemoryGuardError(
            f"activation-time sampler refuses n - a = {m} above the cap "
            f"{ACTIVATION_NODE_CAP}; use the leap sampler instead")
    gen = _as_generator(rng)
    if m == 0:
        return np.full(replicates, n, dtype=np.int64)
    out = np.empty(replicates, dtype=np.int64)
    for start, size in _chunks(replicates, m):
        y = _rth_success_times((size, m), r, p, gen)
        y.sort(axis=1)
        out[start:start + size] = _stop_from_sorted_times(y, n, a)
    return out


def _leap_to_level(params: ModelParams, t: np.ndarray, s: np.ndarray,
                   level: int, tau: int, gen: np.random.Generator,
                   log_q: Callable[[np.ndarray], np.ndarray]):
    """Advance count chains from states (t, S) until the margin
    M = a + S - t first falls to `level`, or until time tau.

    S never decreases, so from margin M > level a chain cannot reach the
    level before t + (M - level).  The L = min(M - level, tau - t) steps
    are one draw: each of the n - a - S inactive nodes stays inactive with
    chance Q(t + L) / Q(t), Q(t) = P(Bin(t, p) <= r - 1).  A leap that
    activates no node lands exactly on the level; any other leaves the
    margin above it.  Exact in law.  `log_q` maps an array of times
    t <= tau to log Q(t): a gather from a table over 0..tau, or
    log_cdf_head itself where tau is too large to tabulate.  Returns
    (crossed, t, s): crossed chains sit at their crossing state, the
    others at time tau.
    """
    n, a = params.n, params.a
    t = np.array(t, dtype=np.int64)
    s = np.array(s, dtype=np.int64)
    crossed = a + s - t <= level
    idx = np.flatnonzero(~crossed & (t < tau))
    s_i, log_q_i = s[idx], log_q(t[idx])
    # Q(t) = 0 leaves nobody inactive; fmin maps its NaN to 0
    with np.errstate(invalid="ignore"):
        while idx.size:
            t_next = np.minimum(a + s_i - level, tau)
            log_q_next = log_q(t_next)
            log_stay = np.fmin(log_q_next - log_q_i, 0.0)
            s_i = s_i + gen.binomial(n - a - s_i, -np.expm1(log_stay))
            t[idx], s[idx] = t_next, s_i
            hit = a + s_i - t_next <= level
            crossed[idx[hit]] = True
            keep = ~hit & (t_next < tau)
            idx, s_i, log_q_i = idx[keep], s_i[keep], log_q_next[keep]
    return crossed, t, s


def final_sizes_leap(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the margin-leaping count chain: every
    replicate runs from (0, 0) until its margin falls to 0, which is the
    stop time T = A*; a few dozen leaps at any n.  Here tau = n, so log Q
    is evaluated at the leap times rather than tabulated over 0..n."""
    _check_replicates(replicates)
    p, k = params.p, params.r - 1
    start = np.zeros(replicates, dtype=np.int64)
    return _leap_to_level(params, start, start, 0, params.n,
                          _as_generator(rng),
                          lambda t: log_cdf_head(t, p, k))[1]


# ---------------------------------------------------------------------------
# mark-chain sampler

def final_sizes_markchain(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the used-node reformulation."""
    _check_replicates(replicates)
    gen = _as_generator(rng)
    n, p, r, a = params.n, params.p, params.r, params.a
    out = np.empty(replicates, dtype=np.int64)
    for start, size in _chunks(replicates, n):
        counts = np.zeros((size, r), dtype=np.int64)  # inactive, by marks
        counts[:, 0] = n - a
        active = np.full(size, a, dtype=np.int64)
        alive = np.ones(size, dtype=bool)
        t = 0
        while alive.any():
            t += 1
            gate = alive.astype(np.int64)
            promoted = gen.binomial(counts[:, r - 1] * gate, p)
            # top level first so one mark cannot move a node twice in a step
            for j in range(r - 2, -1, -1):
                moved = gen.binomial(counts[:, j] * gate, p)
                counts[:, j] -= moved
                counts[:, j + 1] += moved
            counts[:, r - 1] -= promoted
            active += promoted
            alive &= active > t
        out[start:start + size] = active
    return out


# ---------------------------------------------------------------------------
# graph sampler: draw a batch of graphs as one disjoint union, then run one
# synchronous-generation cascade on its edge list

def _sample_edge_slots(total_slots: int, p: float,
                       gen: np.random.Generator) -> np.ndarray:
    """Indices of occupied slots among `total_slots` Bernoulli(p) slots,
    by cumulative geometric gaps (equivalent to per-slot coin flips)."""
    if p == 0.0 or total_slots == 0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(total_slots, dtype=np.int64)
    positions = []
    base = 0
    mean_gap = 1.0 / p
    while base < total_slots:
        want = max(64, int((total_slots - base) / mean_gap * 1.2) + 16)
        gaps = _geometric_inverse(gen.random(want), p)
        pos = base + np.cumsum(gaps) - 1
        keep = pos[pos < total_slots]
        positions.append(keep.astype(np.int64))
        if len(keep) < len(pos):
            break
        base = int(pos[-1]) + 1
    return np.concatenate(positions) if positions else np.empty(0, dtype=np.int64)


def _slot_pairs(slots: np.ndarray, n: int):
    """Edge ends (u, v) of slot indices: slot k * C(n, 2) + s is the s-th
    pair i < j (row-major) of replicate k, whose node i is k * n + i."""
    pairs = n * (n - 1) // 2
    rep, local = np.divmod(slots, pairs)
    i = np.arange(n, dtype=np.int64)
    offsets = i * (2 * n - i - 1) // 2
    u = np.searchsorted(offsets, local, side="right") - 1
    v = local - offsets[u] + u + 1
    return rep * n + u, rep * n + v


def _draw_graphs(params: ModelParams, replicates: int, gen: np.random.Generator):
    """Yield (start, size, u, v) per chunk of replicates: the edges of
    `size` independent draws of G(n, p) as one disjoint union."""
    n, p = params.n, params.p
    pairs = n * (n - 1) // 2
    for start, size in _chunks(replicates, pairs * p + n):
        yield (start, size,
               *_slot_pairs(_sample_edge_slots(size * pairs, p, gen), n))


def _vector_cascade_sizes(u: np.ndarray, v: np.ndarray, reps: int,
                          n: int, r: int, a: int):
    """Cascade on `reps` disjoint graphs of n nodes (node i of replicate k
    is k * n + i, seeds i < a); each generation every node activated in
    the last one sends one mark along each edge, and an inactive node
    with r marks activates.  Returns the per-replicate final sizes."""
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    fresh = np.tile(np.arange(n) < a, reps)
    active = fresh.copy()
    marks = np.zeros(reps * n, dtype=np.int64)
    while fresh.any():
        marks += np.bincount(dst[fresh[src]], minlength=reps * n)
        fresh = ~active & (marks >= r)
        active |= fresh
    return active.reshape(reps, n).sum(axis=1, dtype=np.int64)


def _check_graph_cap(n: int) -> None:
    if n > GRAPH_NODE_CAP:
        raise MemoryGuardError(
            f"graph sampler refuses n = {n} above the cap {GRAPH_NODE_CAP}; "
            "use the leap, mark-chain or activation-time sampler instead")


def low_degree_counts(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of D_n draws (nodes of degree < r in G(n, p))."""
    _check_replicates(replicates)
    _check_graph_cap(params.n)
    gen = _as_generator(rng)
    n = params.n
    out = np.empty(replicates, dtype=np.int64)
    for start, size, u, v in _draw_graphs(params, replicates, gen):
        deg = np.bincount(u, minlength=size * n) \
            + np.bincount(v, minlength=size * n)
        out[start:start + size] = (deg.reshape(size, n) < params.r).sum(axis=1)
    return out


def final_sizes_graph(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the graph sampler: draw G(n, p), seed
    nodes {1..a}, iterate generations to the fixpoint.

    Seeds are fixed rather than resampled uniformly: by node
    exchangeability the law of the final size is the same, and one
    randomness source less keeps coupling tests simple.
    """
    _check_replicates(replicates)
    _check_graph_cap(params.n)
    gen = _as_generator(rng)
    n, r, a = params.n, params.r, params.a
    out = np.empty(replicates, dtype=np.int64)
    for start, size, u, v in _draw_graphs(params, replicates, gen):
        out[start:start + size] = _vector_cascade_sizes(u, v, size, n, r, a)
    return out


def final_size_from_edge_uniforms(n: int, r: int, a: int,
                                  uniforms: np.ndarray, p: float) -> int:
    """Cascade final size with edges {u_e < p}; shared uniforms couple
    different p values monotonically on one graph."""
    if uniforms.shape != (n * (n - 1) // 2,):
        raise ParameterError("need one uniform per node pair")
    u, v = _slot_pairs(np.flatnonzero(uniforms < p), n)
    return int(_vector_cascade_sizes(u, v, 1, n, r, a)[0])


SAMPLER_BATCHES = {
    "graph": final_sizes_graph,
    "markchain": final_sizes_markchain,
    "activation": final_sizes_activation,
    "leap": final_sizes_leap,
}


def histogram(final_sizes: Iterable[int]) -> dict:
    """Counts of A* values, keys sorted ascending."""
    arr = np.asarray(list(final_sizes) if not isinstance(final_sizes, np.ndarray)
                     else final_sizes, dtype=np.int64)
    values, counts = np.unique(arr, return_counts=True)
    return {int(k): int(c) for k, c in zip(values, counts)}
