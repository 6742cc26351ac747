"""Three distribution-equivalent samplers of the percolation outcome.

* graph sampler: draws G(n, p) and iterates activation generations;
* mark chain: one active node is used per time step and sends Bernoulli(p)
  marks to the inactive nodes; a node activates at its r-th mark;
* activation times: each non-seed node gets an i.i.d. r-th-success time
  Y_i, and the stop time is read off the order statistics in one sweep.

All randomness flows through an RngSpec (seed, stream), so a replicate is
reproducible bit-for-bit within one build.  Geometric variables are drawn
by inversion of a single uniform, which makes coupling in p monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ModelParams
from .errors import MemoryGuardError, ParameterError

__all__ = [
    "RngSpec", "PercolationOutcome",
    "sample_graph", "sample_markchain", "sample_activation_times",
    "count_low_degree",
    "final_sizes_graph", "final_sizes_markchain", "final_sizes_activation",
    "low_degree_counts", "final_size_from_edge_uniforms",
    "DENSE_NODE_LIMIT", "GRAPH_NODE_CAP",
]

#: bitset adjacency below this node count, sampled edge lists above
DENSE_NODE_LIMIT = 10_000
#: the graph sampler refuses instances above this node count
GRAPH_NODE_CAP = 100_000

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


@dataclass(frozen=True)
class PercolationOutcome:
    """Final size A*, stop time T = A*, and optional extras.

    The trajectory, when present, lists A(t) for t = 0..T; the generations
    count is produced by the graph sampler only.
    """

    final_size: int
    stop_time: int
    trajectory: tuple | None = None
    generations: int | None = None


def _check_replicates(replicates: int) -> None:
    if replicates < 1:
        raise ParameterError("replicates must be >= 1")


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
    return 1.0 + np.floor(np.log1p(-u) / math.log1p(-p))


def _rth_success_times(count: int, r: int, p: float,
                       gen: np.random.Generator) -> np.ndarray:
    y = np.zeros(count)
    for _ in range(r):
        y += _geometric_inverse(gen.random(count), p)
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
    gen = _as_generator(rng)
    n, p, r, a = params.n, params.p, params.r, params.a
    m = n - a
    if m == 0:
        return np.full(replicates, n, dtype=np.int64)
    out = np.empty(replicates, dtype=np.int64)
    chunk = max(1, _BATCH_ELEMENTS // max(1, m))
    done = 0
    while done < replicates:
        size = min(chunk, replicates - done)
        y = np.zeros((size, m))
        for _ in range(r):
            y += _geometric_inverse(gen.random((size, m)), p)
        y.sort(axis=1)
        out[done:done + size] = _stop_from_sorted_times(y, n, a)
        done += size
    return out


def sample_activation_times(params: ModelParams, rng) -> PercolationOutcome:
    t = int(final_sizes_activation(params, 1, rng)[0])
    return PercolationOutcome(final_size=t, stop_time=t)


# ---------------------------------------------------------------------------
# mark-chain sampler

def sample_markchain(params: ModelParams, rng) -> PercolationOutcome:
    """One replicate of the used-node reformulation, with trajectory."""
    gen = _as_generator(rng)
    n, p, r, a = params.n, params.p, params.r, params.a
    counts = [n - a] + [0] * (r - 1)  # inactive nodes by accumulated marks
    active = a
    t = 0
    traj = [a]
    while active > t:
        t += 1
        promoted = int(gen.binomial(counts[r - 1], p)) if counts[r - 1] else 0
        # top level first so one mark cannot move a node twice in a step
        for j in range(r - 2, -1, -1):
            moved = int(gen.binomial(counts[j], p)) if counts[j] else 0
            counts[j] -= moved
            counts[j + 1] += moved
        counts[r - 1] -= promoted
        active += promoted
        traj.append(active)
    return PercolationOutcome(final_size=active, stop_time=t,
                              trajectory=tuple(traj))


def final_sizes_markchain(params: ModelParams, replicates: int, rng) -> np.ndarray:
    _check_replicates(replicates)
    gen = _as_generator(rng)
    n, p, r, a = params.n, params.p, params.r, params.a
    out = np.empty(replicates, dtype=np.int64)
    chunk = max(1, _BATCH_ELEMENTS // max(1, n))
    done = 0
    while done < replicates:
        size = min(chunk, replicates - done)
        counts = np.zeros((size, r), dtype=np.int64)
        counts[:, 0] = n - a
        active = np.full(size, a, dtype=np.int64)
        alive = np.ones(size, dtype=bool)
        t = 0
        while alive.any():
            t += 1
            gate = alive.astype(np.int64)
            promoted = gen.binomial(counts[:, r - 1] * gate, p)
            for j in range(r - 2, -1, -1):
                moved = gen.binomial(counts[:, j] * gate, p)
                counts[:, j] -= moved
                counts[:, j + 1] += moved
            counts[:, r - 1] -= promoted
            active += promoted
            alive &= active > t
        out[done:done + size] = active
        done += size
    return out


# ---------------------------------------------------------------------------
# graph sampler

def _triangular_offsets(n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.int64)
    return i * (2 * n - i - 1) // 2


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


def _sample_edges(n: int, p: float, gen: np.random.Generator):
    slots = _sample_edge_slots(n * (n - 1) // 2, p, gen)
    offsets = _triangular_offsets(n)
    u = np.searchsorted(offsets, slots, side="right") - 1
    v = slots - offsets[u] + u + 1
    return u.astype(np.int64), v.astype(np.int64)


def _cascade_edges(n: int, r: int, a: int, u: np.ndarray, v: np.ndarray):
    """Generation sweeps on an edge list; returns (final_size, generations)."""
    ends = np.concatenate([u, v])
    peers = np.concatenate([v, u])
    order = np.argsort(ends, kind="stable")
    ends, peers = ends[order], peers[order]
    indptr = np.searchsorted(ends, np.arange(n + 1))

    active = np.zeros(n, dtype=bool)
    active[:a] = True
    marks = np.zeros(n, dtype=np.int64)
    frontier = np.arange(a)
    generations = 0
    while frontier.size:
        touched = np.concatenate(
            [peers[indptr[i]:indptr[i + 1]] for i in frontier]
        ) if frontier.size else np.empty(0, dtype=np.int64)
        np.add.at(marks, touched, 1)
        newly = np.nonzero(~active & (marks >= r))[0]
        if newly.size == 0:
            break
        generations += 1
        active[newly] = True
        frontier = newly
    return int(active.sum()), generations


def _cascade_bitset(n: int, r: int, a: int, u: np.ndarray, v: np.ndarray):
    """Same cascade on python-int adjacency bitsets (dense storage)."""
    adj = [0] * n
    for i, j in zip(u.tolist(), v.tolist()):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    active_bits = (1 << a) - 1
    inactive = list(range(a, n))
    generations = 0
    while True:
        newly = [i for i in inactive
                 if (adj[i] & active_bits).bit_count() >= r]
        if not newly:
            break
        generations += 1
        for i in newly:
            active_bits |= 1 << i
        newset = set(newly)
        inactive = [i for i in inactive if i not in newset]
    return active_bits.bit_count(), generations


def _check_graph_cap(n: int, cap: int) -> None:
    if n > cap:
        raise MemoryGuardError(
            f"graph sampler refuses n = {n} above the cap {cap}; "
            "use the mark-chain or activation-time sampler instead")


def sample_graph(params: ModelParams, rng, cap: int = GRAPH_NODE_CAP) -> PercolationOutcome:
    """Draw G(n, p), seed nodes {1..a}, iterate generations to the fixpoint.

    Seeds are fixed rather than resampled uniformly: by node
    exchangeability the law of the final size is the same, and one
    randomness source less keeps coupling tests simple.
    """
    _check_graph_cap(params.n, cap)
    gen = _as_generator(rng)
    u, v = _sample_edges(params.n, params.p, gen)
    if params.n <= DENSE_NODE_LIMIT:
        final, generations = _cascade_bitset(params.n, params.r, params.a, u, v)
    else:
        final, generations = _cascade_edges(params.n, params.r, params.a, u, v)
    return PercolationOutcome(final_size=final, stop_time=final,
                              generations=generations)


def count_low_degree(params: ModelParams, rng, cap: int = GRAPH_NODE_CAP) -> int:
    """Number of nodes of degree < r in one draw of G(n, p)."""
    _check_graph_cap(params.n, cap)
    gen = _as_generator(rng)
    u, v = _sample_edges(params.n, params.p, gen)
    deg = np.bincount(u, minlength=params.n) + np.bincount(v, minlength=params.n)
    return int((deg < params.r).sum())


def sample_graph_with_low_degree(params: ModelParams, rng,
                                 cap: int = GRAPH_NODE_CAP):
    """One graph draw returning (outcome, D_n, D_n over non-seeds).

    The non-seed count is the one that is pathwise dominated by n - A*:
    a low-degree node among the seeds {1..a} is active by fiat, so the
    all-nodes count can exceed the number of inactive nodes.
    """
    _check_graph_cap(params.n, cap)
    gen = _as_generator(rng)
    u, v = _sample_edges(params.n, params.p, gen)
    if params.n <= DENSE_NODE_LIMIT:
        final, generations = _cascade_bitset(params.n, params.r, params.a, u, v)
    else:
        final, generations = _cascade_edges(params.n, params.r, params.a, u, v)
    deg = np.bincount(u, minlength=params.n) + np.bincount(v, minlength=params.n)
    low = deg < params.r
    outcome = PercolationOutcome(final_size=final, stop_time=final,
                                 generations=generations)
    return outcome, int(low.sum()), int(low[params.a:].sum())


def low_degree_counts(params: ModelParams, replicates: int, rng,
                      cap: int = GRAPH_NODE_CAP) -> np.ndarray:
    """Batch of D_n draws; replicates share one concatenated slot stream."""
    _check_graph_cap(params.n, cap)
    gen = _as_generator(rng)
    n = params.n
    slots_per_rep = n * (n - 1) // 2
    chunk = max(1, int(_BATCH_ELEMENTS / max(1.0, slots_per_rep * params.p + n)))
    out = np.empty(replicates, dtype=np.int64)
    offsets = _triangular_offsets(n)
    done = 0
    while done < replicates:
        size = min(chunk, replicates - done)
        slots = _sample_edge_slots(size * slots_per_rep, params.p, gen)
        rep = slots // slots_per_rep
        local = slots - rep * slots_per_rep
        u = np.searchsorted(offsets, local, side="right") - 1
        v = local - offsets[u] + u + 1
        deg = np.bincount(rep * n + u, minlength=size * n) \
            + np.bincount(rep * n + v, minlength=size * n)
        out[done:done + size] = (deg.reshape(size, n) < params.r).sum(axis=1)
        done += size
    return out


def final_sizes_graph(params: ModelParams, replicates: int, rng,
                      small_limit: int = 24) -> np.ndarray:
    """Batch of A* values from the graph sampler.

    Below `small_limit` nodes every replicate's C(n,2) edge indicators are
    drawn as one matrix and the cascade runs vectorized across replicates;
    above it the single-replicate sampler is looped.
    """
    _check_replicates(replicates)
    gen = _as_generator(rng)
    n, p, r, a = params.n, params.p, params.r, params.a
    if n > small_limit:
        _check_graph_cap(n, GRAPH_NODE_CAP)
        return np.array([sample_graph(params, gen).final_size
                         for _ in range(replicates)], dtype=np.int64)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ui = np.array([ij[0] for ij in pairs])
    vi = np.array([ij[1] for ij in pairs])
    out = np.empty(replicates, dtype=np.int64)
    chunk = max(1, _BATCH_ELEMENTS // max(1, len(pairs)))
    done = 0
    while done < replicates:
        size = min(chunk, replicates - done)
        edges = gen.random((size, len(pairs))) < p
        out[done:done + size] = _vector_cascade_sizes(edges, ui, vi, n, r, a)
        done += size
    return out


def _vector_cascade_sizes(edges: np.ndarray, ui: np.ndarray, vi: np.ndarray,
                          n: int, r: int, a: int) -> np.ndarray:
    reps = edges.shape[0]
    active = np.zeros((reps, n), dtype=bool)
    active[:, :a] = True
    while True:
        marks = np.zeros((reps, n), dtype=np.int32)
        for e in range(len(ui)):
            col = edges[:, e]
            marks[:, vi[e]] += col & active[:, ui[e]]
            marks[:, ui[e]] += col & active[:, vi[e]]
        newly = ~active & (marks >= r)
        if not newly.any():
            break
        active |= newly
    return active.sum(axis=1).astype(np.int64)


def final_size_from_edge_uniforms(n: int, r: int, a: int,
                                  uniforms: np.ndarray, p: float) -> int:
    """Cascade final size with edges {u_e < p}; shared uniforms couple
    different p values monotonically on one graph."""
    if uniforms.shape != (n * (n - 1) // 2,):
        raise ParameterError("need one uniform per node pair")
    slots = np.nonzero(uniforms < p)[0]
    offsets = _triangular_offsets(n)
    u = np.searchsorted(offsets, slots, side="right") - 1
    v = slots - offsets[u] + u + 1
    final, _ = _cascade_edges(n, r, a, u.astype(np.int64), v.astype(np.int64))
    return final


SAMPLER_BATCHES = {
    "graph": final_sizes_graph,
    "markchain": final_sizes_markchain,
    "activation": final_sizes_activation,
}


def histogram(final_sizes: Iterable[int]) -> dict:
    """Counts of A* values, keys sorted ascending."""
    arr = np.asarray(list(final_sizes) if not isinstance(final_sizes, np.ndarray)
                     else final_sizes, dtype=np.int64)
    values, counts = np.unique(arr, return_counts=True)
    return {int(k): int(c) for k, c in zip(values, counts)}
