"""Four distribution-equivalent samplers of the percolation outcome.

* graph sampler: draws a batch of G(n, p) graphs as one disjoint union and
  runs one synchronous-generation cascade on its edge list (the same
  engine runs ``oracle.brute_force_pmf`` and the coupled edge-uniform
  cascade);
* mark chain: one active node is used per time step and sends Bernoulli(p)
  marks to the inactive nodes; a node activates at its r-th mark.  It
  keeps the inactive nodes counted by marks held and leaps over each
  stretch where it cannot stop: the M = A - t steps of a leap give every
  inactive node Bin(M, p) marks at once, so a replicate costs a few dozen
  leaps of r(r + 1)/2 binomial draws at any n;
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
The graph, mark-chain and activation-time samplers run replicates in
batches of about _BATCH_ELEMENTS elements per array, so each holds a few
MB beyond its output at any replicate count; the budget moves the
realised draws, not the law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ._binom import log_cdf_head, log_cdf_heads
from .core import ModelParams, _sure_final_size
from .errors import MemoryGuardError, ParameterError

__all__ = [
    "RngSpec", "final_sizes_graph", "final_sizes_markchain",
    "final_sizes_activation", "final_sizes_leap", "low_degree_counts",
    "final_size_from_edge_uniforms", "GRAPH_NODE_CAP", "ACTIVATION_NODE_CAP",
    "REPLICATE_CAP",
]

#: the graph sampler refuses instances above this node count
GRAPH_NODE_CAP = 100_000
#: the activation-time sampler refuses rows of more non-seed nodes; one
#: replicate at the cap peaks near 3 x 80 MB (times, candidates and ramp)
ACTIVATION_NODE_CAP = 10_000_000
#: samplers and estimators refuse more replicates than this (800 MB output)
REPLICATE_CAP = 10 ** 8

#: array elements per batch of replicates (2 MB as float64); beyond its
#: output a chunked sampler peaks below 6 * 8 * _BATCH_ELEMENTS bytes
#: (12 MB) unless a single replicate outgrows the budget
_BATCH_ELEMENTS = 2 ** 18


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
    if replicates > REPLICATE_CAP:
        raise MemoryGuardError(f"replicates above the cap {REPLICATE_CAP}")


def _chunks(replicates: int, elements_per_replicate):
    """Yield (start, size) runs of replicates holding about
    _BATCH_ELEMENTS array elements each (at least one replicate), so
    the budget bounds every array sized by a replicate's largest state."""
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

def _geometric_fill(buf: np.ndarray, p: float,
                    gen: np.random.Generator) -> np.ndarray:
    """Fill `buf` in place with trials to the first success, 1 +
    floor(log1p(-u) / log1p(-p)) of uniforms u: monotone nonincreasing in
    p for fixed u, +inf at p = 0 and 1 at p = 1."""
    gen.random(out=buf)
    if p in (0.0, 1.0):  # log1p(-p) is 0 or undefined
        buf.fill(np.inf if p == 0.0 else 1.0)
        return buf
    np.negative(buf, out=buf)
    np.log1p(buf, out=buf)
    # subnormal p overflows to an infinite time, which is the right answer
    with np.errstate(over="ignore"):
        buf /= math.log1p(-p)
    np.floor(buf, out=buf)
    buf += 1.0
    return buf


def _rth_success_times(shape, r: int, p: float,
                       gen: np.random.Generator) -> np.ndarray:
    """Trials to the r-th success, one per entry of an array of `shape`;
    draws after the first pass through one reused buffer."""
    y = _geometric_fill(np.empty(shape), p, gen)
    buf = np.empty(shape) if r > 1 else None
    with np.errstate(over="ignore"):
        for _ in range(r - 1):
            y += _geometric_fill(buf, p, gen)
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
    cand = np.empty((reps, m + 1))
    cand[:, 0] = a  # y_(0) = 0
    np.maximum(np.arange(a + 1, a + m + 1, dtype=np.float64), y_sorted,
               out=cand[:, 1:])
    valid = np.ones((reps, m + 1), dtype=bool)  # y_(m+1) = inf
    np.less(cand[:, :m], y_sorted, out=valid[:, :m])
    k_star = np.argmax(valid, axis=1)
    return cand[np.arange(reps), k_star].astype(np.int64)


def final_sizes_activation(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the activation-time sampler."""
    _check_replicates(replicates)
    sure = _sure_final_size(params)
    if sure is not None:
        return np.full(replicates, sure, dtype=np.int64)
    n, p, r, a = params.n, params.p, params.r, params.a
    m = n - a
    if m > ACTIVATION_NODE_CAP:
        raise MemoryGuardError(
            f"activation-time sampler refuses n - a = {m} above the cap "
            f"{ACTIVATION_NODE_CAP}; use the leap sampler instead")
    gen = _as_generator(rng)
    out = np.empty(replicates, dtype=np.int64)
    for start, size in _chunks(replicates, m):
        y = _rth_success_times((size, m), r, p, gen)
        y.sort(axis=1)
        out[start:start + size] = _stop_from_sorted_times(y, n, a)
        del y  # free this batch before the next one is drawn
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
    sure = _sure_final_size(params)
    if sure is not None:
        return np.full(replicates, sure, dtype=np.int64)
    p, k = params.p, params.r - 1
    start = np.zeros(replicates, dtype=np.int64)
    return _leap_to_level(params, start, start, 0, params.n,
                          _as_generator(rng),
                          lambda t: log_cdf_head(t, p, k))[1]


# ---------------------------------------------------------------------------
# mark-chain sampler

def _leap_chances(margin: np.ndarray, p: float, r: int):
    """(act, up) for mark-chain leaps of `margin` steps, G ~ Bin(M, p):
    act[d] = P(G > d) for d = 0..r-1 and up[d - 1] = P(G = d | G <= d)
    for d = 1..r-1.  F(d) = 0 leaves nobody to split; fmin maps the NaN
    of -inf - -inf to a zero chance."""
    log_f = log_cdf_heads(margin, p, r - 1)
    with np.errstate(invalid="ignore"):
        up = np.subtract(log_f[:-1], log_f[1:])
    for x in (log_f, up):  # in place: -expm1(min(x, 0)), NaN to 0
        np.fmin(x, 0.0, out=x)
        np.expm1(x, out=x)
        np.negative(x, out=x)
    return log_f, up


def final_sizes_markchain(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the used-node reformulation, leaping over
    each stretch where it cannot stop.

    From (t, A, counts) with margin M = A - t > 0 the chain runs M more
    steps before it can stop, so the M steps are one draw: an inactive
    node holding j marks gains G ~ Bin(M, p) and activates iff
    j + G >= r.  Per level j the activations are Bin(c_j, 1 - F(r-1-j)),
    F(d) = P(G <= d), and the rest are split from the top down, Bin with
    chance 1 - F(d-1)/F(d) of having gained exactly d.  After the leap
    t = A and the margin is the number activated, so a leap that
    activates nobody stops the replicate at A* = A.  Exact in law.
    """
    _check_replicates(replicates)
    sure = _sure_final_size(params)
    if sure is not None:
        return np.full(replicates, sure, dtype=np.int64)
    gen = _as_generator(rng)
    n, p, r, a = params.n, params.p, params.r, params.a
    out = np.empty(replicates, dtype=np.int64)
    # batched by a leap's working set, not the chain's r + 2 counts: at its
    # peak a leap holds the counts before and after compaction, log F and
    # the split chances, about 6r + 6 numbers per chain (1.6 budgets)
    for start, size in _chunks(replicates, 4 * r + 4):
        res = out[start:start + size]
        idx = np.arange(size)
        active = np.full(size, a, dtype=np.int64)
        margin = np.full(size, a, dtype=np.int64)  # t = active - margin
        counts = np.zeros((r, size), dtype=np.int64)  # inactive, by marks
        counts[0] = n - a
        while idx.size:
            # the law of a leap depends on its margin alone; where the
            # margins span fewer values than there are chains, gather
            # from a table over 0..max margin (same values, bit for bit)
            m_hi = int(margin.max())
            if m_hi < margin.size:
                act, up = _leap_chances(np.arange(m_hi + 1), p, r)
                act, up = act.take(margin, axis=1), up.take(margin, axis=1)
            else:
                act, up = _leap_chances(margin, p, r)
            gained = 0
            # top level first: nodes move up onto levels already drawn
            for j in range(r - 1, -1, -1):
                rest = counts[j]
                hit = gen.binomial(rest, act[r - 1 - j])
                gained = gained + hit
                rest -= hit
                for d in range(r - 1 - j, 0, -1):
                    moved = gen.binomial(rest, up[d - 1])
                    rest -= moved
                    counts[j + d] += moved
            active += gained
            done = gained == 0
            res[idx[done]] = active[done]
            keep = np.flatnonzero(gained)
            idx, active, margin, counts = (
                idx[keep], active[keep], gained[keep], counts[:, keep])
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
        pos = _geometric_fill(np.empty(want), p, gen)
        np.cumsum(pos, out=pos)
        pos += base - 1  # exact: kept positions are integers below 2^53
        keep = np.searchsorted(pos, total_slots)  # pos ascends
        positions.append(pos[:keep].astype(np.int64))
        if keep < want:
            break
        base = int(pos[-1]) + 1
    return positions[0] if len(positions) == 1 else np.concatenate(positions)


def _slot_pairs(slots: np.ndarray, n: int):
    """Edge ends (u, v) of slot indices: slot k * C(n, 2) + s is the s-th
    pair i < j (row-major) of replicate k, whose node i is k * n + i.

    Row i starts at offsets[i] = i (2n - i - 1) / 2, whose inverse is
    u = floor(((2n - 1) - sqrt((2n - 1)^2 - 8s)) / 2).  In floats that
    root is off by far less than one, so one integer correction each way
    against the offsets gives the row exactly (offsets[n] = C(n, 2))."""
    pairs = n * (n - 1) // 2
    rep, v = np.divmod(slots, pairs)
    i = np.arange(n + 1, dtype=np.int64)
    offsets = i * (2 * n - i - 1) // 2
    w = 2 * n - 1
    root = np.sqrt(w * w - 8 * v)  # float64, exact below 2^53
    np.subtract(w, root, out=root)
    root *= 0.5
    u = np.floor(root, out=root).astype(np.int64)
    del root
    u += offsets[u + 1] <= v
    u -= offsets[u] > v
    v -= offsets[u] - u - 1
    rep *= n
    u += rep
    v += rep
    return u, v


def _graph_batches(params: ModelParams, replicates: int, rng, reduce):
    """Per chunk of `size` replicates, draw the edges (u, v) of `size`
    independent G(n, p) graphs as one disjoint union and keep the
    `size` values reduce(u, v, size); returns all of them in order."""
    _check_replicates(replicates)
    _check_graph_cap(params.n)
    gen = _as_generator(rng)
    n, p = params.n, params.p
    pairs = n * (n - 1) // 2
    out = np.empty(replicates, dtype=np.int64)
    for start, size in _chunks(replicates, pairs * p + n):
        out[start:start + size] = reduce(
            *_slot_pairs(_sample_edge_slots(size * pairs, p, gen), n), size)
    return out


def _vector_cascade_sizes(u: np.ndarray, v: np.ndarray, reps: int,
                          n: int, r: int, a: int):
    """Cascade on `reps` disjoint graphs of n nodes (node i of replicate k
    is k * n + i, seeds i < a); each generation every node activated in
    the last one sends one mark along each edge, and an inactive node
    with r marks activates.  Returns the per-replicate final sizes."""
    fresh = np.tile(np.arange(n) < a, reps)
    active = fresh.copy()
    marks = np.zeros(reps * n, dtype=np.int64)
    while fresh.any():
        marks += np.bincount(v[fresh[u]], minlength=reps * n)
        marks += np.bincount(u[fresh[v]], minlength=reps * n)
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
    n, r = params.n, params.r

    def low_degree(u, v, size):
        deg = np.bincount(u, minlength=size * n)
        deg += np.bincount(v, minlength=size * n)
        return (deg.reshape(size, n) < r).sum(axis=1)
    return _graph_batches(params, replicates, rng, low_degree)


def final_sizes_graph(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the graph sampler: draw G(n, p), seed
    nodes {1..a}, iterate generations to the fixpoint.

    Seeds are fixed rather than resampled uniformly: by node
    exchangeability the law of the final size is the same, and one
    randomness source less keeps coupling tests simple.
    """
    n, r, a = params.n, params.r, params.a
    return _graph_batches(
        params, replicates, rng,
        lambda u, v, size: _vector_cascade_sizes(u, v, size, n, r, a))


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
