"""Four distribution-equivalent samplers of the percolation outcome.

* graph sampler: draws a batch of G(n, p) graphs as one disjoint union and
  runs one synchronous-generation cascade on its live edges, or, where
  the 2^C(n, 2) graphs are few (n <= 6), reads each one's final size off
  one enumeration of them all by that engine (_graph_closures, which
  ``oracle.brute_force_pmf`` sums by edge count), from the same draws;
  the enumeration does not depend on p, so it is built once per (n, r,
  a) per process (_closure_table);
  low_degree_counts draws D_n, the nodes of degree < r, by deferred
  decisions: it reveals the edges of a band of about 2 a_c nodes, leaps
  over the nodes that band saturates with r neighbours as the mark chain
  leaps, and then draws only the graph of the few nodes left;
* mark chain: one active node is used per time step and sends Bernoulli(p)
  marks to the inactive nodes; a node activates at its r-th mark.  It
  keeps the inactive nodes counted by marks held and leaps over each
  stretch where it cannot stop: the M = A - t steps of a leap give every
  inactive node Bin(M, p) marks at once, so a replicate costs a few dozen
  leaps of r(r + 1)/2 binomial draws at any n; where the states (M,
  counts) are few (n <= 16 at r = a = 2) it draws each leap with one
  uniform from a Walker alias table of every state's leap, built per call
  (_mark_table);
* activation times: each non-seed node gets an i.i.d. r-th-success time
  Y_i, whose order statistics are read off the prefix sums of n - a + 1
  exponential spacings (Renyi's representation) against one table of
  Q(t) = P(Bin(t, p) <= r - 1), a column of a chunk's rows at a time
  where a row is one block.  A longer row draws only the Gamma sums
  of blocks of about sqrt(2 (n - a)) spacings and expands just the
  blocks where a stop is possible, so a replicate costs O(sqrt(n - a))
  where a few blocks are, O(n - a) at worst, at any r;
* leap: the count chain S(t) jumps over every stretch where it cannot
  stop, so a replicate costs a few dozen binomial draws at any n; the
  naive, one-level splitting and Poisson-limit estimators in montecarlo
  use it, and the splitting stages run its kernel down to each margin
  level.
  The kernel reads log Q(t) = log P(Bin(t, p) <= r - 1) through a lookup
  its caller supplies: the splitting estimator gathers from one table
  over 0..tau, and the sampler (tau = n) from one table over 0..n when
  n + 1 is at most the replicate count and the batch budget, since a run
  evaluates log Q at least once per replicate; otherwise it evaluates
  log_cdf_head at the leap times.  Both lookups give the same floats.

All randomness flows through an RngSpec (seed, stream), so a batch is
reproducible bit-for-bit within one build, on any number of CPUs.  Of
the samplers only the
activation-time one is coupled monotonically in p: its spacings do not
depend on p (a block expands from its own sum and key, whichever blocks
are expanded) and Q(t) falls as p grows, so its sizes at p1 < p2 from one
RngSpec are ordered elementwise.  The graph, mark-chain and leap
samplers draw p-dependent variables, so theirs are not.

The graph, mark-chain, activation-time and leap samplers and
low_degree_counts run replicates in chunks (_map_chunks) under one rule:
whatever a chunk allocates, its own inner batches included, is sized by
_CHUNK_ELEMENTS elements per array, and only a single replicate larger
than a chunk runs alone.  Up to two chunks run at once on threads, each
on its own stream: chunk 0 draws from the caller's generator and chunk
k >= 1 from the k-th child of its spawn.  So each holds a few MB beyond
its output at any replicate count, and its output depends on the
generator, the replicate count and the budget, not on the thread count;
the budget moves the realised draws, not the law.
Every log Q table over a run of times (the activation sampler's, the
splitting estimator's) is filled by _fill_log_q in such chunks, so it
costs a few MB beyond itself at any length.  The splitting estimator in
montecarlo runs its four groups of chains through _leap_to_level in as
few such batches as fit (one up to 16384 replicates per level), which
likewise moves its realised draws, not its law.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from ._binom import _log1p_sum_exp, _log_head_terms, log_cdf_head
from .core import ModelParams, _log_t_c, _sure_final_size
from .errors import MemoryGuardError, ParameterError

__all__ = [
    "RngSpec", "final_sizes_graph", "final_sizes_markchain",
    "final_sizes_activation", "final_sizes_leap", "low_degree_counts",
    "GRAPH_NODE_CAP", "ACTIVATION_NODE_CAP", "REPLICATE_CAP",
]

#: the graph sampler and low_degree_counts refuse instances above this
#: node count
GRAPH_NODE_CAP = 100_000
#: the activation-time sampler refuses rows of more non-seed nodes; one
#: replicate at the cap peaks near 98 MB (the 80 MB Q table and a few
#: batch budgets of work arrays)
ACTIVATION_NODE_CAP = 10_000_000
#: samplers and estimators refuse more replicates than this (800 MB output)
REPLICATE_CAP = 10 ** 8

#: array elements per batch (2 MB as float64); beyond its output a
#: chunked sampler peaks below 6 * 8 * _BATCH_ELEMENTS bytes (12 MB),
#: with two chunks in flight, unless a single replicate outgrows a chunk
_BATCH_ELEMENTS = 2 ** 18
#: array elements per chunk of a sampler batch, a quarter budget: the two
#: chunks in flight hold half what one full-budget chunk held, so the
#: malloc arenas of the two threads that run them keep little
_CHUNK_ELEMENTS = _BATCH_ELEMENTS // 4


@dataclass(frozen=True)
class RngSpec:
    """(seed, stream) pair that fully determines a batch's randomness:
    with the params and the replicate count it fixes every chunk's
    stream (the generator's and its spawned children), so it fixes the
    output, whatever the number of threads that run the chunks."""

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


def _check_batch(replicates: int, rng) -> np.random.Generator:
    """Refuse a bad replicate count or rng; return the rng's generator."""
    if not isinstance(replicates, (int, np.integer)) \
            or isinstance(replicates, bool) or replicates < 1:
        raise ParameterError(
            f"replicates must be an integer >= 1, got {replicates!r}")
    if replicates > REPLICATE_CAP:
        raise MemoryGuardError(f"replicates above the cap {REPLICATE_CAP}")
    return _as_generator(rng)


def _chunks(replicates: int, elements_per_replicate,
            budget: int = _BATCH_ELEMENTS):
    """Yield (start, size) runs of replicates holding about `budget`
    array elements each (at least one replicate), so the budget bounds
    every array sized by a replicate's largest state."""
    chunk = max(1, int(budget / max(1.0, elements_per_replicate)))
    for start in range(0, replicates, chunk):
        yield start, min(chunk, replicates - start)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ParameterError("rng must be an RngSpec or a numpy Generator")


def _worker_count(chunks: int) -> int:
    """Chunks a sampler batch runs at once: at most two, and no more than
    the CPUs in the process's affinity mask (os.cpu_count where the
    platform has none), so a process pinned to one CPU runs one thread."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(2, chunks, cpus)


def _map_chunks(replicates: int, elements_per_replicate, rng,
                fill: Callable[[int, np.random.Generator], np.ndarray]
                ) -> np.ndarray:
    """Values of `replicates` replicates as one int64 array, where
    fill(size, g) returns those of one _chunks run of _CHUNK_ELEMENTS and
    sizes whatever it allocates by that budget too.

    `rng` is an RngSpec or a Generator (RngSpec.generator() or itself):
    chunk 0 draws from that generator and chunk k >= 1 from the k-th
    child of its spawn(chunks - 1), so the output depends on `rng` and
    the chunking alone, never on the worker count: a run that fits in one
    chunk draws what one fill on the generator draws, and a longer run is
    the concatenation of one-chunk runs on those streams.  Up to
    _worker_count chunks run at once on threads (numpy releases the GIL
    in its draws and loops), but one at a time where a single replicate
    outgrows a chunk, as its arrays alone pass the chunk budget.  The
    first exception a chunk raises is raised here once every thread has
    ended; the workers take no more chunks after it."""
    gen = _as_generator(rng)
    runs = list(_chunks(replicates, elements_per_replicate, _CHUNK_ELEMENTS))
    gens = [gen, *gen.spawn(len(runs) - 1)]
    out = np.empty(replicates, dtype=np.int64)

    def run(k: int) -> None:
        start, size = runs[k]
        out[start:start + size] = fill(size, gens[k])

    workers = (_worker_count(len(runs))
               if elements_per_replicate <= _CHUNK_ELEMENTS else 1)
    if workers == 1:
        for k in range(len(runs)):
            run(k)
        return out
    # the calling thread runs no chunk: it holds the caller's arrays, and
    # chunk work interleaved with them made its malloc heap grow by a
    # whole output array in some runs and not in others
    todo, lock, failed = iter(range(len(runs))), threading.Lock(), []

    def work() -> None:
        while not failed:  # after a chunk's error, take no more chunks
            with lock:
                k = next(todo, None)
            if k is None:
                return
            try:
                run(k)
            except BaseException as exc:  # passed on to the caller below
                failed.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers)]
    # every worker starts before any chunk is handed out: a start waits on
    # the GIL, which a worker busy with a chunk holds, and that slowed
    # four-chunk leap batches by about a tenth
    with lock:
        for thread in threads:
            thread.start()
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    return out


def _fill_log_q(out: np.ndarray, t0: int, p: float, r: int) -> np.ndarray:
    """Write out[i] = log Q(t0 + i), Q(t) = P(Bin(t, p) <= r - 1), in
    _chunks runs of r - 1 head terms each, so a table of any length
    costs a few batch budgets beyond itself; returns `out`."""
    for start, size in _chunks(out.size, r - 1):
        out[start:start + size] = log_cdf_head(
            np.arange(t0 + start, t0 + start + size), p, r - 1)
    return out


# ---------------------------------------------------------------------------
# activation-time sampler

def _stop_from_spacings(spacings: np.ndarray, q: np.ndarray,
                        a: int) -> np.ndarray:
    """Per row of m + 1 spacings, the first t in [a, a + m) with
    P_{a+m-t} < P_{m+1} q[t - a], else a + m.  The prefix sums are built
    as contiguous columns, one running add each: the float operations of
    a cumsum along the rows, a column at a time."""
    size, m = spacings.shape[0], spacings.shape[1] - 1
    prefix = np.empty((m + 1, size))  # row j - 1: P_j
    prefix[0] = spacings[:, 0]
    for j in range(1, m + 1):
        np.add(prefix[j - 1], spacings[:, j], out=prefix[j])
    prefix[:m] *= 1.0 / prefix[m]
    stop = np.ones((m + 1, size), dtype=bool)  # row t - a, t = a + m last
    np.less(prefix[m - 1::-1], q[:, None], out=stop[:m])
    return a + np.argmax(stop, axis=0)


#: SplitMix64's state increment and its two finaliser multipliers
#: (Steele, Lea & Flood, OOPSLA 2014)
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))


def _splitmix64(keys: np.ndarray, count: int) -> np.ndarray:
    """Row i holds the first `count` SplitMix64 words from state keys[i].
    All arithmetic is on uint64 arrays, which wrap silently (a numpy
    scalar raises on overflow)."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_SPLITMIX_GAMMA)
    z = keys[:, None] + z
    tmp = np.empty_like(z)
    for shift, mul in _SPLITMIX_MIX:
        z ^= np.right_shift(z, shift, out=tmp)
        z *= np.uint64(mul)
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def _block_exponentials(keys: np.ndarray, count: int) -> np.ndarray:
    """Row i holds `count` Exp(1) values keyed by keys[i]: -log u for the
    uniforms u in (0, 1] that the top 53 bits of SplitMix64 words give."""
    z = _splitmix64(keys, count)
    np.right_shift(z, 11, out=z)
    e = z.astype(np.float64)
    del z
    e += 1.0
    e *= 2.0 ** -53
    np.log(e, out=e)
    return np.negative(e, out=e)


def _block_lengths(m: int) -> np.ndarray:
    """Lengths of the blocks that cut a row's m + 1 spacings: about
    sqrt(2 (m + 1)) and at least 64 each, the last one shorter."""
    width = max(64, math.isqrt(2 * (m + 1)))
    lengths = np.full(-(-(m + 1) // width), width)
    lengths[-1] = m + 1 - (lengths.size - 1) * width
    return lengths


def _largest_hits(sums: np.ndarray, keys: np.ndarray, q_blocks: np.ndarray,
                  bound: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per row of block sums and keys, the largest k with P_k < P_{m+1}
    q_blocks.flat[k - 1], else 0, expanding only the blocks that may
    hold such a k.

    Block b spans P_k for k in (b w, (b + 1) w], w = q_blocks.shape[1]:
    P_k = C_b + G_b S_j / S_len for the exclusive prefix C_b of the block
    sums G, the prefix sums S of the block's keyed exponentials and
    j = k - b w.  P_k >= C_b, and bound[b] is the largest q of the
    block, so a block with C_b >= P_{m+1} bound[b] holds no k; skipping
    it changes no result, rounding included."""
    size, blocks = sums.shape
    width = q_blocks.shape[1]
    prefix = np.zeros((size, blocks + 1))  # C_b, then the total P_{m+1}
    np.cumsum(sums, axis=1, out=prefix[:, 1:])
    total = prefix[:, blocks]
    open_ = np.flatnonzero(prefix[:, :blocks] < total[:, None] * bound)
    best = np.zeros(size, dtype=np.int64)
    for start, count in _chunks(open_.size, width, _CHUNK_ELEMENTS):
        idx = open_[start:start + count]
        row, b = np.divmod(idx, blocks)
        pk = _block_exponentials(keys.ravel()[idx], width)
        np.cumsum(pk, axis=1, out=pk)
        scale = sums.ravel()[idx] / pk[np.arange(count), lengths[b] - 1]
        pk *= scale[:, None]
        pk += prefix[row, b][:, None]
        limit = q_blocks[b]
        limit *= total[row][:, None]
        hit = pk < limit
        found = hit.any(axis=1)
        k = (b + 1) * width - np.argmax(hit[:, ::-1], axis=1)
        np.maximum.at(best, row[found], k[found])
    return best


def final_sizes_activation(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the activation-time sampler.

    Non-seed node i activates at Y_i = F^-1(U_i), F(t) = 1 - Q(t) with
    Q(t) = P(Bin(t, p) <= r - 1), so the stop condition a + S(t) <= t
    holds at t in [a, n) iff U_(t-a+1) > F(t).  By Renyi's representation
    the m = n - a values 1 - U_(k) have the joint law of P_{m+1-k} /
    P_{m+1}, for prefix sums P of m + 1 i.i.d. Exp(1) spacings, so T is
    the first t in [a, n) with P_{n-t} < P_{m+1} Q(t), and n when there
    is none (S(n) <= n - a).

    A row of more spacings than one block (_block_lengths) draws each
    block's sum G_b ~ Gamma(len_b) and a 64-bit key, and expands only
    the blocks where a stop is possible into the spacings G_b E_j / sum E
    of the key's exponentials E (Dirichlet given the sum), so a row costs
    O(sqrt m) where a stop is possible in a few blocks and O(m) at worst.
    The spacings depend on (G_b, key) alone, whatever p is.
    """
    gen = _check_batch(replicates, rng)
    sure = _sure_final_size(params)
    if sure is not None:
        return np.full(replicates, sure, dtype=np.int64)
    n, p, r, a = params.n, params.p, params.r, params.a
    m = n - a
    if m > ACTIVATION_NODE_CAP:
        raise MemoryGuardError(
            f"activation-time sampler refuses n - a = {m} above the cap "
            f"{ACTIVATION_NODE_CAP}; use the leap sampler instead")
    lengths = _block_lengths(m)
    blocks, width = lengths.size, int(lengths[0])
    # entry k - 1 is Q(n - k) for k = 1..m; the padding to whole blocks
    # is -1, so no stop can fall there
    q = np.full(blocks * width, -1.0)
    _fill_log_q(q[m - 1::-1], a, p, r)
    np.exp(q[:m], out=q[:m])
    if blocks == 1:
        return _map_chunks(replicates, m + 1, gen, lambda size, g:
                           _stop_from_spacings(g.standard_exponential(
                               (size, m + 1)), q[m - 1::-1], a))
    q_blocks = q.reshape(blocks, width)
    bound = q_blocks.max(axis=1)

    def fill(size, g):
        sums = g.standard_gamma(lengths, (size, blocks))
        keys = g.integers(2 ** 64, size=(size, blocks), dtype=np.uint64)
        return n - _largest_hits(sums, keys, q_blocks, bound, lengths)
    # a row holds four numbers per block: its sum, key, prefix and test
    return _map_chunks(replicates, 4 * blocks, gen, fill)


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
    log_cdf_head itself where the table would cost more.  A chain runs
    while min(S + a - level, tau) > t.  Returns (crossed, t, s): crossed
    chains sit at their crossing state and the others at time tau with
    their margin above the level, so crossed is read once from the final
    states, M <= level.
    """
    n, a = params.n, params.a
    t = np.array(t, dtype=np.int64)
    s = np.array(s, dtype=np.int64)
    t_next = np.minimum(s + (a - level), tau)
    idx = (t_next > t).nonzero()[0]
    s_i, t_next, log_q_i = s[idx], t_next[idx], log_q(t[idx])
    while idx.size:
        log_q_next = log_q(t_next)
        chance = np.subtract(log_q_next, log_q_i)
        np.fmin(chance, 0.0, out=chance)
        np.expm1(chance, out=chance)
        np.negative(chance, out=chance)
        s_i += gen.binomial((n - a) - s_i, chance)
        t[idx], s[idx] = t_next, s_i
        ahead = np.minimum(s_i + (a - level), tau)
        keep = (ahead > t_next).nonzero()[0]
        idx, s_i, t_next, log_q_i = (
            idx[keep], s_i[keep], ahead[keep], log_q_next[keep])
    return a + s - t <= level, t, s


def final_sizes_leap(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the margin-leaping count chain: every
    replicate runs from (0, 0) until its margin falls to 0, which is the
    stop time T = A*; a few dozen leaps at any n.  Here tau = n: log Q is
    gathered from one table over 0..n (n + 1 head evaluations, while a
    run evaluates at least one per replicate) when n + 1 is at most the
    replicate count and the batch budget, and evaluated at the leap times
    otherwise.  log_cdf_head is elementwise, so both give the same draws."""
    gen = _check_batch(replicates, rng)
    sure = _sure_final_size(params)
    if sure is not None:
        return np.full(replicates, sure, dtype=np.int64)
    n, p, r = params.n, params.p, params.r
    log_q = (_fill_log_q(np.empty(n + 1), 0, p, r).take
             if n + 1 <= min(replicates, _BATCH_ELEMENTS)
             else partial(log_cdf_head, q=p, k=r - 1))

    def fill(size, g):
        origin = np.zeros(size, dtype=np.int64)
        return _leap_to_level(params, origin, origin, 0, n, g, log_q)[1]
    # at a leap's peak a chain holds the r - 1 head terms of log Q three
    # times over and about 14 state numbers, so chunks of r + 10 numbers
    # per chain keep it under 3 budgets
    return _map_chunks(replicates, r + 10, gen, fill)


# ---------------------------------------------------------------------------
# mark-chain sampler

def _leap_chances(margin: np.ndarray, p: float, r: int):
    """(act, up) for mark-chain leaps of `margin` steps, G ~ Bin(M, p),
    0 < p < 1: act[d] = P(G > d) for d = 0..r-1 and
    up[d - 1] = P(G = d | G <= d) for d = 1..r-1.  The head terms are
    built once and log F(d) sums the first d of them, as log_cdf_head
    would; every log F(d) is finite, so no chance is NaN."""
    log_f = np.empty((r,) + np.shape(margin))
    m = np.asarray(margin, dtype=np.float64)
    base, c = m * math.log1p(-p), _log_head_terms(m, p, r - 1)
    for d in range(r):
        log_f[d] = base + _log1p_sum_exp(c[..., :d])
    up = log_f[:-1] - log_f[1:]
    for x in (log_f, up):  # in place: -expm1(min(x, 0))
        np.minimum(x, 0.0, out=x)
        np.expm1(x, out=x)
        np.negative(x, out=x)
    return log_f, up


def _leap_chance_lookup(n: int, p: float, r: int, replicates: int):
    """Map margins 0..n to their _leap_chances: gather from one table over
    0..n when n + 1 is at most the replicate count and the batch budget
    over 2r (the table's 2r - 1 rows), else evaluate them; both give the
    same floats, as _leap_chances is elementwise."""
    if n + 1 <= min(replicates, _BATCH_ELEMENTS // (2 * r)):
        table = _leap_chances(np.arange(n + 1), p, r)
        return lambda margin: tuple(x.take(margin, axis=1) for x in table)
    return partial(_leap_chances, p=p, r=r)


def _mark_leap(counts: np.ndarray, margin: np.ndarray, chances,
               gen: np.random.Generator) -> np.ndarray:
    """One leap of `margin` steps per column of `counts` (row j: the
    nodes holding j < r marks), in place: each node gains G ~ Bin(M, p)
    marks.  Per level j the nodes reaching r marks are
    Bin(c_j, 1 - F(r-1-j)), F(d) = P(G <= d), and the rest are split
    from the top down, Bin with chance 1 - F(d-1)/F(d) of having gained
    exactly d.  `chances` maps the margins to (act, up) as
    _leap_chances does (_leap_chance_lookup).  Returns the nodes that
    reached r marks, per column."""
    r = counts.shape[0]
    act, up = chances(margin)
    gained = None
    # top level first: nodes move up onto levels already drawn
    for j in range(r - 1, -1, -1):
        rest = counts[j]
        hit = gen.binomial(rest, act[r - 1 - j])
        gained = hit if gained is None else gained + hit
        rest -= hit
        for d in range(r - 1 - j, 0, -1):
            moved = gen.binomial(rest, up[d - 1])
            rest -= moved
            counts[j + d] += moved
    return gained


def _mark_table(n: int, p: float, r: int, a: int):
    """Walker alias table of the mark chain's leap from each state (M, c):
    margin M = 0..max(a, n - a) and count vector c, the inactive nodes by
    marks held (levels 0..r-1, |c| <= n - a).  A chain's first margin is
    a and every later one the nodes it gained, at most n - a, so no chain
    reads a larger margin.

    The V count vectors are the multisets of levels, by size.  The law of
    the next vector from c + e_j is the law from c convolved with one
    level-j node, which activates with P(G >= r - j) and lands on level
    j + d with P(G = d), G ~ Bin(M, p); so the kernel is built one vector
    at a time, vectorised over M.  Row M V + c of the alias table splits
    into V columns of chance 1 / V each, and column k takes its own
    next vector k with chance prob[row, k], else alias[row, k] (Vose's
    build, as V - 1 rounds over all rows, each pairing a row's smallest
    open column with its largest).  Both are stored as the next row
    (|c| - |c'|) V + c', since the nodes gained are the next margin, so a
    row below V is a stopped chain at c' (a column of chance 0 whose c'
    outsizes c names no row).  Returns (held, start, prob, own, other):
    |c| per vector, the row (a, (n - a, 0, ..., 0)) every chain starts
    from, and the three (max(a, n - a) + 1) V by V tables."""
    levels = [c for size in range(n - a + 1)
              for c in itertools.combinations_with_replacement(range(r), size)]
    ids = {c: v for v, c in enumerate(levels)}
    width = len(levels)
    inner = width - math.comb(n - a + r - 1, r - 1)  # the vectors below n - a
    plus = np.array([[ids[tuple(sorted(c + (k,)))] for c in levels[:inner]]
                     for k in range(r)], dtype=np.int64)  # c + e_k
    margins = max(a, n - a) + 1
    act = _leap_chances(np.arange(margins), p, r)[0]
    pmf = np.diff(1.0 - act, axis=0, prepend=0.0)  # P(G = d), d < r
    kernel = np.zeros((margins, width, width))  # [M, c, c']
    kernel[:, 0, 0] = 1.0
    for v, c in enumerate(levels[1:], 1):
        j, src = c[-1], kernel[:, ids[c[:-1]], :inner]
        dst = kernel[:, v]
        dst[:, :inner] = src * act[r - 1 - j, :, None]
        for k in range(j, r):
            dst[:, plus[k]] += src * pmf[k - j, :, None]
    hi = kernel.reshape(-1, width)
    hi *= width
    lo, at = hi.copy(), np.arange(hi.shape[0])
    prob = np.ones_like(hi)  # the last open column keeps itself
    alias = np.tile(np.arange(width, dtype=np.int32), (hi.shape[0], 1))
    for _ in range(width - 1):
        small, large = lo.argmin(axis=1), hi.argmax(axis=1)
        chance = lo[at, small]
        prob[at, small], alias[at, small] = chance, large
        chance += hi[at, large]
        chance -= 1.0  # the large column gives 1 - chance to the small one
        lo[at, large] = hi[at, large] = chance
        lo[at, small], hi[at, small] = np.inf, -np.inf
    del kernel, hi, lo
    held = np.array([len(c) for c in levels], dtype=np.int64)
    own = np.tile(((held[:, None] - held) * width + np.arange(width))
                  .astype(np.int32), (margins, 1))
    return held, a * width + inner, prob, own, np.take_along_axis(
        own, alias, axis=1)


def final_sizes_markchain(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the used-node reformulation, leaping over
    each stretch where it cannot stop.

    From (t, A, counts) with margin M = A - t > 0 the chain runs M more
    steps before it can stop, so the M steps are one draw: an inactive
    node holding j marks gains G ~ Bin(M, p) and activates iff
    j + G >= r.  After the leap t = A and the margin is the number
    activated, so a leap that activates nobody stops the replicate at
    A* = A.  Exact in law.

    A leap's law depends on the state (M, counts) alone.  Where
    (n + 1) V^2, V = C(n - a + r, r) count vectors, a bound on the entries
    of an alias table of every state's leap, is at most the replicate
    count and the batch budget (n <= 16 at r = a = 2), each leap is one
    uniform through that table (_mark_table); otherwise it is
    r (r + 1) / 2 binomial draws per chain (_mark_leap), with chances
    that depend on the margin M <= n alone, so they may come from one
    table over 0..n (_leap_chance_lookup).  The two paths draw the same
    law from different draws.
    """
    gen = _check_batch(replicates, rng)
    sure = _sure_final_size(params)
    if sure is not None:
        return np.full(replicates, sure, dtype=np.int64)
    n, p, r, a = params.n, params.p, params.r, params.a
    # V >= n - a + r, so a larger n - a + r rules the table out unbuilt
    m = n - a + r
    if m * m <= _BATCH_ELEMENTS and (n + 1) * math.comb(m, r) ** 2 <= min(
            replicates, _BATCH_ELEMENTS):
        held, start, prob, own, other = _mark_table(n, p, r, a)
        width = held.size

        def fill(size, g):
            rows = np.full(size, start, dtype=np.int64)
            live, cur = np.arange(size), rows.copy()
            while live.size:
                x = g.random(live.size)
                x *= width
                flat = x.astype(np.int64)  # the column, and x its fraction
                x -= flat
                flat += cur * width
                cur = np.where(x < prob.take(flat), own.take(flat),
                               other.take(flat))
                rows[live] = cur
                keep = np.flatnonzero(cur >= width)
                live, cur = live[keep], cur[keep]
            return n - held.take(rows)
        # at a leap's peak a chain holds about seven numbers (its row, index
        # and state, the uniform, the flat index and the gathers)
        elements = 8
    else:
        chances = _leap_chance_lookup(n, p, r, replicates)

        def fill(size, g):
            active = np.full(size, a, dtype=np.int64)
            idx = np.arange(size)
            margin = active.copy()  # t = active - margin
            counts = np.zeros((r, size), dtype=np.int64)  # inactive, by marks
            counts[0] = n - a
            while idx.size:
                gained = _mark_leap(counts, margin, chances, g)
                active[idx] += gained
                keep = gained.nonzero()[0]
                idx, margin, counts = idx[keep], gained[keep], counts[:, keep]
            return active
        # batched by a leap's working set, not the chain's r + 2 counts: at
        # its peak a leap holds the counts before and after compaction,
        # log F and the split chances, about 6r + 6 numbers per chain (1.6
        # budgets)
        elements = 4 * r + 4
    return _map_chunks(replicates, elements, gen, fill)


# ---------------------------------------------------------------------------
# graph sampler: draw a batch of graphs as one disjoint union, then run one
# synchronous-generation cascade on its live edges

def _sample_edge_slots(total_slots: int, p: float,
                       gen: np.random.Generator) -> np.ndarray:
    """Indices of occupied slots among `total_slots` Bernoulli(p) slots, by
    cumulative geometric gaps 1 + floor(log1p(-u) / log1p(-p)), u uniform
    (Batagelj & Brandes 2005).  Rounds draw about as many gaps as they
    keep; the slots kept do not depend on the round sizes, only the
    generator's state after the call does."""
    if p == 0.0 or total_slots == 0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(total_slots, dtype=np.int64)
    positions = []
    base = 0
    while base < total_slots:
        # a round keeps about Bin(total_slots - base, p) gaps, so one of
        # mean + 6 sd + 16 gaps falls short, and a next round runs, about
        # once in 10^9 fills
        mean = (total_slots - base) * p
        want = max(64, int(mean + 6.0 * math.sqrt(mean)) + 16)
        pos = gen.random(want)
        np.negative(pos, out=pos)
        np.log1p(pos, out=pos)
        # subnormal p overflows to an infinite gap, which is the right answer
        with np.errstate(over="ignore"):
            pos /= math.log1p(-p)
        np.floor(pos, out=pos)
        pos += 1.0
        np.cumsum(pos, out=pos)
        pos += base - 1  # exact: kept positions are integers below 2^53
        keep = np.searchsorted(pos, total_slots)  # pos ascends
        positions.append(pos[:keep].astype(np.int64))
        if keep < want:
            break
        base = int(pos[-1]) + 1
    return positions[0] if len(positions) == 1 else np.concatenate(positions)


def _slot_pairs(slots: np.ndarray, nodes, rows=None):
    """Edge ends (u, v) of ascending slot indices in a disjoint union of
    graphs: graph g has nodes[g] nodes, numbered on from those of the
    graphs before it, and slots for its pairs i < j with i < rows[g]
    (every pair when rows is None), row-major, after the slots of the
    graphs before it.  A scalar `nodes` (and `rows`) is one graph
    repeated: slot k * pairs + s is the s-th pair of graph k, whose
    node i is k * nodes + i.

    A graph of m nodes is the last m nodes of one triangle of M >= m
    nodes, so its slots are a run of the triangle's from offset
    C(M, 2) - C(m, 2).  Row i of that triangle starts at offset
    i (2M - i - 1) / 2, whose inverse is
    u = floor(((2M - 1) - sqrt((2M - 1)^2 - 8s)) / 2), and the float
    floor is exact while 4M^2 < 2^53 (M below about 4.7e7, far above
    GRAPH_NODE_CAP): the radicand is then an exact integer, and every
    float step is monotone in s.  At a row start the radicand is the
    square (2M - 1 - 2i)^2, so the root is exactly i.  At a row's last
    slot the exact root lies more than 1/M below i + 1, by convexity in
    s (its slope exceeds 2 / (2M - 1)), while the float root is off by
    at most about M 2^-52.  So every slot of row i floors to i."""
    if np.ndim(nodes) == 0:  # M = m: each slot's offset is its own
        top = nodes
        span = nodes if rows is None else rows  # the triangle's rows used
        pairs = span * (2 * nodes - span - 1) // 2
        first = slots // pairs  # each slot's graph, then its node 0
        v = slots - first * pairs
        first *= nodes
    else:  # each graph's slots are one run: shift them onto the triangle
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = nodes if rows is None else np.asarray(rows, dtype=np.int64)
        top = span = int(nodes.max(initial=0))
        pairs = rows * (2 * nodes - rows - 1) // 2
        ends = np.cumsum(pairs)
        graph = np.repeat(np.arange(nodes.size),
                          np.diff(np.searchsorted(slots, ends), prepend=0))
        skip = top - nodes  # the triangle's rows before graph g's
        v = slots + (skip * (2 * top - skip - 1) // 2 - ends + pairs).take(graph)
        first = (np.cumsum(nodes) - nodes - skip).take(graph)
        del graph
    i = np.arange(span + 1, dtype=np.int64)
    offsets = i * (2 * top - i - 1) // 2
    w = 2 * top - 1
    root = v * -8.0
    root += w * w  # exact below 2^53
    np.subtract(w, np.sqrt(root, out=root), out=root)
    root *= 0.5
    u = root.astype(np.int64)  # the floor, as root >= 0
    del root
    v -= (offsets - i - 1).take(u)
    u += first
    v += first
    return u, v


def _slot_ids(slots: np.ndarray, reps: int, pairs: int) -> np.ndarray:
    """Graph ids of `reps` disjoint graphs of `pairs` slots each: bit s of
    replicate k's id is set iff slot k * pairs + s is occupied.  Each id
    is the float32 dot product of the replicate's slot indicators with
    the powers of two, exact while ids stay below 2^24."""
    occupied = np.zeros(reps * pairs, dtype=np.float32)
    occupied[slots] = 1.0
    powers = (2.0 ** np.arange(pairs)).astype(np.float32)
    return (occupied.reshape(reps, pairs) @ powers).astype(np.int64)


def _check_graph_cap(n: int, what: str, hint: str = "") -> None:
    if n > GRAPH_NODE_CAP:
        raise MemoryGuardError(
            f"{what} refuses n = {n} above the cap {GRAPH_NODE_CAP}{hint}")


def _vector_cascade_sizes(u: np.ndarray, v: np.ndarray, reps: int,
                          n: int, r: int, a: int):
    """Cascade on `reps` disjoint graphs of n nodes (node i of replicate k
    is k * n + i, seeds i < a); each generation every node activated in
    the last one sends one mark along each edge, and an inactive node
    with r marks activates.  Returns the per-replicate final sizes.

    An edge with a fresh end is spent: later it can only mark active
    nodes.  So a generation scans the edges it carries, tests the nodes
    they mark, and retires its spent ones if they are a quarter or more."""
    nodes = reps * n
    fresh = (np.arange(0, nodes, n)[:, None] + np.arange(a)).ravel()
    is_fresh = np.zeros(nodes, dtype=bool)
    marks = np.zeros(nodes, dtype=np.int32)  # below -2^30 + n: active
    marks[fresh] = -2 ** 30
    while fresh.size and u.size:
        is_fresh[fresh] = True
        fu, fv = is_fresh.take(u), is_fresh.take(v)
        is_fresh[fresh] = False
        cut = np.count_nonzero(fu)  # hit: the other end of each fresh end
        hit = np.empty(cut + np.count_nonzero(fv), dtype=np.int64)
        v.take(np.flatnonzero(fu), out=hit[:cut], mode="clip")  # unbuffered
        u.take(np.flatnonzero(fv), out=hit[cut:], mode="clip")
        np.add.at(marks, hit, np.int32(1))  # an int32 one: the fast loop
        fresh = hit.take(np.flatnonzero(marks.take(hit) >= r))
        marks[fresh] = -2 ** 30
        if 4 * hit.size >= u.size:
            del hit
            live = np.flatnonzero(~(fu | fv))
            u, v = u.take(live), v.take(live)
    return np.add.reduceat(marks < 0, np.arange(0, nodes, n), dtype=np.int32)


def _graph_closures(n: int, r: int, a: int):
    """Yield (edge counts, final sizes) of every graph on n nodes, by
    graph id 0 .. 2^C(n, 2) - 1 in order: graph g has slot s occupied iff
    bit s of g is set.  Each run of 4096 ids goes through the cascade
    engine as one disjoint union; a graph's closure does not depend on
    the union it ran in."""
    pairs = n * (n - 1) // 2
    total = 1 << pairs
    for start in range(0, total, 1 << 12):
        ids = np.arange(start, min(start + (1 << 12), total), dtype=np.int64)
        bits = ((ids[:, None] >> np.arange(pairs)) & 1).astype(bool)
        u, v = _slot_pairs(np.flatnonzero(bits), n)
        yield bits.sum(axis=1), _vector_cascade_sizes(u, v, ids.size, n, r, a)


@lru_cache(maxsize=128)
def _closure_table(n: int, r: int, a: int) -> np.ndarray:
    """Final size of every graph on n nodes by graph id (_graph_closures).
    The table does not depend on p, so it is cached, and read-only
    because the cache hands the same array to every call."""
    table = np.concatenate([s for _, s in _graph_closures(n, r, a)])
    table.setflags(write=False)
    return table


def _band_levels(n: int, s: int, r: int, size: int, p: float,
                 gen: np.random.Generator):
    """Reveal every pair with an end among nodes 0..s-1 of `size` graphs
    G(n, p).  Returns each graph's band nodes of degree < r, and its
    other nodes counted by band neighbours capped at r: row j of the
    (r + 1, size) counts holds those with j.  The levels are read off
    the sorted outer ends of the band edges, so a graph costs about its
    band edges, however many nodes lie outside the band."""
    band = s * (2 * n - s - 1) // 2
    slots = _sample_edge_slots(size * band, p, gen)
    u, v = _slot_pairs(slots, n, s)
    # graph g's edges are one run of the slots and its node i is g n + i
    graph = np.repeat(np.arange(size), np.diff(
        np.searchsorted(slots, np.arange(size + 1) * band)))
    del slots
    local = v - graph * n
    outer = local >= s
    # the outer ends sorted (as int32, twice as fast, where it holds them):
    # each run is one node and its length the node's band neighbours
    ends = v[outer]
    if size * n < 2 ** 31:
        ends = ends.astype(np.int32)
    ends.sort()
    head = np.empty(ends.size, dtype=bool)
    head[:1] = True
    np.not_equal(ends[1:], ends[:-1], out=head[1:])
    first = np.flatnonzero(head)
    marks = np.diff(first, append=ends.size)
    np.minimum(marks, r, out=marks)
    marks *= size
    marks += ends.take(first) // n
    levels = np.bincount(marks, minlength=(r + 1) * size).reshape(r + 1, size)
    levels[0] = (n - s) - levels[1:].sum(axis=0)
    # band node i of graph g at g s + i: the lower end of each edge and
    # the upper end of each edge inside the band
    u -= graph * (n - s)
    np.logical_not(outer, out=outer)
    degree = np.bincount(u, minlength=size * s)
    degree += np.bincount(local[outer] + graph[outer] * s, minlength=size * s)
    return (degree.reshape(size, s) < r).sum(axis=1), levels


def _survivor_low_counts(levels: np.ndarray, p: float,
                         gen: np.random.Generator) -> np.ndarray:
    """Per column of `levels` (row j: nodes with j < r revealed
    neighbours, no pair among them revealed), the nodes of degree < r
    once their own G(m, p) is drawn: the level plus the degree in it.
    Nodes are exchangeable within a level, so graph g's nodes take its
    levels in ascending order.  The columns run in batches of about
    _CHUNK_ELEMENTS pairs drawn and nodes, so a chunk of _map_chunks that
    calls this stays within its budget."""
    r, size = levels.shape
    nodes = levels.sum(axis=0)
    pairs = nodes * (nodes - 1) // 2
    cost = pairs * p + nodes
    batch = (np.cumsum(cost) - cost) // _CHUNK_ELEMENTS
    cuts = [0, *(np.flatnonzero(np.diff(batch)) + 1), size]
    out = np.empty(size, dtype=np.int64)
    for a, b in zip(cuts[:-1], cuts[1:]):
        m = nodes[a:b]
        u, v = _slot_pairs(_sample_edge_slots(int(pairs[a:b].sum()), p, gen), m)
        degree = np.repeat(np.tile(np.arange(r), b - a),
                           levels[:, a:b].T.ravel())
        degree += np.bincount(u, minlength=degree.size)
        degree += np.bincount(v, minlength=degree.size)
        del u, v
        low = np.zeros(degree.size + 1, dtype=np.int64)  # low nodes before
        np.cumsum(degree < r, out=low[1:])
        out[a:b] = np.diff(low.take(np.cumsum(m)), prepend=0)
    return out


def low_degree_counts(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of D_n draws (nodes of degree < r in G(n, p)) by deferred
    decisions: a pair is drawn only when its presence is needed.

    Pairs among the nodes not yet processed stay i.i.d. Bernoulli(p),
    whatever was revealed before, so it is enough to keep each such
    node's level, its processed neighbours capped at r.  A node at level
    r (saturated) has degree >= r, so it is not low.

    * Band: every pair with an end among nodes 0..s-1 is drawn,
      s = min(n, max(r, ceil(2 a_c))) (_band_levels); the band nodes'
      degrees give their share of D and the other nodes' levels follow.
    * Leaps: while k > 0 nodes are saturated, all of them are processed
      at once, so each unsaturated node gains Bin(k, p) marks: the mark
      chain's leap of margin k (_mark_leap), whose newly saturated nodes
      are the next k.  Saturation spreads as bootstrap percolation seeded
      by the band, so few nodes are left when it stops.
    * Finish: the graph among the nodes left is drawn, and each counts
      as low by its level plus its degree there (_survivor_low_counts).

    Band and finish draw at most the C(n, 2) pairs per replicate that the
    whole graph holds; where a_c >= n/2 (np <= 1 at r = 2) the band is
    the whole graph.
    """
    gen = _check_batch(replicates, rng)
    n, p, r = params.n, params.p, params.r
    _check_graph_cap(n, "low_degree_counts")
    if p in (0.0, 1.0):
        low = n if p == 0.0 or n - 1 < r else 0
        return np.full(replicates, low, dtype=np.int64)
    # 2 a_c = 2 (1 - 1/r) t_c from ln t_c, which is finite at any p > 0
    log_2a_c = math.log(2.0 - 2.0 / r) + _log_t_c(n, p, r)
    s = min(n, max(r, math.ceil(math.exp(min(log_2a_c, math.log(n))))))
    chances = _leap_chance_lookup(n, p, r, replicates)
    band = s * (2 * n - s - 1) // 2

    def fill(size, g):
        low, levels = (np.concatenate(x, axis=-1) for x in zip(*(
            _band_levels(n, s, r, m, p, g)
            for _, m in _chunks(size, 4 * band * p + s, _CHUNK_ELEMENTS))))
        counts, margin = levels[:r], levels[r]
        idx = np.flatnonzero(margin)
        live, margin = counts[:, idx], margin[idx]
        while idx.size:
            margin = _mark_leap(live, margin, chances, g)
            done = margin == 0
            counts[:, idx[done]] = live[:, done]
            keep = np.flatnonzero(margin)
            idx, live, margin = idx[keep], live[:, keep], margin[keep]
        return low + _survivor_low_counts(counts, p, g)
    # batched by a leap's working set, as in the mark chain; inside a chunk
    # the band runs in batches of a quarter chunk of edges (it holds about
    # seven arrays of them at its peak) and the finish in batches of a
    # chunk of pairs and nodes, so two chunks at once hold two chunks' worth
    return _map_chunks(replicates, 4 * r + 4, gen, fill)


def final_sizes_graph(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the graph sampler: draw G(n, p), seed
    nodes {1..a}, iterate generations to the fixpoint.

    Seeds are fixed rather than resampled uniformly: by node
    exchangeability the law of the final size is the same, and one
    randomness source less keeps coupling tests simple.

    A sure A* (_sure_final_size) is returned without drawing.  Each chunk
    draws its graphs' slots as one disjoint union and decodes them at
    once, so nothing holds them past the decode.  When the 2^C(n, 2)
    graphs are at most the replicate count and the batch budget (n <= 6
    in practice), every graph's final size is read off one table per
    (n, r, a), enumerated once per process whatever p is (_closure_table),
    by each replicate's graph id (_slot_ids); otherwise each chunk runs
    the cascade.  The draws are the same either way, and so are the sizes.
    """
    gen = _check_batch(replicates, rng)
    n, p, r, a = params.n, params.p, params.r, params.a
    _check_graph_cap(n, "graph sampler", "; use the leap, mark-chain or "
                     "activation-time sampler instead")
    sure = _sure_final_size(params)
    if sure is not None:
        return np.full(replicates, sure, dtype=np.int64)
    pairs = n * (n - 1) // 2
    # 2^pairs <= min(replicates, budget), never building 2^pairs for a large n
    if pairs < _BATCH_ELEMENTS.bit_length() and 1 << pairs <= replicates:
        table = _closure_table(n, r, a)

        def fill(size, g):
            return table.take(_slot_ids(
                _sample_edge_slots(size * pairs, p, g), size, pairs))
    else:
        def fill(size, g):
            return _vector_cascade_sizes(*_slot_pairs(
                _sample_edge_slots(size * pairs, p, g), n), size, n, r, a)
    return _map_chunks(replicates, pairs * p + n, gen, fill)


SAMPLER_BATCHES = {
    "graph": final_sizes_graph,
    "markchain": final_sizes_markchain,
    "activation": final_sizes_activation,
    "leap": final_sizes_leap,
}
