"""Four distribution-equivalent samplers of the percolation outcome.

* graph sampler: draws a batch of G(n, p) graphs as one disjoint union and
  runs one synchronous-generation cascade on its live edges, or, where
  the 2^C(n, 2) graphs are few (n <= 6), reads each one's final size off
  one enumeration of them all by that engine (_graph_closures, which
  ``oracle.brute_force_pmf`` sums by edge count), from the same draws;
  low_degree_counts reads degrees straight off the sampled slots;
* mark chain: one active node is used per time step and sends Bernoulli(p)
  marks to the inactive nodes; a node activates at its r-th mark.  It
  keeps the inactive nodes counted by marks held and leaps over each
  stretch where it cannot stop: the M = A - t steps of a leap give every
  inactive node Bin(M, p) marks at once, so a replicate costs a few dozen
  leaps of r(r + 1)/2 binomial draws at any n;
* activation times: each non-seed node gets an i.i.d. r-th-success time
  Y_i, whose order statistics are read off the prefix sums of n - a + 1
  exponential spacings (Renyi's representation) against one table of
  Q(t) = P(Bin(t, p) <= r - 1).  A longer row draws only the Gamma sums
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

All randomness flows through an RngSpec (seed, stream), so a replicate is
reproducible bit-for-bit within one build.  Of the samplers only the
activation-time one is coupled monotonically in p: its spacings do not
depend on p (a block expands from its own sum and key, whichever blocks
are expanded) and Q(t) falls as p grows, so its sizes at p1 < p2 from one
RngSpec are ordered elementwise.  The graph, mark-chain and leap
samplers draw p-dependent variables, so theirs are not.

The graph, mark-chain, activation-time and leap samplers run replicates in
batches of about _BATCH_ELEMENTS elements per array, so each holds a few
MB beyond its output at any replicate count; the budget moves the
realised draws, not the law.  Every log Q table over a run of times (the
activation sampler's, the splitting estimator's) is filled by _fill_log_q
in such chunks, so it costs a few MB beyond itself at any length.  The
splitting estimator in montecarlo runs its four groups of chains through
_leap_to_level in as few such batches as fit (one up to 16384 replicates
per level), which likewise moves its realised draws, not its law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ._binom import _log1p_sum_exp, _log_head_terms, log_cdf_head
from .core import ModelParams, _sure_final_size
from .errors import MemoryGuardError, ParameterError

__all__ = [
    "RngSpec", "final_sizes_graph", "final_sizes_markchain",
    "final_sizes_activation", "final_sizes_leap", "low_degree_counts",
    "GRAPH_NODE_CAP", "ACTIVATION_NODE_CAP", "REPLICATE_CAP",
]

#: the graph sampler refuses instances above this node count
GRAPH_NODE_CAP = 100_000
#: the activation-time sampler refuses rows of more non-seed nodes; one
#: replicate at the cap peaks near 98 MB (the 80 MB Q table and a few
#: batch budgets of work arrays)
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
    if not isinstance(replicates, (int, np.integer)) \
            or isinstance(replicates, bool) or replicates < 1:
        raise ParameterError(
            f"replicates must be an integer >= 1, got {replicates!r}")
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
    """Per row of m + 1 spacings (summed in place), the first t in
    [a, a + m) with P_{a+m-t} < P_{m+1} q[t - a], else a + m."""
    size, m = spacings.shape[0], spacings.shape[1] - 1
    prefix = np.cumsum(spacings, axis=1, out=spacings)  # column j - 1: P_j
    prefix[:, :m] *= (1.0 / prefix[:, m])[:, None]
    stop = np.ones((size, m + 1), dtype=bool)  # column t - a, t = a + m last
    np.less(prefix[:, m - 1::-1], q, out=stop[:, :m])
    return a + np.argmax(stop, axis=1)


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
    for start, count in _chunks(open_.size, width):
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
    lengths = _block_lengths(m)
    blocks, width = lengths.size, int(lengths[0])
    # entry k - 1 is Q(n - k) for k = 1..m; the padding to whole blocks
    # is -1, so no stop can fall there
    q = np.full(blocks * width, -1.0)
    _fill_log_q(q[m - 1::-1], a, p, r)
    np.exp(q[:m], out=q[:m])
    out = np.empty(replicates, dtype=np.int64)
    if blocks == 1:
        for start, size in _chunks(replicates, m + 1):
            out[start:start + size] = _stop_from_spacings(
                gen.standard_exponential((size, m + 1)), q[m - 1::-1], a)
        return out
    q_blocks = q.reshape(blocks, width)
    bound = q_blocks.max(axis=1)
    # a row holds four numbers per block: its sum, key, prefix and test
    for start, size in _chunks(replicates, 4 * blocks):
        sums = gen.standard_gamma(lengths, (size, blocks))
        keys = gen.integers(2 ** 64, size=(size, blocks), dtype=np.uint64)
        out[start:start + size] = n - _largest_hits(
            sums, keys, q_blocks, bound, lengths)
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
    _check_replicates(replicates)
    sure = _sure_final_size(params)
    if sure is not None:
        return np.full(replicates, sure, dtype=np.int64)
    gen = _as_generator(rng)
    n, p, r = params.n, params.p, params.r
    log_q = (_fill_log_q(np.empty(n + 1), 0, p, r).take
             if n + 1 <= min(replicates, _BATCH_ELEMENTS)
             else partial(log_cdf_head, q=p, k=r - 1))
    out = np.empty(replicates, dtype=np.int64)
    # at a leap's peak a chain holds the r - 1 head terms of log Q three
    # times over and about 14 state numbers, so chunks of r + 10 numbers
    # per chain keep it under 3 budgets
    for start, size in _chunks(replicates, r + 10):
        origin = np.zeros(size, dtype=np.int64)
        out[start:start + size] = _leap_to_level(
            params, origin, origin, 0, n, gen, log_q)[1]
    return out


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
    activates nobody stops the replicate at A* = A.  Exact in law.  A
    leap's chances depend on its margin M <= n alone: they are gathered
    from one table over 0..n when n + 1 is at most the replicate count
    and the batch budget over 2r (the table's 2r - 1 rows), and evaluated
    at the margins otherwise; _leap_chances is elementwise, so both give
    the same draws.
    """
    _check_replicates(replicates)
    sure = _sure_final_size(params)
    if sure is not None:
        return np.full(replicates, sure, dtype=np.int64)
    gen = _as_generator(rng)
    n, p, r, a = params.n, params.p, params.r, params.a
    table = (_leap_chances(np.arange(n + 1), p, r)
             if n + 1 <= min(replicates, _BATCH_ELEMENTS // (2 * r)) else None)
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
            act, up = ((x.take(margin, axis=1) for x in table) if table
                       else _leap_chances(margin, p, r))
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
# synchronous-generation cascade on its live edges

def _sample_edge_slots(total_slots: int, p: float,
                       gen: np.random.Generator) -> np.ndarray:
    """Indices of occupied slots among `total_slots` Bernoulli(p) slots, by
    cumulative geometric gaps 1 + floor(log1p(-u) / log1p(-p)), u uniform."""
    if p == 0.0 or total_slots == 0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(total_slots, dtype=np.int64)
    positions = []
    base = 0
    mean_gap = 1.0 / p
    while base < total_slots:
        want = max(64, int((total_slots - base) / mean_gap * 1.2) + 16)
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


def _slot_pairs(slots: np.ndarray, n: int):
    """Edge ends (u, v) of slot indices: slot k * C(n, 2) + s is the s-th
    pair i < j (row-major) of replicate k, whose node i is k * n + i.

    Row i starts at offsets[i] = i (2n - i - 1) / 2, whose inverse is
    u = floor(((2n - 1) - sqrt((2n - 1)^2 - 8s)) / 2).  In floats that
    root is off by far less than one, so one integer correction each way
    against the offsets gives the row exactly (offsets[n] = C(n, 2))."""
    pairs = n * (n - 1) // 2
    rep = slots // pairs
    v = slots - rep * pairs
    i = np.arange(n + 1, dtype=np.int64)
    offsets = i * (2 * n - i - 1) // 2
    w = 2 * n - 1
    root = v * -8.0
    root += w * w  # exact below 2^53
    np.subtract(w, np.sqrt(root, out=root), out=root)
    root *= 0.5
    u = np.floor(root, out=root).astype(np.int64)
    del root
    u += offsets[1:].take(u) <= v
    u -= offsets.take(u) > v
    v -= (offsets - i - 1).take(u)
    rep *= n
    u += rep
    v += rep
    return u, v


def _slot_degrees(slots: np.ndarray, reps: int, n: int) -> np.ndarray:
    """Node degrees of `reps` disjoint graphs from their ascending slots,
    no pair decoded: node g = k n + i is the lower end of its row's slots
    s >= start = k C(n, 2) + offsets[i], and s - start + g + 1 the upper."""
    i = np.arange(n, dtype=np.int64)
    starts = (np.arange(reps)[:, None] * (n * (n - 1) // 2)
              + i * (2 * n - i - 1) // 2).ravel()
    lower = np.diff(np.searchsorted(slots, starts), append=slots.size)
    starts -= np.arange(1, reps * n + 1)
    return lower + np.bincount(slots - np.repeat(starts, lower),
                               minlength=reps * n)


def _slot_ids(slots: np.ndarray, reps: int, pairs: int) -> np.ndarray:
    """Graph ids of `reps` disjoint graphs of `pairs` slots each: bit s of
    replicate k's id is set iff slot k * pairs + s is occupied.  Each id
    is the float32 dot product of the replicate's slot indicators with
    the powers of two, exact while ids stay below 2^24."""
    occupied = np.zeros(reps * pairs, dtype=np.float32)
    occupied[slots] = 1.0
    powers = (2.0 ** np.arange(pairs)).astype(np.float32)
    return (occupied.reshape(reps, pairs) @ powers).astype(np.int64)


def _graph_batches(params: ModelParams, replicates: int, rng, reduce):
    """Per chunk of `size` replicates, keep the `size` values
    reduce(draw, size), where draw() returns the ascending slots of `size`
    independent G(n, p) graphs as one disjoint union (drawn on call, so a
    reduce can drop them once decoded); returns all of them in order."""
    _check_replicates(replicates)
    n, p = params.n, params.p
    if n > GRAPH_NODE_CAP:
        raise MemoryGuardError(
            f"graph sampler refuses n = {n} above the cap {GRAPH_NODE_CAP}; "
            "use the leap, mark-chain or activation-time sampler instead")
    gen = _as_generator(rng)
    pairs = n * (n - 1) // 2
    out = np.empty(replicates, dtype=np.int64)
    for start, size in _chunks(replicates, pairs * p + n):
        out[start:start + size] = reduce(
            partial(_sample_edge_slots, size * pairs, p, gen), size)
    return out


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


def low_degree_counts(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of D_n draws (nodes of degree < r in G(n, p)) by _slot_degrees."""
    n, r = params.n, params.r
    return _graph_batches(
        params, replicates, rng, lambda draw, size: (
            _slot_degrees(draw(), size, n).reshape(size, n) < r).sum(axis=1))


def final_sizes_graph(params: ModelParams, replicates: int, rng) -> np.ndarray:
    """Batch of A* values from the graph sampler: draw G(n, p), seed
    nodes {1..a}, iterate generations to the fixpoint.

    Seeds are fixed rather than resampled uniformly: by node
    exchangeability the law of the final size is the same, and one
    randomness source less keeps coupling tests simple.

    When the 2^C(n, 2) graphs are at most the replicate count and the
    batch budget (n <= 6 in practice), every graph's final size is
    enumerated once (_graph_closures) and each replicate reads its own
    by graph id (_slot_ids); otherwise each batch runs the cascade.  The
    draws are the same either way, and so are the sizes.
    """
    n, r, a = params.n, params.r, params.a
    pairs = n * (n - 1) // 2
    # 2^pairs <= min(replicates, budget), never building 2^pairs for a large n
    if pairs < _BATCH_ELEMENTS.bit_length() and 1 << pairs <= replicates:
        table = np.concatenate([s for _, s in _graph_closures(n, r, a)])
        return _graph_batches(params, replicates, rng, lambda draw, size:
                              table.take(_slot_ids(draw(), size, pairs)))
    return _graph_batches(
        params, replicates, rng, lambda draw, size: _vector_cascade_sizes(
            *_slot_pairs(draw(), n), size, n, r, a))


SAMPLER_BATCHES = {
    "graph": final_sizes_graph,
    "markchain": final_sizes_markchain,
    "activation": final_sizes_activation,
    "leap": final_sizes_leap,
}
