"""Ground-truth spread computation.

Three tiers: Monte-Carlo cascade simulation for arbitrary graphs, exhaustive
live-edge enumeration for exact expected spread on tiny instances, and an
exhaustive optimal-seed-set search built on top of the enumeration. The
enumeration treats a diffusion outcome as a live-edge graph (Kempe,
Kleinberg & Tardos, KDD 2003): under the cascade model every edge is
independently live or blocked; under the threshold model every node keeps at
most one live incoming edge, chosen with its weight as probability. Both
models share one outcome generator and one reachability kernel, which ORs
per-node bitsets along live edges one hop per level: `exact_spread` starts
it from one bit at each seed, `ExactSpreadTable` from bit u at each node u.

Monte-Carlo stream contract: simulation i runs on sub-stream i
(`PCG64(rng_seed).jumped(i)`), whatever the worker count. A threshold
simulation first draws all n thresholds; a cascade simulation then draws
one coin per examined edge, in (level, ascending frontier node, CSR edge)
order, and each level's frontier is sorted and unique. Threshold sums are
accumulated in that same order, so every count is fixed by the seed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from ._segments import gather_rows, sorted_unique
from .graph import GraphError, check_model

IC_ENUM_EDGE_LIMIT = 22
LT_ENUM_OUTCOME_LIMIT = 1 << 22
_ENUM_CHUNK = 1 << 13


@dataclass(frozen=True)
class SpreadEstimate:
    """Monte-Carlo spread estimate with a standard error."""

    mean: float
    std_error: float


def fresh_seed():
    """A seed from OS entropy, for runs given none."""
    return int(np.random.SeedSequence().entropy) % (2**63)


def _check_seeds(g, seeds):
    """Sorted unique int64 ids; anything but an integer within int64 is an error, not cast."""
    ids = [s.item() if isinstance(s, np.generic) else s for s in seeds]
    for s in ids:
        if isinstance(s, bool) or not isinstance(s, int) or not -(2**63) <= s < 2**63:
            raise GraphError(f"invalid seed id {s!r}")
    seed_ids = np.unique(np.array(ids, dtype=np.int64))
    bad = seed_ids[(seed_ids < 0) | (seed_ids >= g.node_count)]
    if len(bad):
        raise GraphError(f"invalid seed id {int(bad[0])}")
    return seed_ids


def _check_run(g, seeds, model, hop_limit):
    """The seed ids of a diffusion run, once its hop limit, model and seeds pass their checks."""
    if hop_limit is not None and hop_limit < 0:
        raise ValueError(f"hop_limit must be >= 0, got {hop_limit}")
    check_model(g, model)
    return _check_seeds(g, seeds)


def _out_rows(g, nodes):
    """Flat out-edge positions of `nodes`, in order, and their probabilities."""
    pos = gather_rows(g.out_indptr, nodes)[0]
    return pos, g.out_prob.take(pos)


def _cascade(g, seed_ids, model, hop_limit, rng, seed_rows):
    """One diffusion sample, activated level by level; returns the cumulative
    active count after each level, seeds first.

    Cascade model: each live-edge coin is flipped at most once. Threshold
    model: thresholds are drawn once, and a node activates when the weight
    of its active in-neighbours reaches its threshold. `seed_rows` is
    `_out_rows(g, seed_ids)`, the level-0 edges of every sample.
    """
    n = g.node_count
    if model == "lt":
        # U(0, 1] thresholds so that P[threshold <= w] = w exactly.
        theta = 1.0 - rng.random(n)
        acc = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    active[seed_ids] = True
    frontier = seed_ids
    pos, prob = seed_rows
    levels = [len(seed_ids)]
    hops = 0
    while len(frontier) and (hop_limit is None or hops < hop_limit):
        if hops:
            pos, prob = _out_rows(g, frontier)
        if len(pos) == 0:
            break
        if model == "ic":
            hit = g.out_dst.take(pos.take(np.flatnonzero(rng.random(len(pos)) < prob)))
            fresh = np.compress(~active.take(hit), hit)
        else:
            targets = g.out_dst.take(pos)
            np.add.at(acc, targets, prob)
            crossed = ~active.take(targets) & (acc.take(targets) >= theta.take(targets))
            fresh = np.compress(crossed, targets)
        frontier = sorted_unique(fresh)
        active[frontier] = True
        hops += 1
        levels.append(levels[-1] + len(frontier))
    return levels


def simulate_once(g, seeds, model="ic", hop_limit=None, rng=None):
    """Run one diffusion cascade and return the activated-node count."""
    seed_ids = _check_run(g, seeds, model, hop_limit)
    if rng is None:
        rng = np.random.default_rng()
    return _cascade(g, seed_ids, model, hop_limit, rng, _out_rows(g, seed_ids))[-1]


def _sim_chunk(g, seed_ids, model, hop_limit, rng_seed, lo, hi):
    """Level lists of simulations lo..hi-1; simulation i runs on sub-stream i."""
    base = np.random.PCG64(rng_seed)
    seed_rows = _out_rows(g, seed_ids)
    return [_cascade(g, seed_ids, model, hop_limit, np.random.Generator(base.jumped(i)), seed_rows)
            for i in range(lo, hi)]


def _simulate(g, seeds, model, hop_limit, n_sims, rng_seed, workers):
    """Level lists of simulations 0..n_sims-1, simulation i on sub-stream i
    of `rng_seed` (drawn if None), so they are identical for any worker
    count; the workers only split the index range."""
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    seed_ids = _check_run(g, seeds, model, hop_limit)
    if rng_seed is None:
        rng_seed = fresh_seed()
    # A pool forks all its workers at its first submit: cap them to the work and the CPUs.
    workers = min(workers, n_sims, os.cpu_count() or 1)
    if workers <= 1:
        return _sim_chunk(g, seed_ids, model, hop_limit, rng_seed, 0, n_sims)
    from concurrent.futures import ProcessPoolExecutor  # ~2 MiB of RSS that one worker never needs
    bounds = np.linspace(0, n_sims, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(
            _sim_chunk,
            *zip(*[(g, seed_ids, model, hop_limit, rng_seed, int(lo), int(hi))
                   for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]),
        )
        return [levels for part in parts for levels in part]


def estimate_spread(g, seeds, model="ic", hop_limit=None, n_sims=10000, rng_seed=None, workers=1):
    """Mean spread over independent simulations, identical for any worker count."""
    runs = _simulate(g, seeds, model, hop_limit, n_sims, rng_seed, workers)
    counts = np.array([levels[-1] for levels in runs], dtype=float)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / np.sqrt(n_sims)) if n_sims > 1 else 0.0
    return SpreadEstimate(mean=mean, std_error=se)


def estimate_hop_profile(g, seeds, model="ic", n_sims=1000, rng_seed=None):
    """Mean cumulative activations per hop from full-length cascades.

    Returns (means, std_errors) where means[h] is the average number of nodes
    active within h hops; the last entry is the unlimited-hop spread. Within
    one sample the counts are non-decreasing in h by construction.
    """
    profiles = _simulate(g, seeds, model, None, n_sims, rng_seed, 1)
    depth = max(map(len, profiles))
    table = np.array([p + p[-1:] * (depth - len(p)) for p in profiles], dtype=float)
    means = table.mean(axis=0)
    ses = table.std(axis=0, ddof=1) / np.sqrt(n_sims) if n_sims > 1 else np.zeros(depth)
    return means, ses


def _outcome_chunks(g, model):
    """Every diffusion outcome of `g` as a live-edge graph, in chunks.

    Yields (src, dst, prob, live): one edge list, the probability of each
    outcome in the chunk and an (edges x outcomes) live mask. Under the
    cascade model each edge is live independently with its probability;
    under the threshold model node v keeps at most one live in-edge, (u, v)
    with probability w_uv and none with 1 - sum of v's in-weights.
    """
    n, m = g.node_count, g.edge_count
    src = np.repeat(np.arange(n, dtype=np.int64), g.out_degrees())
    if model == "ic":
        if m > IC_ENUM_EDGE_LIMIT:
            raise ValueError(f"instance too large for enumeration: {m} edges > {IC_ENUM_EDGE_LIMIT}")
        p = g.out_prob[:, None]
        total = 1 << m
        for lo in range(0, total, _ENUM_CHUNK):
            outcomes = np.arange(lo, min(lo + _ENUM_CHUNK, total), dtype=np.uint64)
            live = ((outcomes >> np.arange(m, dtype=np.uint64)[:, None]) & 1).astype(bool)
            yield src, g.out_dst, np.where(live, p, 1.0 - p).prod(axis=0), live
    else:  # lt, with every in-weight sum checked to be at most 1
        indeg = g.in_degrees().astype(np.int64)
        space = 1
        for d in indeg:
            space *= int(d) + 1
            if space > LT_ENUM_OUTCOME_LIMIT:
                raise ValueError("instance too large for enumeration: choice space exceeds limit")
        strides = np.ones(n, dtype=np.int64)
        np.cumprod(indeg[:-1] + 1, out=strides[1:])
        # In-edges grouped by target in ascending-source order; an edge's slot
        # is its rank among its target's in-edges.
        in_order = np.argsort(g.out_dst, kind="stable")
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(indeg, out=in_indptr[1:])
        slot = np.empty(m, dtype=np.int64)
        slot[in_order] = np.arange(m) - in_indptr[g.out_dst[in_order]]
        none_p = np.clip(1.0 - np.bincount(g.out_dst, weights=g.out_prob, minlength=n), 0.0, 1.0)
        # Node v's choices: its in-edges in order, then none, from offset in_indptr[v] + v.
        choice_p = np.insert(g.out_prob[in_order], in_indptr[1:], none_p)
        first = (in_indptr[:-1] + np.arange(n))[:, None]
        for lo in range(0, space, _ENUM_CHUNK):
            outcomes = np.arange(lo, min(lo + _ENUM_CHUNK, space), dtype=np.int64)
            choice = (outcomes // strides[:, None]) % (indeg + 1)[:, None]
            yield src, g.out_dst, choice_p[first + choice].prod(axis=0), choice[g.out_dst] == slot[:, None]


def _propagate(bits, src, dst, live, hop_limit):
    """OR each node's bitset along live edges, one hop per level.

    `bits` is (nodes x outcomes), bool for a single bit or int64 for up to
    63; the result's row v holds the OR of the starting rows of every node
    with a live path of at most `hop_limit` edges (any length if None) to v
    in that outcome.
    """
    levels = hop_limit if hop_limit is not None else max(len(bits) - 1, 1)
    for _ in range(levels):
        new = bits.copy()
        for e in range(len(src)):
            # Multiplying by the bool live mask keeps or clears the whole bitset.
            new[dst[e]] |= bits[src[e]] * live[e]
        if np.array_equal(new, bits):
            break
        bits = new
    return bits


def exact_spread(g, seeds, model="ic", hop_limit=None):
    """Exact expected spread by enumerating every diffusion outcome.

    Feasible only on tiny instances: 2^|E| outcomes under the cascade model,
    the product of (in-degree + 1) choices under the threshold model.
    """
    seed_ids = _check_run(g, seeds, model, hop_limit)
    n = g.node_count
    if n == 0 or len(seed_ids) == 0:
        return 0.0
    expected = 0.0
    for src, dst, prob, live in _outcome_chunks(g, model):
        bits = np.zeros((n, len(prob)), dtype=bool)
        bits[seed_ids] = True
        active = np.count_nonzero(_propagate(bits, src, dst, live, hop_limit), axis=0)
        expected += float(prob @ active)
    return expected


class ExactSpreadTable:
    """Exact spread for every seed set of a tiny graph, queried in O(1).

    Enumeration starts node u's bitset at 1 << u, so after propagation node
    x's bitset in each outcome is its `activator set` (the nodes whose
    seeding would activate x within the hop limit). A subset-sum transform
    of the activator-set probabilities gives D[c] = expected number of nodes
    NOT activated when the seed set is the complement of c, so
    spread(S) = |V| - D[complement of S].
    """

    def __init__(self, g, model="ic", hop_limit=None):
        _check_run(g, [], model, hop_limit)
        n = g.node_count
        if n > 20:
            raise ValueError("instance too large for subset spread table")
        self.node_count = n
        # Probability mass of each activator mask, summed over nodes.
        dsum = np.zeros(1 << n)
        for src, dst, prob, live in _outcome_chunks(g, model):
            bits = np.repeat(np.int64(1) << np.arange(n, dtype=np.int64)[:, None], len(prob), axis=1)
            acts = _propagate(bits, src, dst, live, hop_limit)
            dsum += np.bincount(acts.ravel(), weights=np.tile(prob, n), minlength=1 << n)
        # Subset-sum (zeta) transform over activator masks.
        for bit in range(n):
            step = 1 << bit
            idx = np.nonzero(np.arange(1 << n) & step)[0]
            dsum[idx] += dsum[idx - step]
        self._dsum = dsum
        self._full = (1 << n) - 1

    def spread(self, seeds):
        """Exact expected spread of the given seed set."""
        smask = 0
        for s in _check_seeds(self, seeds).tolist():
            smask |= 1 << s
        if smask == 0:
            return 0.0
        return float(self.node_count - self._dsum[self._full ^ smask])


def brute_force_optimal(g, k, model="ic", hop_limit=None):
    """Exhaustively maximize exact spread over all size-k seed sets.

    Ties go to the lexicographically smallest set.
    """
    n = g.node_count
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} nodes")
    table = ExactSpreadTable(g, model=model, hop_limit=hop_limit)
    best_set = None
    best = -1.0
    for combo in itertools.combinations(range(n), k):
        s = table.spread(combo)
        if s > best:
            best = s
            best_set = combo
    return best_set, best
