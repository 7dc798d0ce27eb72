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
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._segments import gather_rows, sorted_unique
from .graph import GraphError, validate_lt

IC_ENUM_EDGE_LIMIT = 22
LT_ENUM_OUTCOME_LIMIT = 1 << 22
_ENUM_CHUNK = 1 << 13


@dataclass(frozen=True)
class SpreadEstimate:
    """Monte-Carlo spread estimate with a standard error."""

    mean: float
    simulations: int
    std_error: float
    hop_limit: int | None


def _check_seeds(g, seeds):
    seed_ids = np.unique(np.asarray(list(seeds), dtype=np.int64))
    bad = seed_ids[(seed_ids < 0) | (seed_ids >= g.node_count)]
    if len(bad):
        raise GraphError(f"invalid seed id {int(bad[0])}")
    return seed_ids


def _check_hop_limit(hop_limit):
    if hop_limit is not None and hop_limit < 0:
        raise ValueError(f"hop_limit must be >= 0, got {hop_limit}")


def _cascade(g, seed_ids, model, hop_limit, rng, record_levels=False):
    """One diffusion sample, activated level by level.

    Cascade model: each live-edge coin is flipped at most once. Threshold
    model: thresholds are drawn once, and a node activates when the weight
    of its active in-neighbours reaches its threshold.
    """
    n = g.node_count
    if model == "lt":
        # U(0, 1] thresholds so that P[threshold <= w] = w exactly.
        theta = 1.0 - rng.random(n)
        acc = np.zeros(n)
    elif model != "ic":
        raise ValueError(f"unknown diffusion model {model!r}")
    active = np.zeros(n, dtype=bool)
    active[seed_ids] = True
    frontier = seed_ids
    levels = [len(seed_ids)]
    hops = 0
    while len(frontier) and (hop_limit is None or hops < hop_limit):
        pos = gather_rows(g.out_indptr, frontier)[0]
        if len(pos) == 0:
            break
        targets = g.out_dst[pos]
        if model == "ic":
            hit = targets[rng.random(len(pos)) < g.out_prob[pos]]
            frontier = sorted_unique(hit[~active[hit]])
        else:
            np.add.at(acc, targets, g.out_prob[pos])
            cand = sorted_unique(targets)
            cand = cand[~active[cand]]
            frontier = cand[acc[cand] >= theta[cand]]
        active[frontier] = True
        hops += 1
        if record_levels:
            levels.append(levels[-1] + len(frontier))
    if record_levels:
        return levels
    return int(active.sum())


def simulate_once(g, seeds, model="ic", hop_limit=None, rng=None):
    """Run one diffusion cascade and return the activated-node count."""
    _check_hop_limit(hop_limit)
    seed_ids = _check_seeds(g, seeds)
    if rng is None:
        rng = np.random.default_rng()
    return _cascade(g, seed_ids, model, hop_limit, rng)


def _sim_chunk(g, seed_ids, model, hop_limit, rng_seed, lo, hi):
    base = np.random.PCG64(rng_seed)
    out = np.empty(hi - lo)
    for i in range(lo, hi):
        out[i - lo] = _cascade(g, seed_ids, model, hop_limit, np.random.Generator(base.jumped(i)))
    return out


def estimate_spread(g, seeds, model="ic", hop_limit=None, n_sims=10000, rng_seed=None, workers=1):
    """Mean spread over independent simulations.

    Simulation i always runs on sub-stream i of the seeded generator, so the
    result is identical for any worker count; the workers only split the
    index range.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    _check_hop_limit(hop_limit)
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown diffusion model {model!r}")
    seed_ids = _check_seeds(g, seeds)
    if rng_seed is None:
        rng_seed = int(np.random.SeedSequence().entropy) % (2**63)
    if workers <= 1:
        counts = _sim_chunk(g, seed_ids, model, hop_limit, rng_seed, 0, n_sims)
    else:
        bounds = np.linspace(0, n_sims, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                _sim_chunk,
                *zip(*[(g, seed_ids, model, hop_limit, rng_seed, int(lo), int(hi))
                       for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]),
            )
            counts = np.concatenate(list(parts))
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / np.sqrt(n_sims)) if n_sims > 1 else 0.0
    return SpreadEstimate(mean=mean, simulations=n_sims, std_error=se, hop_limit=hop_limit)


def estimate_hop_profile(g, seeds, model="ic", n_sims=1000, rng_seed=None):
    """Mean cumulative activations per hop from full-length cascades.

    Returns (means, std_errors) where means[h] is the average number of nodes
    active within h hops; the last entry is the unlimited-hop spread. Within
    one sample the counts are non-decreasing in h by construction.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    seed_ids = _check_seeds(g, seeds)
    if rng_seed is None:
        rng_seed = int(np.random.SeedSequence().entropy) % (2**63)
    base = np.random.PCG64(rng_seed)
    profiles = []
    for i in range(n_sims):
        rng = np.random.Generator(base.jumped(i))
        profiles.append(_cascade(g, seed_ids, model, None, rng, record_levels=True))
    depth = max(len(p) for p in profiles)
    table = np.empty((n_sims, depth))
    for i, p in enumerate(profiles):
        table[i, : len(p)] = p
        table[i, len(p):] = p[-1]
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
    if model == "ic":
        if m > IC_ENUM_EDGE_LIMIT:
            raise ValueError(f"instance too large for enumeration: {m} edges > {IC_ENUM_EDGE_LIMIT}")
        src = np.repeat(np.arange(n, dtype=np.int64), g.out_degrees())
        p = g.out_prob[:, None]
        total = 1 << m
        for lo in range(0, total, _ENUM_CHUNK):
            outcomes = np.arange(lo, min(lo + _ENUM_CHUNK, total), dtype=np.uint64)
            live = ((outcomes >> np.arange(m, dtype=np.uint64)[:, None]) & 1).astype(bool)
            yield src, g.out_dst, np.where(live, p, 1.0 - p).prod(axis=0), live
    elif model == "lt":
        if validate_lt(g):
            raise GraphError("graph is not admissible for threshold diffusion")
        indeg = g.in_degrees().astype(np.int64)
        space = 1
        for d in indeg:
            space *= int(d) + 1
            if space > LT_ENUM_OUTCOME_LIMIT:
                raise ValueError("instance too large for enumeration: choice space exceeds limit")
        strides = np.ones(n, dtype=np.int64)
        np.cumprod(indeg[:-1] + 1, out=strides[1:])
        dst = np.repeat(np.arange(n, dtype=np.int64), indeg)
        slot = np.arange(m) - g.in_indptr[dst]
        none_p = np.clip(1.0 - np.bincount(dst, weights=g.in_prob, minlength=n), 0.0, 1.0)
        # Node v's choices: its in-edges in order, then none, from offset in_indptr[v] + v.
        choice_p = np.insert(g.in_prob, g.in_indptr[1:], none_p)
        first = (g.in_indptr[:-1] + np.arange(n))[:, None]
        for lo in range(0, space, _ENUM_CHUNK):
            outcomes = np.arange(lo, min(lo + _ENUM_CHUNK, space), dtype=np.int64)
            choice = (outcomes // strides[:, None]) % (indeg + 1)[:, None]
            yield g.in_src, dst, choice_p[first + choice].prod(axis=0), choice[dst] == slot[:, None]
    else:
        raise ValueError(f"unknown diffusion model {model!r}")


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
    _check_hop_limit(hop_limit)
    seed_ids = _check_seeds(g, seeds)
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
        _check_hop_limit(hop_limit)
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
