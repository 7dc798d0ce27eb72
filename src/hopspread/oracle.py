"""Ground-truth spread computation.

Three tiers: Monte-Carlo cascade simulation for arbitrary graphs, exhaustive
live-edge enumeration for exact expected spread on tiny instances, and an
exhaustive optimal-seed-set search built on top of the enumeration. The
enumeration treats a diffusion outcome as a deterministic graph: under the
cascade model every edge is independently live or blocked; under the
threshold model every node keeps at most one live incoming edge, chosen with
its weight as probability.
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
    if len(seed_ids) and (seed_ids.min() < 0 or seed_ids.max() >= g.node_count):
        raise GraphError(f"invalid seed id {int(seed_ids.max())}")
    return seed_ids


def _cascade_ic(g, seed_ids, hop_limit, rng, record_levels=False):
    """One cascade sample; each live-edge coin is flipped at most once."""
    active = np.zeros(g.node_count, dtype=bool)
    active[seed_ids] = True
    frontier = seed_ids
    levels = [len(seed_ids)]
    hops = 0
    while len(frontier) and (hop_limit is None or hops < hop_limit):
        pos = gather_rows(g.out_indptr, frontier)[0]
        if len(pos) == 0:
            break
        targets = g.out_dst[pos]
        hit = targets[rng.random(len(pos)) < g.out_prob[pos]]
        hit = hit[~active[hit]]
        frontier = sorted_unique(hit)
        active[frontier] = True
        hops += 1
        if record_levels:
            levels.append(levels[-1] + len(frontier))
    if record_levels:
        return levels
    return int(active.sum())


def _cascade_lt(g, seed_ids, hop_limit, rng, record_levels=False):
    """One threshold sample: thresholds drawn once, activation level-synchronous."""
    n = g.node_count
    # U(0, 1] thresholds so that P[threshold <= w] = w exactly.
    theta = 1.0 - rng.random(n)
    active = np.zeros(n, dtype=bool)
    active[seed_ids] = True
    acc = np.zeros(n)
    frontier = seed_ids
    levels = [len(seed_ids)]
    hops = 0
    while len(frontier) and (hop_limit is None or hops < hop_limit):
        pos = gather_rows(g.out_indptr, frontier)[0]
        if len(pos) == 0:
            break
        targets = g.out_dst[pos]
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
    seed_ids = _check_seeds(g, seeds)
    if rng is None:
        rng = np.random.default_rng()
    if model == "ic":
        return _cascade_ic(g, seed_ids, hop_limit, rng)
    if model == "lt":
        return _cascade_lt(g, seed_ids, hop_limit, rng)
    raise ValueError(f"unknown diffusion model {model!r}")


def _sim_chunk(g, seed_ids, model, hop_limit, rng_seed, lo, hi):
    base = np.random.PCG64(rng_seed)
    fn = _cascade_ic if model == "ic" else _cascade_lt
    out = np.empty(hi - lo)
    for i in range(lo, hi):
        out[i - lo] = fn(g, seed_ids, hop_limit, np.random.Generator(base.jumped(i)))
    return out


def estimate_spread(g, seeds, model="ic", hop_limit=None, n_sims=10000, rng_seed=None, workers=1):
    """Mean spread over independent simulations.

    Simulation i always runs on sub-stream i of the seeded generator, so the
    result is identical for any worker count; the workers only split the
    index range.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
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
    seed_ids = _check_seeds(g, seeds)
    if rng_seed is None:
        rng_seed = int(np.random.SeedSequence().entropy) % (2**63)
    base = np.random.PCG64(rng_seed)
    fn = _cascade_ic if model == "ic" else _cascade_lt
    profiles = []
    for i in range(n_sims):
        profiles.append(fn(g, seed_ids, None, np.random.Generator(base.jumped(i)), record_levels=True))
    depth = max(len(p) for p in profiles)
    table = np.empty((n_sims, depth))
    for i, p in enumerate(profiles):
        table[i, : len(p)] = p
        table[i, len(p):] = p[-1]
    means = table.mean(axis=0)
    ses = table.std(axis=0, ddof=1) / np.sqrt(n_sims) if n_sims > 1 else np.zeros(depth)
    return means, ses


def _ic_edge_arrays(g):
    srcs = np.repeat(np.arange(g.node_count, dtype=np.int64), g.out_degrees())
    return srcs, np.asarray(g.out_dst, dtype=np.int64), g.out_prob


def exact_spread(g, seeds, model="ic", hop_limit=None):
    """Exact expected spread by enumerating every diffusion outcome.

    Feasible only on tiny instances: 2^|E| outcomes under the cascade model,
    the product of (in-degree + 1) choices under the threshold model.
    """
    seed_ids = _check_seeds(g, seeds)
    n = g.node_count
    if n == 0 or len(seed_ids) == 0:
        return 0.0
    levels = hop_limit if hop_limit is not None else max(n - 1, 1)
    if model == "ic":
        return _exact_ic(g, seed_ids, levels)
    if model == "lt":
        return _exact_lt(g, seed_ids, levels)
    raise ValueError(f"unknown diffusion model {model!r}")


def _exact_ic(g, seed_ids, levels):
    m = g.edge_count
    if m > IC_ENUM_EDGE_LIMIT:
        raise ValueError(f"instance too large for enumeration: {m} edges > {IC_ENUM_EDGE_LIMIT}")
    n = g.node_count
    srcs, dsts, ps = _ic_edge_arrays(g)
    total = 1 << m
    expected = 0.0
    for lo in range(0, total, _ENUM_CHUNK):
        masks = np.arange(lo, min(lo + _ENUM_CHUNK, total), dtype=np.uint64)
        live = ((masks[:, None] >> np.arange(m, dtype=np.uint64)) & 1).astype(bool)
        w = np.where(live, ps, 1.0 - ps).prod(axis=1)
        reach = np.zeros((len(masks), n), dtype=bool)
        reach[:, seed_ids] = True
        for _ in range(levels):
            new = reach.copy()
            for e in range(m):
                new[:, dsts[e]] |= reach[:, srcs[e]] & live[:, e]
            if np.array_equal(new, reach):
                break
            reach = new
        expected += float(w @ reach.sum(axis=1))
    return expected


def _lt_choice_space(g):
    """Sizes, strides, and none-probabilities of per-node in-edge choices."""
    if validate_lt(g):
        raise GraphError("graph is not admissible for threshold diffusion")
    indeg = g.in_degrees().astype(np.int64)
    sizes = indeg + 1
    space = 1
    for s in sizes:
        space *= int(s)
        if space > LT_ENUM_OUTCOME_LIMIT:
            raise ValueError("instance too large for enumeration: choice space exceeds limit")
    strides = np.ones(g.node_count, dtype=np.int64)
    np.cumprod(sizes[:-1], out=strides[1:])
    none_p = np.empty(g.node_count)
    for v in range(g.node_count):
        _, ws = g.in_edges(v)
        none_p[v] = 1.0 - ws.sum()
    return sizes, strides, np.clip(none_p, 0.0, 1.0), space


def _lt_outcomes(g, lo, hi, sizes, strides, none_p):
    """Decode outcome indices [lo, hi) into (probabilities, chosen sources)."""
    idxs = np.arange(lo, hi, dtype=np.int64)
    prob = np.ones(len(idxs))
    chosen = np.full((len(idxs), g.node_count), -1, dtype=np.int64)
    for v in range(g.node_count):
        c = (idxs // strides[v]) % sizes[v]
        indeg = sizes[v] - 1
        if indeg == 0:
            continue
        srcs, ws = g.in_edges(v)
        picked = c < indeg
        slots = np.minimum(c, indeg - 1)
        prob *= np.where(picked, ws[slots], none_p[v])
        chosen[:, v] = np.where(picked, srcs[slots], -1)
    return prob, chosen


def _exact_lt(g, seed_ids, levels):
    n = g.node_count
    sizes, strides, none_p, space = _lt_choice_space(g)
    seed_mask = np.zeros(n, dtype=bool)
    seed_mask[seed_ids] = True
    expected = 0.0
    rows = None
    for lo in range(0, space, _ENUM_CHUNK):
        hi = min(lo + _ENUM_CHUNK, space)
        prob, chosen = _lt_outcomes(g, lo, hi, sizes, strides, none_p)
        k = hi - lo
        if rows is None or len(rows) != k:
            rows = np.arange(k)
        active = np.tile(seed_mask, (k, 1))
        for _ in range(levels):
            prev = active
            active = prev.copy()
            for v in range(n):
                if seed_mask[v]:
                    continue
                sel = chosen[:, v]
                valid = sel >= 0
                active[:, v] |= valid & prev[rows, np.maximum(sel, 0)]
            if np.array_equal(active, prev):
                break
        expected += float(prob @ active.sum(axis=1))
    return expected


class ExactSpreadTable:
    """Exact spread for every seed set of a tiny graph, queried in O(1).

    For each node x, enumeration yields the probability that each `activator
    set` (the nodes whose seeding would activate x within the hop limit)
    occurs. A subset-sum transform turns that into D[c] = expected number of
    nodes NOT activated when the seed set is the complement of c, so
    spread(S) = |V| - D[complement of S].
    """

    def __init__(self, g, model="ic", hop_limit=None):
        n = g.node_count
        if n > 20:
            raise ValueError("instance too large for subset spread table")
        self.node_count = n
        levels = hop_limit if hop_limit is not None else max(n - 1, 1)
        if model == "ic":
            weights = self._ic_activator_weights(g, levels)
        elif model == "lt":
            weights = self._lt_activator_weights(g, levels)
        else:
            raise ValueError(f"unknown diffusion model {model!r}")
        # Subset-sum (zeta) transform over activator masks, summed over nodes.
        dsum = weights.sum(axis=0)
        for bit in range(n):
            step = 1 << bit
            idx = np.nonzero(np.arange(1 << n) & step)[0]
            dsum[idx] += dsum[idx - step]
        self._dsum = dsum
        self._full = (1 << n) - 1

    @staticmethod
    def _ic_activator_weights(g, levels):
        m = g.edge_count
        if m > IC_ENUM_EDGE_LIMIT:
            raise ValueError(f"instance too large for enumeration: {m} edges > {IC_ENUM_EDGE_LIMIT}")
        n = g.node_count
        srcs, dsts, ps = _ic_edge_arrays(g)
        weights = np.zeros((n, 1 << n))
        total = 1 << m
        for lo in range(0, total, _ENUM_CHUNK):
            masks = np.arange(lo, min(lo + _ENUM_CHUNK, total), dtype=np.uint64)
            live = ((masks[:, None] >> np.arange(m, dtype=np.uint64)) & 1).astype(bool)
            w = np.where(live, ps, 1.0 - ps).prod(axis=1)
            acts = np.zeros((len(masks), n), dtype=np.int64)
            for u in range(n):
                reach = np.zeros((len(masks), n), dtype=bool)
                reach[:, u] = True
                for _ in range(levels):
                    new = reach.copy()
                    for e in range(m):
                        new[:, dsts[e]] |= reach[:, srcs[e]] & live[:, e]
                    if np.array_equal(new, reach):
                        break
                    reach = new
                acts |= reach.astype(np.int64) << u
            for x in range(n):
                weights[x] += np.bincount(acts[:, x], weights=w, minlength=1 << n)
        return weights

    @staticmethod
    def _lt_activator_weights(g, levels):
        n = g.node_count
        sizes, strides, none_p, space = _lt_choice_space(g)
        weights = np.zeros((n, 1 << n))
        for lo in range(0, space, _ENUM_CHUNK):
            hi = min(lo + _ENUM_CHUNK, space)
            prob, chosen = _lt_outcomes(g, lo, hi, sizes, strides, none_p)
            rows = np.arange(hi - lo)
            for x in range(n):
                acts = np.full(hi - lo, 1 << x, dtype=np.int64)
                cur = np.full(hi - lo, x, dtype=np.int64)
                alive = np.ones(hi - lo, dtype=bool)
                for _ in range(levels):
                    nxt = chosen[rows, np.maximum(cur, 0)]
                    alive &= cur >= 0
                    alive &= nxt >= 0
                    if not alive.any():
                        break
                    cur = np.where(alive, nxt, -1)
                    acts |= np.where(alive, np.int64(1) << np.maximum(cur, 0), 0)
                weights[x] += np.bincount(acts, weights=prob, minlength=1 << n)
        return weights

    def spread(self, seeds):
        """Exact expected spread of the given seed set."""
        smask = 0
        for s in seeds:
            smask |= 1 << int(s)
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
