"""Shared graph builders and reference formulas for the test suite.

The closed-form recomputations here are intentionally independent of the
incremental estimator: they evaluate the per-node activation products/sums
directly from the full seed set every time they are called.
"""

import heapq
import math
import time

import numpy as np
import pytest

from hopspread.bounds import upper_bounds
from hopspread.graph import Graph
from hopspread.hop_estimator import BOUND_SLACK, commit, eval_gain, init_state, probe_gain
from hopspread.selection import SeedResult, _check_k


def random_ic_graph(rng, n_max=8, m_max=12, p_one_frac=0.0, n_min=2):
    """Small random simple digraph with uniform-random edge probabilities."""
    n = int(rng.integers(n_min, n_max + 1))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    idx = rng.permutation(len(pairs))
    m = int(rng.integers(1, min(m_max, len(pairs)) + 1))
    chosen = [pairs[i] for i in idx[:m]]
    src = np.array([u for u, _ in chosen])
    dst = np.array([v for _, v in chosen])
    prob = rng.random(m)
    if p_one_frac:
        prob[rng.random(m) < p_one_frac] = 1.0
    return Graph(n, src, dst, prob)


def random_graph_with_cycles(rng, n, extra_two_cycles=5, avg_deg=3.0, p_one_frac=0.25):
    """Random digraph that always contains 2-cycles and probability-1 edges."""
    pairs = {(u, v) for u, v in zip(rng.integers(0, n, int(avg_deg * n)), rng.integers(0, n, int(avg_deg * n))) if u != v}
    nodes = rng.permutation(n)
    for i in range(min(extra_two_cycles, n // 2)):
        a, b = int(nodes[2 * i]), int(nodes[2 * i + 1])
        pairs.add((a, b))
        pairs.add((b, a))
    chosen = sorted(pairs)
    src = np.array([u for u, _ in chosen])
    dst = np.array([v for _, v in chosen])
    prob = rng.random(len(chosen))
    prob[rng.random(len(chosen)) < p_one_frac] = 1.0
    return Graph(n, src, dst, prob)


def lt_admissible(g):
    """`g` with each node's incoming weights made to sum to at most 1.

    A node with a probability-1 incoming edge keeps the first one at weight
    1 and gets weight 0 on the others, so it saturates from a single
    source; every other node's weights are scaled down to sum to at most 1.
    """
    p = g.out_prob.copy()
    dst = g.out_dst
    keeper = np.full(g.node_count, -1)
    for e in np.flatnonzero(p == 1.0)[::-1]:
        keeper[dst[e]] = e
    saturated = keeper[dst] >= 0
    p[saturated] = 0.0
    p[keeper[keeper >= 0]] = 1.0
    sums = np.zeros(g.node_count)
    np.add.at(sums, dst, p)
    return g._with_probs(p / np.maximum(sums, 1.0)[dst])


def random_lt_graph(rng, n_max=6, m_max=8, n_min=2, p_one_frac=0.0):
    """Random digraph rescaled so incoming weights sum below 1 per node.

    With `p_one_frac`, that share of edges is drawn at weight 1 and
    `lt_admissible` makes them admissible, so weight-1 edges survive.
    """
    g = random_ic_graph(rng, n_max, m_max, p_one_frac=p_one_frac, n_min=n_min)
    if p_one_frac:
        return lt_admissible(g)
    sums = np.zeros(g.node_count)
    np.add.at(sums, g.out_dst, g.out_prob)
    scale = np.ones(g.node_count)
    over = sums > 0.98
    scale[over] = 0.98 / sums[over]
    return g._with_probs(g.out_prob * scale[g.out_dst])


def in_edges(g, v):
    """(sources, probabilities) of node v's incoming edges, in ascending-source
    order, read from the outgoing view."""
    into = g.out_dst == v
    return np.repeat(np.arange(g.node_count), g.out_degrees())[into], g.out_prob[into]


def reference_activation(g, seeds, hops, model="ic"):
    """Per-node activation probabilities recomputed directly from the seed set."""
    n = g.node_count
    smask = np.zeros(n, dtype=bool)
    smask[list(seeds)] = True
    pi1 = np.empty(n)
    for v in range(n):
        srcs, ps = in_edges(g, v)
        if smask[v]:
            pi1[v] = 1.0
        elif model == "ic":
            pi1[v] = 1.0 - np.prod(1.0 - ps[smask[srcs]])
        else:
            # In-weights may sum to 1 + LT_WEIGHT_TOLERANCE; activation is a probability.
            pi1[v] = min(ps[smask[srcs]].sum(), 1.0)
    if hops == 1:
        return pi1
    pi2 = np.empty(n)
    for v in range(n):
        srcs, ps = in_edges(g, v)
        if smask[v]:
            pi2[v] = 1.0
        elif model == "ic":
            pi2[v] = 1.0 - np.prod(1.0 - ps * pi1[srcs])
        else:
            pi2[v] = min((ps * pi1[srcs]).sum(), 1.0)
    return pi2


def reference_cascade(g, seed_ids, model, hop_limit, rng, record_levels=False):
    """One Monte-Carlo cascade with boolean-mask filters and `np.unique`
    dedup, level by level from the sorted unique `seed_ids`.

    This is the stream the oracle must reproduce draw for draw: draws go to
    edges in (level, ascending frontier node, CSR edge) order, and threshold
    sums are accumulated in that same order.
    """
    n = g.node_count
    if model == "lt":
        theta = 1.0 - rng.random(n)
        acc = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    active[seed_ids] = True
    frontier = seed_ids
    levels = [len(seed_ids)]
    hops = 0
    while len(frontier) and (hop_limit is None or hops < hop_limit):
        starts, ends = g.out_indptr[frontier], g.out_indptr[frontier + 1]
        pos = np.concatenate([np.arange(a, b) for a, b in zip(starts, ends)] + [np.zeros(0, dtype=np.int64)])
        if len(pos) == 0:
            break
        if model == "ic":
            pos = pos[rng.random(len(pos)) < g.out_prob[pos]]
            hit = g.out_dst[pos]
            frontier = np.unique(hit[~active[hit]])
        else:
            targets = g.out_dst[pos]
            np.add.at(acc, targets, g.out_prob[pos])
            cand = np.unique(targets)
            cand = cand[~active[cand]]
            frontier = cand[acc[cand] >= theta[cand]]
        active[frontier] = True
        hops += 1
        if record_levels:
            levels.append(levels[-1] + len(frontier))
    if record_levels:
        return levels
    return int(active.sum())


def reference_celf(g, k, model="ic", hops=2, bootstrap="upper_bounds"):
    """`greedy_celf` as it was before the sorted frontier, with the same
    probe and evaluation tiers: every node starts as a Python tuple in one
    all-node heap. The frontier must pop in the same order, so it must give
    the same seeds, gains and counts.

    Lazy greedy selection of k seeds under hop-limited influence.

    bootstrap="upper_bounds" seeds the queue with the closed-form single-seed
    bounds, under either model; bootstrap="none" starts every node at an
    infinite bound, so each is evaluated once before the first pick. Both
    return the same seed sequence.
    """
    _check_k(g, k)
    if bootstrap not in ("upper_bounds", "none"):
        raise ValueError(f"unknown bootstrap {bootstrap!r}")
    t0 = time.perf_counter()
    state = init_state(g, model=model, hops=hops)
    if bootstrap == "none":
        bounds = [math.inf] * g.node_count
    else:
        ub = upper_bounds(g, hops)
        bounds = (ub + BOUND_SLACK * np.maximum(ub, 1.0)).tolist()
    # The largest key pops first, ties toward the smaller id; the bootstrap
    # keys are round 0's bounds to evaluate (level 0).
    heap = [(-b, v, 0) for v, b in enumerate(bounds)]
    heapq.heapify(heap)
    evaluations = probes = 0
    waiting = {}
    best = None
    seeds = []
    gains = []
    while len(seeds) < k:
        _, node, stamp = heapq.heappop(heap)
        now = 2 * len(seeds)
        if stamp == now + 1:
            # Every other key bounds its node's gain, so this round's exact
            # pop is the round's best report.
            commit(state, best)
            seeds.append(node)
            gains.append(best.gain)
            best = None
            waiting.clear()
        elif stamp < now and hops == 2:
            probe = waiting[node] = probe_gain(state, node)
            probes += 1
            heapq.heappush(heap, (-probe.bound, node, now))
        else:
            report = eval_gain(state, waiting.pop(node, node))
            evaluations += 1
            if best is None or (report.gain, -node) > (best.gain, -best.candidate):
                best = report
            heapq.heappush(heap, (-report.gain, node, now + 1))
    elapsed = time.perf_counter() - t0
    return SeedResult(
        seeds=seeds,
        marginal_gains=gains,
        elapsed=elapsed,
        evaluations=evaluations,
        spread=state.sigma,
        probes=probes,
    )


@pytest.fixture
def chain_graph():
    """0 -> 1 -> 2 with probability 0.5 on both edges."""
    return Graph(3, [0, 1], [1, 2], [0.5, 0.5])
