"""Seed selection: lazy greedy with optional upper-bound bootstrap, a naive
full-evaluation greedy for cross-checking, and the degree heuristics.

The lazy greedy pops (-key, node, stamp) entries smallest first, where
stamp = 2 * round + level, and each key is an upper bound on the node's
current marginal gain. A key is one of three kinds:

- a key from an earlier round: the closed-form single-seed bound it
  started with, or a bound or exact gain computed against an older seed
  set. With two hops a pop gets `probe_gain` against the current seed set,
  which gathers the out-edges of the node and its out-neighbors and sums a
  linear bound from them, and the node goes back with that bound at
  level 0. The probe waits in a dict that each commit empties. With one
  hop it is evaluated at once, since a one-hop evaluation costs what a
  probe would.
- this round's bound to evaluate (level 0): a probe bound, or in round 0 a
  bootstrap key. A pop gets a full `eval_gain`, from the waiting probe if
  there is one, and the node goes back with its exact gain at level 1.
- this round's exact gain (level 1): since every other key bounds its
  node's gain, a pop is the round's best report, and it is committed as
  is.

A probe costs the gather of an evaluation but not its grouping sort, so it
spares the sort for the candidates whose probe bound falls below the
round's best gain. Round 0 does not probe: its keys are level 0 from the
start, since a probe of a round-0 node would only recompute its bootstrap
bound (the probe bound is `upper_bounds(g, 2)` at the empty seed set), and
with `bootstrap="none"` it would only add a pass to the full first pass.

Round 0's keys are the closed-form single-seed bounds
(`bootstrap="upper_bounds"`, valid under either diffusion model), which
removes the full first pass, or infinite bounds (`bootstrap="none"`),
which evaluates every node once. They are sorted once into pop order, a
frontier walked by a pointer, and the heap holds only the frontier's head
and the nodes already taken from it, probed or evaluated. Those carry
stamps other than 0, so a popped stamp 0 is the frontier's head. A
heap pop is thus the tuple a heap of every node would pop, so the pop
order, and with it every seed, gain and count, is unchanged. Bounds carry
the relative slack `BOUND_SLACK`, so no two-hop key sits below the gain
later computed from it, even by an ulp. A kept exact gain of an earlier
round can, and on a 1-ulp near-tie it would let the lazy greedy pick
differently from `greedy_naive`.

All ties break toward the smaller node id, both in the heap order and in the
naive argmax, so the two paths return identical seed sequences.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import upper_bounds
from .hop_estimator import BOUND_SLACK, commit, eval_gain, init_state, probe_gain


@dataclass(frozen=True)
class SeedResult:
    """Seeds in pick order with bookkeeping; the degree heuristics leave spread None."""

    seeds: list[int]
    marginal_gains: list[float]
    elapsed: float
    evaluations: int
    spread: float | None = None
    probes: int = 0


def _check_k(g, k):
    if not 1 <= k <= g.node_count:
        raise ValueError(f"k={k} out of range for {g.node_count} nodes")


def greedy_celf(g, k, model="ic", hops=2, bootstrap="upper_bounds"):
    """Lazy greedy selection of k seeds under hop-limited influence.

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
    n = g.node_count
    if bootstrap == "none":
        neg = np.full(n, -math.inf)
    else:
        ub = upper_bounds(g, hops)
        neg = -(ub + BOUND_SLACK * np.maximum(ub, 1.0))
    # The largest key pops first, ties toward the smaller id (the sort is
    # stable). Round 0's keys are level 0 (stamp 0), and taken nodes go back
    # with later stamps, so a popped stamp 0 is the frontier's head, whose
    # successor then joins the heap.
    order = np.argsort(neg, kind="stable")
    heap = [(float(neg[order[0]]), int(order[0]), 0)]
    taken = 1
    evaluations = probes = 0
    waiting = {}
    best = None
    gains = []
    while len(state.seeds) < k:
        _, node, stamp = heapq.heappop(heap)
        if stamp == 0 and taken < n:
            v = int(order[taken])
            heapq.heappush(heap, (float(neg[v]), v, 0))
            taken += 1
        now = 2 * len(state.seeds)
        if stamp == now + 1:
            # Every other key bounds its node's gain, so this round's exact
            # pop is the round's best report.
            commit(state, best)
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
        seeds=state.seeds,
        marginal_gains=gains,
        elapsed=elapsed,
        evaluations=evaluations,
        spread=state.sigma,
        probes=probes,
    )


def greedy_naive(g, k, model="ic", hops=2):
    """Greedy that re-evaluates every non-seed each iteration.

    Exists as the reference implementation the lazy greedy must match.
    """
    _check_k(g, k)
    t0 = time.perf_counter()
    state = init_state(g, model=model, hops=hops)
    evaluations = 0
    seeds = []
    gains = []
    for _ in range(k):
        best = None
        for v in range(g.node_count):
            if state.seed_mask[v]:
                continue
            rep = eval_gain(state, v)
            evaluations += 1
            if best is None or rep.gain > best.gain:
                best = rep
        commit(state, best)
        seeds.append(best.candidate)
        gains.append(best.gain)
    elapsed = time.perf_counter() - t0
    return SeedResult(
        seeds=seeds,
        marginal_gains=gains,
        elapsed=elapsed,
        evaluations=evaluations,
        spread=state.sigma,
    )


def high_degree(g, k):
    """The k nodes of largest out-degree, ties toward smaller ids."""
    _check_k(g, k)
    t0 = time.perf_counter()
    order = np.argsort(-g.out_degrees(), kind="stable")
    seeds = [int(v) for v in order[:k]]
    return SeedResult(
        seeds=seeds,
        marginal_gains=[],
        elapsed=time.perf_counter() - t0,
        evaluations=0,
    )


def degree_discount(g, k, p=0.01):
    """Degree-discount heuristic on out-degrees.

    A node's priority starts at its out-degree d and becomes
    d - 2t - (d - t)*t*p once t of its in-neighbors are selected. Each of
    the k picks takes the first maximum of the priority array, so ties go to
    the smaller id, sets the picked node's priority to -inf, and updates its
    out-neighbors whose priority is finite.
    A pick costs O(n), so k close to n on a large graph costs O(nk).
    """
    _check_k(g, k)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    t0 = time.perf_counter()
    d = g.out_degrees().astype(np.float64)
    t = np.zeros(g.node_count)
    priority = d.copy()
    seeds = []
    for _ in range(k):
        u = int(priority.argmax())
        priority[u] = -np.inf
        seeds.append(u)
        nbrs, _ = g.out_edges(u)
        # Out-rows hold no duplicate targets, so the fancy += is exact.
        w = nbrs[priority[nbrs] != -np.inf]
        t[w] += 1.0
        priority[w] = d[w] - 2.0 * t[w] - (d[w] - t[w]) * t[w] * p
    return SeedResult(
        seeds=seeds,
        marginal_gains=[],
        elapsed=time.perf_counter() - t0,
        evaluations=0,
    )
