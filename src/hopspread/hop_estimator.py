"""Exact hop-limited activation probabilities, maintained incrementally.

For hop counts 1 and 2 the expected spread within that many hops has a
closed form per node, and adding one seed touches only the seed's one- and
two-hop out-neighborhood. `HopState` stores survival complements
q = 1 - activation probability, which stay well conditioned when
activation approaches 1.

Probing and committing are split: `eval_gain` writes nothing to the state
and returns a `GainReport` holding the would-be values, so a selection
loop can probe many candidates and commit only the winner. A report
remembers the state it was computed against and that state's version
stamp, and `commit` refuses any other.

An evaluation lowers the one-hop survival q1 of the candidate u (to 0) and
of its non-seed out-neighbors ws (by one factor under the cascade model,
one subtracted weight under the threshold model). q1 only falls as seeds
are added, so the one-hop transmissions p * (1 - q1[c]) that change are
exactly those of the out-edges of C = {u} + ws, and the two-hop survival
q2 of each of their targets is updated from those edges alone. With
f = 1 - p * (1 - q1[c]) before and after:

- cascade: q2'[t] = q2[t] * prod f_new / f_old over C's edges into t. An
  edge with f_old = 0 has already made q2[t] exactly 0, and it stays 0.
- threshold: q2'[t] = max(q2[t] - sum p * (q1[c] - q1'[c]), 0), which is
  the clipped closed form whether or not q2[t] was clipped before.

So an evaluation costs the out-edges of C, grouped by target with one
sort of uint64 keys that pack each edge's target above its index in C's
edge list. The keys are unique, so each target's product or sum runs in
ascending C-edge order on every platform and sort. An evaluation writes
only arrays it allocated, and the state has no per-edge array. Each update
moves q1 and q2 by one rounding step per changed edge, so the state stays
within rounding of the closed form of its seed set and needs no periodic
recomputation.

`gain_bound` is a cheaper two-hop stand-in for `eval_gain` when only an
upper bound is needed: it reads the candidate's out-row and each
out-neighbor's total out-probability (kept per node in the state), so it
costs O(out-degree) where an evaluation reads every out-row of C. Under
the cascade model each of the candidate's own edges also reads its
target's q2 and weighs its rise by q2[t] / f_old <= 1, the weight the
exact product update gives it; the out-neighbors' edges weigh 1.
"""

from __future__ import annotations

import numpy as np

from ._segments import gather_rows, segment_sum
from .graph import GraphError, validate_lt

# Relative slack on `gain_bound`: a computed gain can sit an ulp above the
# exact-arithmetic bound.
BOUND_SLACK = 1e-9


class StaleReportError(RuntimeError):
    """A GainReport was produced against another state or an older version."""


class GainReport:
    """Marginal hop-limited gain of one candidate plus the values to commit."""

    __slots__ = (
        "state",
        "candidate",
        "gain",
        "state_version",
        "q1_nodes",
        "q1_values",
        "q2_nodes",
        "q2_values",
    )

    def __init__(self, state, candidate, gain, q1_nodes, q1_values, q2_nodes=None, q2_values=None):
        self.state = state
        self.candidate = candidate
        self.gain = gain
        self.state_version = state.version
        self.q1_nodes = q1_nodes
        self.q1_values = q1_values
        self.q2_nodes = q2_nodes
        self.q2_values = q2_values


class HopState:
    """Seed set plus per-node survival complements for 1 or 2 hops.

    q1[v] = P[v not active within one hop], q2[v] likewise for two hops
    (only present when hops == 2). Seeds hold q = 0. With two hops,
    out_weight[v] is the sum of v's out-edge probabilities, read by
    `gain_bound`. Every array is per node. `sigma` tracks the running
    hop-limited spread.
    """

    __slots__ = (
        "graph",
        "model",
        "hops",
        "seed_mask",
        "seeds",
        "q1",
        "q2",
        "out_weight",
        "sigma",
        "version",
    )

    def __init__(self, graph, model, hops):
        n = graph.node_count
        self.graph = graph
        self.model = model
        self.hops = hops
        self.seed_mask = np.zeros(n, dtype=bool)
        self.seeds = []
        self.q1 = np.ones(n)
        self.q2 = np.ones(n) if hops == 2 else None
        self.out_weight = segment_sum(graph.out_prob, graph.out_indptr) if hops == 2 else None
        self.sigma = 0.0
        self.version = 0

    def spread(self):
        return self.sigma

    def activation(self):
        """Current per-node activation probability at the state's hop count."""
        q = self.q2 if self.hops == 2 else self.q1
        return 1.0 - q


def init_state(g, model="ic", hops=2):
    """Fresh empty-seed-set state: all activation probabilities zero."""
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown diffusion model {model!r}")
    if hops not in (1, 2):
        raise ValueError(f"hops must be 1 or 2, got {hops}")
    if model == "lt":
        bad = validate_lt(g)
        if bad:
            raise GraphError(f"{len(bad)} nodes exceed unit incoming weight (first: {bad[0]})")
    return HopState(g, model, hops)


def _one_hop(s, u):
    """Candidate `u`'s non-seed out-neighbors ws, their one-hop survival and
    their would-be one-hop survival once u is a seed."""
    u = int(u)
    if not 0 <= u < s.graph.node_count:
        raise ValueError(f"node id {u} out of range")
    if s.seed_mask[u]:
        raise ValueError(f"node {u} is already a seed")
    nbrs, ps = s.graph.out_edges(u)
    keep = ~s.seed_mask[nbrs]
    ws = nbrs[keep]
    q1w = s.q1[ws]
    # LT in-weights may sum to 1 + LT_WEIGHT_TOLERANCE, so only q1 - b can leave [0, 1].
    q1w_new = q1w * (1.0 - ps[keep]) if s.model == "ic" else np.maximum(q1w - ps[keep], 0.0)
    return u, ws, q1w, q1w_new


def gain_bound(state, u):
    """Upper bound on the two-hop gain of adding `u`, in O(out-degree of u).

    A fall of q1 at node c raises the transmission of each out-edge (c, t)
    by p * (fall), and t's two-hop survival q2[t] falls by at most the sum
    over those edges of the rise times a weight r in [0, 1]. LT: r = 1 (the
    subtracted sum, which clipping only shrinks). IC: r = q2[t] / f_old with
    f_old = 1 - p * (1 - q1[c]), since telescoping the product drops q2[t]
    by at most q2[t] * (1 - f_new / f_old) per edge; a non-seed t's q2 has
    f_old as a factor, so r <= 1, and a seed's q2 is 0.

    Adding u lowers q1 at u to 0 and at each w in ws to q1'[w]. The bound
    reads r on u's own IC edges and takes r = 1 on every other edge:
    q2[u] + q1[u] * (sum of p * r over u's out-edges) + the sum over ws of
    (q1[w] - q1'[w]) W[w], W being each node's total out-probability. An
    edge with f_old = 0 has already made q2[t] exactly 0 (see `eval_gain`),
    so r = 1 there is safe. At the empty seed set every r is 1 and this is
    `upper_bounds(g, 2)`. BOUND_SLACK covers the rounding of the gain's own
    evaluation.
    """
    s = state
    u, ws, q1w, q1w_new = _one_hop(s, u)
    q1u = s.q1[u]
    if s.model == "ic":
        nbrs, ps = s.graph.out_edges(u)
        f_old = 1.0 - ps * (1.0 - q1u)
        r = np.divide(s.q2.take(nbrs), f_old, out=np.ones_like(f_old), where=f_old > 0.0)
        own = float(ps @ r)
    else:
        own = s.out_weight[u]
    b = s.q2[u] + q1u * own + float((q1w - q1w_new) @ s.out_weight[ws])
    return b + BOUND_SLACK * max(1.0, b)


def eval_gain(state, u):
    """Exact marginal hop-limited gain of adding `u`, without changing state."""
    s = state
    g, q1 = s.graph, s.q1
    u, ws, q1w, q1w_new = _one_hop(s, u)
    q1_nodes = np.concatenate(([u], ws))
    q1_values = np.concatenate(([0.0], q1w_new))
    if s.hops == 1:
        gain = q1[u] + (q1w - q1w_new).sum()
        return GainReport(s, u, float(gain), q1_nodes, q1_values)

    # Only the out-edges of C = {u} + ws change their transmission; each
    # reached target's q2 takes the product (IC) or sum (LT) of its edges'
    # changes, grouped by target.
    c_edges, c_seg = gather_rows(g.out_indptr, q1_nodes)
    counts = np.diff(c_seg)
    p = g.out_prob.take(c_edges)
    q1_old = np.concatenate(([q1[u]], q1w))
    if s.model == "ic":
        f_old = 1.0 - p * np.repeat(1.0 - q1_old, counts)
        change = 1.0 - p * np.repeat(1.0 - q1_values, counts)
        # f_old = 0 needs p = 1 and 1 - q1 rounding to 1; q1 only falls, so
        # f_new is then 0 too, and the change stays 0 there.
        np.divide(change, f_old, out=change, where=f_old > 0.0)
    else:
        change = p * np.repeat(q1_old - q1_values, counts)
    # One sort of uint64 keys (target, C-edge index) groups the edges in
    # C-edge order; 64 bits hold both while the node count and C's edge
    # count are at most 2^32.
    edge_bits = np.uint64(max(len(c_edges) - 1, 0).bit_length())
    key = g.out_dst.take(c_edges).astype(np.uint64)
    key <<= edge_bits
    key |= np.arange(len(c_edges), dtype=np.uint64)
    key.sort()
    c_dst = (key >> edge_bits).view(np.int64)
    key &= (np.uint64(1) << edge_bits) - np.uint64(1)
    change = change.take(key.view(np.int64))
    first = np.ones(len(c_dst), dtype=bool)
    np.not_equal(c_dst[1:], c_dst[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    reach = c_dst.take(starts)
    live = ~s.seed_mask[reach] & (reach != u)
    t = reach[live]
    q2 = s.q2
    if s.model == "ic":
        t_values = q2[t] * np.multiply.reduceat(change, starts)[live]
    else:
        # bincount adds in input order; add.reduceat sums a long group pairwise.
        t_values = np.maximum(q2[t] - np.bincount(np.cumsum(first), weights=change)[1:][live], 0.0)
    gain = q2[u] + (q2[t] - t_values).sum()
    q2_nodes = np.concatenate(([u], t))
    q2_values = np.concatenate(([0.0], t_values))
    return GainReport(s, u, float(gain), q1_nodes, q1_values, q2_nodes, q2_values)


def commit(state, report):
    """Apply a GainReport produced against this exact state and version."""
    if report.state is not state:
        raise StaleReportError(f"report for node {report.candidate} was evaluated against another state")
    if report.state_version != state.version:
        raise StaleReportError(
            f"report for node {report.candidate} was evaluated at version "
            f"{report.state_version}, state is at {state.version}"
        )
    u = report.candidate
    if state.seed_mask[u]:
        raise ValueError(f"node {u} is already a seed")
    state.q1[report.q1_nodes] = report.q1_values
    if state.hops == 2:
        state.q2[report.q2_nodes] = report.q2_values
    state.seed_mask[u] = True
    state.seeds.append(u)
    state.sigma += report.gain
    state.version += 1
    return state


def spread(state):
    """Current hop-limited spread (sum of activation probabilities)."""
    return state.sigma

