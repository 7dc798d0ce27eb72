"""Exact hop-limited activation probabilities, maintained incrementally.

For hop counts 1 and 2 the expected spread within that many hops has a
closed form per node, and adding one seed touches only the seed's one- and
two-hop out-neighborhood. `HopState` stores survival complements
q = 1 - activation probability, which stay well conditioned when
activation approaches 1.

Evaluating and committing are split: `eval_gain` writes nothing to the
state and returns a `GainReport` holding the would-be values, so a
selection loop can evaluate many candidates and commit only the winner. A
report remembers the state it was computed against and that state's seed
count, and `commit` refuses any other.

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

An evaluation runs in two steps. A probe gathers C's out-edges, their
targets and each edge's change (f_new / f_old, or the subtracted weight);
then the edges are grouped by target with one sort of uint64 keys that
pack each edge's target above its index in C's edge list. The keys are
unique, so each target's product or sum runs in ascending C-edge order on
every platform and sort. `probe_gain` returns the probe with a linear
bound summed from its edges: q2[u] plus, over C's edges, q2[t] * (1 -
f_new / f_old) under the cascade model (1 - prod c <= sum (1 - c)) or
min(q2[t], p * (q1[c] - q1'[c])) under the threshold model (min(a, sum c)
<= sum min(a, c)). At the empty seed set this is `upper_bounds(g, 2)`. A
selection loop can probe a candidate and pass the probe to `eval_gain`
only if its bound comes out on top. Neither step writes the state, and the
state has no per-edge array. Each update moves q1 and q2 by one rounding
step per changed edge, so the state stays within rounding of the closed
form of its seed set and needs no periodic recomputation.
"""

from __future__ import annotations

import numpy as np

from ._segments import gather_rows
from .graph import check_model

# Relative slack on bounds: a computed gain can sit an ulp above the
# exact-arithmetic bound.
BOUND_SLACK = 1e-9


def _with_slack(b):
    """Bound `b` (float or array) plus BOUND_SLACK: the one slack of probe bounds and bootstrap keys."""
    return b + BOUND_SLACK * np.maximum(b, 1.0)


class StaleReportError(RuntimeError):
    """A GainReport was produced against another state or an older seed set."""


class GainReport:
    """One candidate's would-be one-hop values, the `bound` on its marginal
    hop-limited gain that `probe_gain` sets, and the `gain` and two-hop
    values that `eval_gain` fills in. With one hop the gather sets both."""

    __slots__ = (
        "state",
        "candidate",
        "bound",
        "gain",
        "state_version",
        "q1_nodes",
        "q1_values",
        "c_dst",
        "change",
        "q2_nodes",
        "q2_values",
    )

    def __init__(self, state, candidate, q1_nodes, q1_values, gain=None, c_dst=None, change=None):
        self.state = state
        self.candidate = candidate
        self.bound = self.gain = gain
        self.state_version = len(state.seeds)
        self.q1_nodes = q1_nodes
        self.q1_values = q1_values
        self.c_dst = c_dst
        self.change = change
        self.q2_nodes = self.q2_values = None


class HopState:
    """Seed set plus per-node survival complements for 1 or 2 hops.

    q1[v] = P[v not active within one hop], q2[v] likewise for two hops
    (only present when hops == 2). Seeds hold q = 0. Every array is per
    node. `sigma` tracks the running hop-limited spread. The constructor
    checks the model, the hop count and, under LT, the in-weights.
    """

    __slots__ = (
        "graph",
        "model",
        "hops",
        "seed_mask",
        "seeds",
        "q1",
        "q2",
        "sigma",
    )

    def __init__(self, graph, model, hops):
        check_model(graph, model)
        if hops not in (1, 2):
            raise ValueError(f"hops must be 1 or 2, got {hops}")
        n = graph.node_count
        self.graph = graph
        self.model = model
        self.hops = hops
        self.seed_mask = np.zeros(n, dtype=bool)
        self.seeds = []
        self.q1 = np.ones(n)
        self.q2 = np.ones(n) if hops == 2 else None
        self.sigma = 0.0

    def activation(self):
        """Current per-node activation probability at the state's hop count."""
        q = self.q2 if self.hops == 2 else self.q1
        return 1.0 - q


def init_state(g, model="ic", hops=2):
    """Fresh empty-seed-set state: all activation probabilities zero."""
    return HopState(g, model, hops)


def _check_current(state, item, kind):
    """Raise unless the report `item` was made against `state` at its current seed count."""
    if item.state is not state:
        raise StaleReportError(f"{kind} for node {item.candidate} was evaluated against another state")
    if item.state_version != len(state.seeds):
        raise StaleReportError(
            f"{kind} for node {item.candidate} was evaluated at version "
            f"{item.state_version}, state is at {len(state.seeds)}"
        )


def _gather(s, u):
    """The report of `u` without its two-hop bound: C's out-edge targets and
    changes, or with one hop the complete evaluation."""
    g, q1 = s.graph, s.q1
    u = int(u)
    if not 0 <= u < g.node_count:
        raise ValueError(f"node id {u} out of range")
    if s.seed_mask[u]:
        raise ValueError(f"node {u} is already a seed")
    # u's non-seed out-neighbors ws, their one-hop survival and its value once u is a seed.
    nbrs, ps = g.out_edges(u)
    keep = ~s.seed_mask.take(nbrs)
    ws = nbrs[keep]
    q1w = q1.take(ws)
    # LT in-weights may sum to 1 + LT_WEIGHT_TOLERANCE, so only q1 - b can leave [0, 1].
    q1w_new = q1w * (1.0 - ps[keep]) if s.model == "ic" else np.maximum(q1w - ps[keep], 0.0)
    q1_nodes = np.concatenate(([u], ws))
    q1_values = np.concatenate(([0.0], q1w_new))
    if s.hops == 1:
        return GainReport(s, u, q1_nodes, q1_values, gain=float(q1[u] + (q1w - q1w_new).sum()))

    # Only the out-edges of C = {u} + ws change their transmission.
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
    return GainReport(s, u, q1_nodes, q1_values, c_dst=g.out_dst.take(c_edges), change=change)


def probe_gain(state, u):
    """First step of `eval_gain`: a report of C's out-edges, their changes
    and the linear bound on the gain of adding `u`, without changing state.

    The bound is q2[u] plus, over C's out-edges (c, t), q2[t] * (1 - f_new /
    f_old) under IC or min(q2[t], p * (q1[c] - q1'[c])) under LT, with
    BOUND_SLACK on top. An IC edge with f_old = 0 has already made q2[t]
    exactly 0, so it adds nothing. At the empty seed set the bound is
    `upper_bounds(g, 2)`. Pass the report to `eval_gain` before the next
    commit.
    """
    s = state
    probe = _gather(s, u)
    if s.hops == 2:
        drop = s.q2.take(probe.c_dst)
        if s.model == "ic":
            drop *= 1.0 - probe.change
        else:
            np.minimum(drop, probe.change, out=drop)
        probe.bound = float(_with_slack(s.q2.item(probe.candidate) + float(drop.sum())))
    return probe


def eval_gain(state, u):
    """Exact marginal hop-limited gain of adding `u`, without changing state.

    `u` is a node, or a report from `probe_gain` at the state's current
    seed set, which is completed in place; one whose gain is known is returned.
    """
    s = state
    if isinstance(u, GainReport):
        _check_current(s, u, "probe")
        report = u
    else:
        report = _gather(s, u)
    if report.gain is not None:
        return report

    # Each reached target's q2 takes the product (IC) or sum (LT) of its
    # edges' changes. One sort of uint64 keys (target, C-edge index) groups
    # the edges in C-edge order; 64 bits hold both while the node count and
    # C's edge count are at most 2^32.
    u, c_dst = report.candidate, report.c_dst
    edge_bits = np.uint64(max(len(c_dst) - 1, 0).bit_length())
    key = c_dst.astype(np.uint64)
    key <<= edge_bits
    key |= np.arange(len(c_dst), dtype=np.uint64)
    key.sort()
    dst = (key >> edge_bits).view(np.int64)
    key &= (np.uint64(1) << edge_bits) - np.uint64(1)
    change = report.change.take(key.view(np.int64))
    first = np.ones(len(dst), dtype=bool)
    np.not_equal(dst[1:], dst[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    reach = dst.take(starts)
    live = ~s.seed_mask[reach] & (reach != u)
    t = reach[live]
    q2 = s.q2
    if s.model == "ic":
        t_values = q2[t] * np.multiply.reduceat(change, starts)[live]
    else:
        # bincount adds in input order; add.reduceat sums a long group pairwise.
        t_values = np.maximum(q2[t] - np.bincount(np.cumsum(first), weights=change)[1:][live], 0.0)
    report.gain = float(q2[u] + (q2[t] - t_values).sum())
    report.q2_nodes = np.concatenate(([u], t))
    report.q2_values = np.concatenate(([0.0], t_values))
    report.c_dst = report.change = None  # only this evaluation reads them: free them
    return report


def commit(state, report):
    """Apply an evaluated GainReport produced against this exact state and seed set."""
    _check_current(state, report, "report")
    u = report.candidate
    if report.gain is None:
        raise ValueError(f"report for node {u} has no gain: pass it to eval_gain first")
    if state.seed_mask[u]:
        raise ValueError(f"node {u} is already a seed")
    state.q1[report.q1_nodes] = report.q1_values
    if state.hops == 2:
        state.q2[report.q2_nodes] = report.q2_values
    state.seed_mask[u] = True
    state.seeds.append(u)
    state.sigma += report.gain
    return state


def spread(state):
    """Current hop-limited spread (sum of activation probabilities)."""
    return state.sigma

