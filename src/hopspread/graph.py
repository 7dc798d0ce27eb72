"""Directed probability-weighted graphs in compressed adjacency form.

A `Graph` is immutable after construction and keeps two CSR views: outgoing
edges sorted by (source, target) and incoming edges sorted by (target,
source), and `out_to_in` gives each outgoing edge's index in the incoming
view. Node ids are densified to 0..n-1; `original_ids` maps internal ids
back to the ids seen in the input so results can be reported in the caller's
id space.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._segments import segment_sum

LT_WEIGHT_TOLERANCE = 1e-9
TRIVALENCY_PROBS = (0.1, 0.01, 0.001)

# Name/version of the seeded stream used for TRIVALENCY draws. Bumping the
# version is the signal that edge probabilities changed for a given seed.
TRIVALENCY_STREAM = "pcg64-trivalency-v1"


class GraphError(ValueError):
    """Malformed edge list or violated graph invariant."""


class Graph:
    """Immutable directed graph with per-edge propagation probabilities."""

    __slots__ = (
        "node_count",
        "edge_count",
        "out_indptr",
        "out_dst",
        "out_prob",
        "in_indptr",
        "in_src",
        "in_prob",
        "original_ids",
        "out_to_in",
        "__weakref__",
    )

    def __init__(self, node_count, src, dst, prob, original_ids=None):
        """Build both adjacency views from parallel edge arrays.

        Rejects self-loops, duplicate (u, v) pairs, out-of-range endpoints,
        and probabilities outside [0, 1]. Errors name nodes by `original_ids`.
        """
        n = int(node_count)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        prob = np.asarray(prob, dtype=np.float64)
        if not (len(src) == len(dst) == len(prob)):
            raise GraphError("edge arrays must have equal length")
        m = len(src)
        if m and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
            raise GraphError("edge endpoint outside [0, node_count)")
        if original_ids is None:
            original_ids = np.arange(n, dtype=np.int64)
        original_ids = np.asarray(original_ids, dtype=np.int64)
        if len(original_ids) != n:
            raise GraphError("original_ids length must equal node_count")
        if m and (src == dst).any():
            u = int(original_ids[src[(src == dst).argmax()]])
            raise GraphError(f"self-loop at node {u}")
        if m and ((prob < 0.0) | (prob > 1.0)).any():
            raise GraphError("edge probability outside [0, 1]")

        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        prob = prob[order]
        if m > 1:
            dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if dup.any():
                i = int(dup.argmax())
                raise GraphError(f"duplicate edge {int(original_ids[src[i]])}->{int(original_ids[dst[i]])}")

        idx_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        self.node_count = n
        self.edge_count = m
        self.out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.out_indptr[1:])
        self.out_dst = dst.astype(idx_dtype)
        self.out_prob = prob

        in_order = np.lexsort((src, dst))
        self.in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=self.in_indptr[1:])
        self.in_src = src[in_order].astype(idx_dtype)
        self.in_prob = prob[in_order]
        self.out_to_in = np.empty(m, dtype=np.int32 if m <= np.iinfo(np.int32).max else np.int64)
        self.out_to_in[in_order] = np.arange(m, dtype=self.out_to_in.dtype)
        self.original_ids = original_ids

    def out_edges(self, u):
        """(targets, probabilities) array views for node u's outgoing edges."""
        lo, hi = self.out_indptr[u], self.out_indptr[u + 1]
        return self.out_dst[lo:hi], self.out_prob[lo:hi]

    def in_edges(self, v):
        """(sources, probabilities) array views for node v's incoming edges."""
        lo, hi = self.in_indptr[v], self.in_indptr[v + 1]
        return self.in_src[lo:hi], self.in_prob[lo:hi]

    def out_degrees(self):
        return np.diff(self.out_indptr)

    def in_degrees(self):
        return np.diff(self.in_indptr)

    def to_internal(self, original):
        """Map an array of original node ids to internal ids.

        Raises GraphError for ids that do not exist in the graph.
        """
        original = np.asarray(original, dtype=np.int64)
        if self.node_count == 0:
            if len(original):
                raise GraphError(f"unknown node id {int(original[0])}")
            return original
        pos = np.searchsorted(self.original_ids, original)
        bad = (pos >= self.node_count) | (self.original_ids[np.minimum(pos, self.node_count - 1)] != original)
        if bad.any():
            raise GraphError(f"unknown node id {int(original[bad.argmax()])}")
        return pos.astype(np.int64)

    def _with_probs(self, out_prob):
        """New Graph sharing topology arrays, with replaced probabilities."""
        g = Graph.__new__(Graph)
        g.node_count = self.node_count
        g.edge_count = self.edge_count
        g.out_indptr = self.out_indptr
        g.out_dst = self.out_dst
        g.out_prob = out_prob
        g.in_indptr = self.in_indptr
        g.in_src = self.in_src
        g.in_prob = np.empty(self.edge_count)
        g.in_prob[self.out_to_in] = out_prob
        g.out_to_in = self.out_to_in
        g.original_ids = self.original_ids
        return g

    def __repr__(self):
        return f"Graph(|V|={self.node_count}, |E|={self.edge_count})"


@dataclass(frozen=True)
class WeightModel:
    """How edge probabilities are assigned before selection.

    variant: "wc" (reciprocal in-degree), "trivalency" (seeded draw from
    {0.1, 0.01, 0.001}), "uniform" (constant p), or "from_file" (keep parsed
    probabilities). All variants multiply by `scale_factor` and clamp to
    [0, 1] afterwards.
    """

    variant: str
    p: float | None = None
    rng_seed: int | None = None
    scale_factor: float = 1.0

    def __post_init__(self):
        if self.variant not in ("wc", "trivalency", "uniform", "from_file"):
            raise GraphError(f"unknown weight model {self.variant!r}")
        if self.variant == "uniform":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise GraphError("uniform weight model needs p in [0, 1]")
        if self.variant == "trivalency" and self.rng_seed is None:
            raise GraphError("trivalency weight model needs an rng seed")
        if not 0.0 < self.scale_factor < np.inf:
            raise GraphError(f"scale factor must be positive and finite, got {self.scale_factor}")

    @classmethod
    def parse(cls, text, scale_factor=1.0):
        """Parse CLI syntax: wc | tri:<seed> | uniform:<p> | file."""
        if text == "wc":
            return cls("wc", scale_factor=scale_factor)
        if text == "file":
            return cls("from_file", scale_factor=scale_factor)
        if text.startswith("tri:"):
            try:
                seed = int(text[4:])
            except ValueError:
                raise GraphError(f"cannot parse weight model {text!r}: {text[4:]!r} is not an integer") from None
            return cls("trivalency", rng_seed=seed, scale_factor=scale_factor)
        if text.startswith("uniform:"):
            try:
                p = float(text[8:])
            except ValueError:
                raise GraphError(f"cannot parse weight model {text!r}: {text[8:]!r} is not a number") from None
            return cls("uniform", p=p, scale_factor=scale_factor)
        raise GraphError(f"cannot parse weight model {text!r}")


def load_edge_list(source, num_nodes=None):
    """Parse a whitespace-separated edge list into a Graph.

    Lines are "u v" or "u v p"; blank lines and lines starting with '#' are
    skipped. Missing probabilities default to 0.0 pending a WeightModel.
    With `num_nodes`, ids are taken as already dense and the graph is padded
    with isolated nodes up to that count; otherwise the distinct ids that
    appear are densified in sorted order.
    """
    close = False
    if isinstance(source, (str, Path)):
        fh = open(source, "rb")
        close = True
    elif isinstance(source, bytes):
        fh = io.BytesIO(source)
    else:
        fh = source
    try:
        srcs = array("q")
        dsts = array("q")
        probs = array("d")
        for lineno, raw in enumerate(fh, start=1):
            if isinstance(raw, bytes):
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError as e:
                    raise GraphError(f"line {lineno}: byte 0x{raw[e.start]:02x} is not UTF-8") from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise GraphError(f"line {lineno}: expected 'u v' or 'u v p', got {line!r}")
            try:
                u = int(fields[0])
                v = int(fields[1])
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer node id in {line!r}") from None
            if u < 0 or v < 0:
                raise GraphError(f"line {lineno}: negative node id")
            if u == v:
                raise GraphError(f"line {lineno}: self-loop at node {u}")
            p = 0.0
            if len(fields) == 3:
                try:
                    p = float(fields[2])
                except ValueError:
                    raise GraphError(f"line {lineno}: non-numeric probability") from None
                if not 0.0 <= p <= 1.0:
                    raise GraphError(f"line {lineno}: probability {p} outside [0, 1]")
            try:
                srcs.append(u)
                dsts.append(v)
            except OverflowError:
                raise GraphError(f"line {lineno}: node id beyond 2^63 - 1 in {line!r}") from None
            probs.append(p)
    finally:
        if close:
            fh.close()

    src = np.frombuffer(srcs, dtype=np.int64).copy() if srcs else np.zeros(0, dtype=np.int64)
    dst = np.frombuffer(dsts, dtype=np.int64).copy() if dsts else np.zeros(0, dtype=np.int64)
    prob = np.frombuffer(probs, dtype=np.float64).copy() if probs else np.zeros(0)

    if num_nodes is not None:
        n = int(num_nodes)
        if len(src) and max(src.max(), dst.max()) >= n:
            raise GraphError(f"node id {int(max(src.max(), dst.max()))} exceeds --num-nodes {n}")
        return Graph(n, src, dst, prob)

    ids = np.unique(np.concatenate([src, dst]))
    remap_src = np.searchsorted(ids, src)
    remap_dst = np.searchsorted(ids, dst)
    return Graph(len(ids), remap_src, remap_dst, prob, original_ids=ids)


def apply_weight_model(g, model):
    """Return a new Graph with probabilities assigned by `model`.

    WC sets p(u,v) = 1/|in-neighbors of v|; TRIVALENCY draws each edge's
    probability from {0.1, 0.01, 0.001} with a seeded generator over the
    canonical (source, target) edge order; UNIFORM uses a constant. The
    result is scaled by `model.scale_factor` and clamped to [0, 1] on both
    adjacency views.
    """
    if model.variant == "wc":
        indeg = g.in_degrees()
        base = 1.0 / indeg[g.out_dst]
    elif model.variant == "trivalency":
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(model.rng_seed), _stream_tag()]))
        )
        base = np.asarray(TRIVALENCY_PROBS)[rng.integers(0, 3, size=g.edge_count)]
    elif model.variant == "uniform":
        base = np.full(g.edge_count, float(model.p))
    else:  # from_file
        base = g.out_prob.copy()
    np.multiply(base, model.scale_factor, out=base)
    np.clip(base, 0.0, 1.0, out=base)
    return g._with_probs(base)


def _stream_tag():
    # Stable integer tag derived from the stream name, mixed into the seed so
    # TRIVALENCY draws are isolated from any other use of the same user seed.
    return int.from_bytes(TRIVALENCY_STREAM.encode(), "big") % (2**63)


def validate_lt(g):
    """Nodes whose incoming weights sum beyond 1 (plus tolerance).

    An empty list means the graph is admissible for threshold diffusion.
    """
    sums = segment_sum(g.in_prob, g.in_indptr)
    bad = np.nonzero(sums > 1.0 + LT_WEIGHT_TOLERANCE)[0]
    return [int(v) for v in bad]
