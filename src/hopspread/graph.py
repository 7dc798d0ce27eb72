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
import re
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._segments import segment_sum, sorted_unique

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
        # Sort keys pack two fields into one uint64: (source, target) for the
        # out-view and (target, out-edge index) for the in-view, each field
        # as wide as its largest value needs.
        node_bits = max(n - 1, 0).bit_length()
        edge_bits = max(m - 1, 0).bit_length()
        if 2 * node_bits > 64 or node_bits + edge_bits > 64:
            raise GraphError(
                f"{n} nodes and {m} edges: the packed sort keys need "
                f"{max(2 * node_bits, node_bits + edge_bits)} bits, more than 64"
            )
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

        idx_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        self.node_count = n
        self.edge_count = m
        self.out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.out_indptr[1:])
        self.in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=self.in_indptr[1:])

        # Out-view: one argsort of (source, target) packed into 64-bit keys.
        # Sorted keys are sorted pairs, so the first repeat is the smallest
        # duplicate pair.
        key = src.view(np.uint64) << np.uint64(node_bits)
        key |= dst.view(np.uint64)
        order = np.argsort(key)
        key = key[order]
        self.out_prob = prob[order]
        del order
        if m > 1:
            dup = key[1:] == key[:-1]
            if dup.any():
                u, v = divmod(int(key[dup.argmax()]), 1 << node_bits)
                raise GraphError(f"duplicate edge {int(original_ids[u])}->{int(original_ids[v])}")
        out_src = (key >> np.uint64(node_bits)).astype(idx_dtype)
        key &= np.uint64((1 << node_bits) - 1)
        self.out_dst = key.astype(idx_dtype)

        # In-view: a stable argsort of the sorted targets, done as one sort of
        # (target, out-edge index) keys; a sort of plain keys costs a fraction
        # of an argsort.
        key <<= np.uint64(edge_bits)
        key |= np.arange(m, dtype=np.uint64)
        key.sort()
        key &= np.uint64((1 << edge_bits) - 1)
        in_order = key.view(np.int64)
        self.in_src = out_src[in_order]
        self.in_prob = self.out_prob[in_order]
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

    `source` is a path, bytes, or a file object (binary or text). Lines are "u v" or "u v p"; blank lines and
    lines starting with '#' are skipped. Missing probabilities default to
    0.0 pending a WeightModel. With `num_nodes`, ids are taken as already
    dense and the graph is padded with isolated nodes up to that count;
    otherwise the distinct ids that appear are densified in sorted order.

    The whole buffer is parsed in C when it is plain ASCII with one column
    count and passes every check. Any other input goes through the line
    loop, which names the first bad line or accepts the valid inputs the
    fast path leaves to it.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
        if isinstance(data, str) and data.isascii():
            data = data.encode("ascii")
    edges = _parse_buffer(data)
    src, dst, prob = edges if edges is not None else _parse_lines(data)

    if num_nodes is not None:
        n = int(num_nodes)
        if len(src) and max(src.max(), dst.max()) >= n:
            raise GraphError(f"node id {int(max(src.max(), dst.max()))} exceeds --num-nodes {n}")
        return Graph(n, src, dst, prob)

    ids = sorted_unique(np.concatenate([src, dst]))
    return Graph(len(ids), np.searchsorted(ids, src), np.searchsorted(ids, dst), prob, original_ids=ids)


_FIRST_DATA_LINE = re.compile(rb"^[^\S\n]*[^\s#][^\n]*", re.MULTILINE)
_EDGE_FIELDS = [("u", np.int64), ("v", np.int64), ("p", np.float64)]


def _parse_buffer(data):
    """(src, dst, prob) of an edge list parsed by `np.loadtxt`, or None.

    None means the line loop must decide: the input is not ASCII (numpy's
    integer parser reads some non-ASCII letters as digits), a '#' follows
    data on its line (loadtxt would drop it as a comment), the column count
    varies, or a value fails a check the loop applies. On ASCII, loadtxt
    splits lines and fields like `bytes.split(b"\\n")` and `str.split()` and
    accepts a subset of what `int()` and `float()` accept, with equal values.
    """
    if not data.isascii() or not _comments_lead_their_lines(data):
        return None
    first = _FIRST_DATA_LINE.search(data)
    columns = len(first.group().decode().split()) if first else 0
    if columns not in (2, 3):
        return None
    try:
        # numpy 1.23-1.x parses a non-integer id such as "1.0" or "2.7" as a
        # float, truncates it and only warns; int() rejects it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(io.BytesIO(data), dtype=_EDGE_FIELDS[:columns], comments="#", ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    src, dst = rows["u"], rows["v"]
    prob = rows["p"] if columns == 3 else np.zeros(len(rows))
    if (src < 0).any() or (dst < 0).any() or (src == dst).any() or not ((prob >= 0.0) & (prob <= 1.0)).all():
        return None
    return src, dst, prob


def _comments_lead_their_lines(data):
    """Whether only blanks precede the first '#' of every line holding one."""
    i = data.find(b"#")
    while i >= 0:
        if data[data.rfind(b"\n", 0, i) + 1 : i].strip():
            return False
        end = data.find(b"\n", i)
        i = data.find(b"#", end) if end >= 0 else -1
    return True


def _parse_lines(data):
    """(src, dst, prob) of an edge list, one line at a time.

    `data` is bytes, or the text of a text file object. This is the
    reference for `_parse_buffer` and the error locator: the first line that
    is not UTF-8, not two or three fields, or not a valid edge raises a
    GraphError naming it.
    """
    srcs = array("q")
    dsts = array("q")
    probs = array("d")
    lines = io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data, newline="\n")
    for lineno, raw in enumerate(lines, start=1):
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
    return np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64), np.array(probs, dtype=np.float64)


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
