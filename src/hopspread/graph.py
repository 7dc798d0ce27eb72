"""Directed probability-weighted graphs in compressed adjacency form.

A `Graph` is immutable after construction and stores each edge once, in
the outgoing CSR view sorted by (source, target): a target id (int32 below
2^31 nodes) and a probability per edge, a row offset and an original id
per node. Nothing reads edges by target, so there is no incoming view;
in-degrees are counted from the targets. Node ids are densified to 0..n-1;
`original_ids` maps internal ids back to the ids seen in the input so
results can be reported in the caller's id space.

`load_edge_list` reads text edge lists. A "u v" file (SNAP's format)
whose data lines are all digits, one space or tab, digits is read by one C
integer scan (`np.fromstring`) after a leading '#' header. Any other input
is read by `np.loadtxt` once its gates pass. The rest, and every malformed
input, goes to the line loop `_parse_lines`, the reference that names the
first bad line. A scanned load's traced peak is the build's, ~35 B/edge.
"""

from __future__ import annotations

import io
import re
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._segments import sorted_unique

LT_WEIGHT_TOLERANCE = 1e-9
TRIVALENCY_PROBS = (0.1, 0.01, 0.001)

# Name/version of the seeded stream used for TRIVALENCY draws. Bumping the
# version is the signal that edge probabilities changed for a given seed.
TRIVALENCY_STREAM = "pcg64-trivalency-v1"


class GraphError(ValueError):
    """Malformed edge list or violated graph invariant."""


def _index_dtype(n):
    """int32 when every id below n fits in it, else int64."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


class Graph:
    """Immutable directed graph with per-edge propagation probabilities."""

    __slots__ = (
        "node_count",
        "edge_count",
        "out_indptr",
        "out_dst",
        "out_prob",
        "original_ids",
    )

    def __init__(self, node_count, src, dst, prob, original_ids=None):
        """Build the outgoing view from parallel edge arrays.

        Rejects self-loops, duplicate (u, v) pairs, out-of-range endpoints,
        and probabilities outside [0, 1]. Errors name nodes by `original_ids`.
        Integer id arrays that cast safely to int64 (int32 ones too) are used
        as they come, others are cast to int64; targets are int32 when the
        node count fits. The build adds a uint64 key and its argsort (16 B/edge).
        """
        n = int(node_count)
        src, dst = (a if isinstance(a, np.ndarray) and a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)
                    else np.asarray(a, dtype=np.int64) for a in (src, dst))
        prob = np.asarray(prob, dtype=np.float64)
        if not (len(src) == len(dst) == len(prob)):
            raise GraphError("edge arrays must have equal length")
        m = len(src)
        # The sort key packs (source, target) into one uint64, each field as
        # wide as the largest node id needs.
        node_bits = max(n - 1, 0).bit_length()
        if 2 * node_bits > 64:
            raise GraphError(f"{n} nodes: the packed sort keys need {2 * node_bits} bits, more than 64")
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
        if m and not ((prob >= 0.0) & (prob <= 1.0)).all():
            raise GraphError("edge probability outside [0, 1]")

        self.node_count = n
        self.edge_count = m
        self.out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.out_indptr[1:])

        # Out-view: one argsort of (source, target) packed into uint64 keys. A
        # prob of all zero bits ("u v" files) is made afresh once order is gone.
        key = np.left_shift(src, np.uint64(node_bits), dtype=np.uint64, casting="unsafe")
        np.bitwise_or(key, dst, out=key, dtype=np.uint64, casting="unsafe")
        order = np.argsort(key)
        del key
        self.out_dst = dst.astype(_index_dtype(n), copy=False).take(order)
        out_prob = prob[order] if prob.view(np.uint64).any() else None
        del order
        self.out_prob = np.zeros(m) if out_prob is None else out_prob
        # Rows are sorted, so the first target equal to its predecessor in its
        # row (dup[i]: out_dst[i] vs out_dst[i - 1]) is the smallest duplicate.
        dup = np.zeros(m + 1, dtype=bool)
        np.equal(self.out_dst[1:], self.out_dst[:-1], out=dup[1:m])
        dup[self.out_indptr] = False
        if dup.any():
            i = int(dup.argmax())
            u = int(np.searchsorted(self.out_indptr, i, side="right")) - 1
            raise GraphError(f"duplicate edge {int(original_ids[u])}->{int(original_ids[self.out_dst[i]])}")
        self.original_ids = original_ids

    def out_edges(self, u):
        """(targets, probabilities) array views for node u's outgoing edges."""
        lo, hi = self.out_indptr[u], self.out_indptr[u + 1]
        return self.out_dst[lo:hi], self.out_prob[lo:hi]

    def out_degrees(self):
        return np.diff(self.out_indptr)

    def in_degrees(self):
        return np.bincount(self.out_dst, minlength=self.node_count)

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
        g.original_ids = self.original_ids
        return g

    def __setstate__(self, state):
        # Unpickled arrays carry dtype instances equal to, but not, numpy's
        # canonical ones, and some ufunc loops (np.add.at) take a slow generic
        # path on those; a view by scalar type restores the canonical dtype.
        for name, value in state[1].items():
            if isinstance(value, np.ndarray):
                value = value.view(value.dtype.type)
            setattr(self, name, value)

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

    Most inputs are parsed in C (see `_parse_buffer`): plain "u v" files by
    one integer scan, the others by `np.loadtxt`. Any other input goes
    through the line loop, which names the first bad line or accepts the
    valid inputs the C parsers leave to it. The raw buffer and the raw ids
    are released as soon as the next step no longer needs them.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
        if isinstance(data, str):
            try:
                data = data.encode("utf-8")
            except UnicodeEncodeError:
                pass  # a lone surrogate: the line loop names its line
    edges = _parse_buffer(data)
    src, dst, prob = edges if edges is not None else _parse_lines(data)
    del data, edges

    if num_nodes is not None:
        n = int(num_nodes)
        if len(src) and max(src.max(), dst.max()) >= n:
            raise GraphError(f"node id {int(max(src.max(), dst.max()))} exceeds --num-nodes {n}")
        return Graph(n, src, dst, prob)

    # Ids below the number read fit a presence table no larger than the
    # concatenated ids; sparse ids (up to 2^63 - 1) take a sort instead.
    # Rebinding src and dst to int32 ranks (if n fits) frees the raw ids.
    top = int(max(src.max(), dst.max())) if len(src) else -1
    if 0 <= top < len(src) + len(dst):
        present = np.zeros(top + 1, dtype=bool)
        present[src] = True
        present[dst] = True
        ids = np.flatnonzero(present)
        rank = np.cumsum(present, dtype=_index_dtype(len(ids)))
        rank -= 1
        src = rank[src]
        dst = rank[dst]
        del present, rank
    else:
        ids = sorted_unique(np.concatenate([src, dst]))
        src = np.searchsorted(ids, src).astype(_index_dtype(len(ids)), copy=False)
        dst = np.searchsorted(ids, dst).astype(_index_dtype(len(ids)), copy=False)
    return Graph(len(ids), src, dst, prob, original_ids=ids)


_FIRST_DATA_LINE = re.compile(rb"^[^\S\n]*[^\s#][^\n]*", re.MULTILINE)
_EDGE_FIELDS = [("u", np.int64), ("v", np.int64), ("p", np.float64)]


def _parse_buffer(data):
    """(src, dst, prob) of an edge list parsed in C, or None.

    A "u v" file (SNAP's format) whose data lines are all digits, one
    separator byte and digits is read by `_scan_pairs`, one integer scan
    after a leading '#' header. Any other input, and a "u v" file the scan
    leaves, goes to `_load_table` (`np.loadtxt`). None means the line loop
    must decide.
    """
    if isinstance(data, str):
        return None
    first = _FIRST_DATA_LINE.search(data)
    if first and len(first.group().split()) == 2:
        edges = _scan_pairs(data, first.start())
        if edges is not None:
            return edges
    return _load_table(data, first)


def _load_table(data, first):
    """(src, dst, prob) of an edge list parsed by `np.loadtxt`, or None.

    `first` is the first data line's match. None means the line loop must
    decide: the input holds a non-ASCII byte off a comment line (numpy's
    integer parser reads some non-ASCII letters as digits) or is not UTF-8,
    a '#' follows data on its line (loadtxt would drop it as a comment), the
    column count varies, or a value fails a check the loop applies. On
    ASCII data lines, loadtxt splits lines and fields like
    `bytes.split(b"\\n")` and `str.split()` and accepts a subset of what
    `int()` and `float()` accept, with equal values.
    """
    if not _comments_lead_their_lines(data):
        return None
    if not data.isascii():
        if not _non_ascii_only_in_comments(data):
            return None
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
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


_INT64_MAX = np.iinfo(np.int64).max
_WINDOW = 1 << 19


def _scan_pairs(data, start):
    """(src, dst, zeros) of the "u v" lines in data[start:], or None.

    data[:start] is the header: blank and '#' lines, which must be UTF-8.
    The rest is read in windows of about `_WINDOW` bytes of whole lines, so
    that no check holds a transient of the whole buffer. Each window must
    pass `_pair_tokens`; then `np.fromstring` reads exactly the tokens that
    `str.split()` gives the line loop, with the values `int()` gives. The
    scan saturates a value beyond 2^63 - 1 at 2^63 - 1, so a file holding
    that value is left to `np.loadtxt`, as is a self-loop.
    """
    if not data[:start].isascii():
        try:
            data[:start].decode("utf-8")
        except UnicodeDecodeError:
            return None
    windows = []
    while start < len(data):
        end = data.find(b"\n", start + _WINDOW) + 1 or len(data)
        count = _pair_tokens(data[start:end])
        if count is None:
            return None
        windows.append((start, end, count))
        start = end
    tokens = np.empty(sum(count for _, _, count in windows), dtype=np.int64)
    at = 0
    for start, end, count in windows:
        tokens[at : at + count] = np.fromstring(data[start:end], dtype=np.int64, count=count, sep=" ")
        at += count
    src, dst = tokens[0::2], tokens[1::2]
    if (tokens == _INT64_MAX).any() or (src == dst).any():
        return None
    return src, dst, np.zeros(len(src))


def _pair_tokens(window):
    """How many ids `window` holds if its lines are all "<digits>" sep
    "<digits>\\n", with sep one ' ' or one tab throughout, else None.

    That holds when the non-digit bytes repeat sep + "\\n", no two of them
    touch and the window starts with a digit and ends with "\\n".
    """
    rest = window.translate(None, b"0123456789")
    sep = rest[:1]
    if sep not in (b" ", b"\t") or not window.endswith(b"\n") or rest != (sep + b"\n") * (len(rest) // 2):
        return None
    blank = np.frombuffer(window, dtype=np.uint8) < 0x30
    if blank[0] or (blank[1:] & blank[:-1]).any():
        return None
    return len(rest)


def _comments_lead_their_lines(data):
    """Whether only blanks precede the first '#' of every line holding one."""
    i = data.find(b"#")
    while i >= 0:
        if data[data.rfind(b"\n", 0, i) + 1 : i].strip():
            return False
        end = data.find(b"\n", i)
        i = data.find(b"#", end) if end >= 0 else -1
    return True


_NON_ASCII = re.compile(rb"[\x80-\xff]")


def _non_ascii_only_in_comments(data):
    """Whether every line holding a non-ASCII byte starts, after blanks, with '#'."""
    hit = _NON_ASCII.search(data)
    while hit:
        i = hit.start()
        if not data[data.rfind(b"\n", 0, i) + 1 : i].lstrip().startswith(b"#"):
            return False
        end = data.find(b"\n", i)
        hit = _NON_ASCII.search(data, end) if end >= 0 else None
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
    result is scaled by `model.scale_factor` and clamped to [0, 1].
    """
    if model.variant == "wc":
        with np.errstate(divide="ignore"):  # nodes without in-edges: inf, taken by no edge
            base = (1.0 / g.in_degrees()).take(g.out_dst)
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
    # bincount adds each target's weights in ascending-source order.
    sums = np.bincount(g.out_dst, weights=g.out_prob, minlength=g.node_count)
    bad = np.nonzero(sums > 1.0 + LT_WEIGHT_TOLERANCE)[0]
    return [int(v) for v in bad]
