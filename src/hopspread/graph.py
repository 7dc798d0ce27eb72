"""Directed probability-weighted graphs in compressed adjacency form.

A `Graph` is immutable after construction and stores each edge once, in
the outgoing CSR view sorted by (source, target): a target id (int32 below
2^31 nodes) and a probability per edge, a row offset and an original id
per node. Nothing reads edges by target, so there is no incoming view;
in-degrees are counted from the targets. Node ids are densified to 0..n-1;
`original_ids` maps internal ids back to the ids seen in the input so
results can be reported in the caller's id space.

`load_edge_list` reads text edge lists with two engines: a C scan
(`np.fromstring`) for "u v" and "u v p" files whose data lines pass a
byte-level gate, and the line loop `_parse_lines`, the reference that
takes every other input and names the first bad line.
"""

from __future__ import annotations

import io
import re
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


def _read_only(a):
    """A read-only view of `a`; the caller's array stays writeable."""
    view = a.view()
    view.flags.writeable = False
    return view


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
        probabilities outside [0, 1], and `original_ids` that are not strictly
        increasing (`to_internal` binary-searches them). Errors name nodes by
        `original_ids`. The graph keeps its own copy of `original_ids`, and
        every array it keeps is read-only.
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
        original_ids = np.asarray(np.arange(n) if original_ids is None else original_ids, dtype=np.int64)
        if len(original_ids) != n:
            raise GraphError("original_ids length must equal node_count")
        if not (original_ids[1:] > original_ids[:-1]).all():
            raise GraphError("original_ids must be strictly increasing")
        if m and (src == dst).any():
            u = int(original_ids[src[(src == dst).argmax()]])
            raise GraphError(f"self-loop at node {u}")
        if m and not ((prob >= 0.0) & (prob <= 1.0)).all():
            raise GraphError("edge probability outside [0, 1]")

        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=out_indptr[1:])

        # Out-view: one argsort of (source, target) packed into uint64 keys. A
        # prob of all zero bits ("u v" files) is made afresh once order is gone.
        key = np.left_shift(src, np.uint64(node_bits), dtype=np.uint64, casting="unsafe")
        np.bitwise_or(key, dst, out=key, dtype=np.uint64, casting="unsafe")
        order = np.argsort(key)
        del key
        out_dst = dst.astype(_index_dtype(n), copy=False).take(order)
        out_prob = prob[order] if prob.view(np.uint64).any() else None
        del order
        out_prob = np.zeros(m) if out_prob is None else out_prob
        # Rows are sorted, so the first target equal to its predecessor in its
        # row (dup[i]: out_dst[i] vs out_dst[i - 1]) is the smallest duplicate.
        dup = np.zeros(m + 1, dtype=bool)
        np.equal(out_dst[1:], out_dst[:-1], out=dup[1:m])
        dup[out_indptr] = False
        if dup.any():
            i = int(dup.argmax())
            u = int(np.searchsorted(out_indptr, i, side="right")) - 1
            raise GraphError(f"duplicate edge {int(original_ids[u])}->{int(original_ids[out_dst[i]])}")
        # The graph's own copy, made after the transients are freed: one made before them raised later RSS peaks.
        self._finish(out_indptr, out_dst, out_prob, original_ids.copy())

    def _finish(self, out_indptr, out_dst, out_prob, original_ids):
        """The last step of every Graph, built, reweighted or unpickled: keep
        read-only views of the arrays, and the node and edge counts they hold."""
        self.out_indptr, self.out_dst, self.out_prob, self.original_ids = map(
            _read_only, (out_indptr, out_dst, out_prob, original_ids))
        self.node_count, self.edge_count = len(original_ids), len(out_dst)
        return self

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
        pos = np.searchsorted(self.original_ids, original)
        # The ids are unique: an id is present iff its left and right insertion points differ.
        bad = np.searchsorted(self.original_ids, original, side="right") == pos
        if bad.any():
            raise GraphError(f"unknown node id {int(original[bad.argmax()])}")
        return pos.astype(np.int64)

    def _with_probs(self, out_prob):
        """New Graph sharing topology arrays, with replaced probabilities."""
        return Graph.__new__(Graph)._finish(self.out_indptr, self.out_dst, out_prob, self.original_ids)

    def __setstate__(self, state):
        # Unpickled arrays come back writeable and carry dtype instances equal
        # to, but not, numpy's canonical ones, and some ufunc loops (np.add.at)
        # take a slow generic path on those; a read-only view by scalar type
        # restores both. The counts are taken from the arrays again.
        arrays = (state[1][name] for name in ("out_indptr", "out_dst", "out_prob", "original_ids"))
        self._finish(*(a.view(a.dtype.type) for a in arrays))

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
        if self.variant == "trivalency" and (self.rng_seed is None or self.rng_seed < 0):
            raise GraphError("trivalency weight model needs a non-negative rng seed")
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


def load_edge_list(source):
    """Parse a whitespace-separated edge list into a Graph.

    `source` is a path, bytes, or a file object (binary or text). Lines are "u v" or "u v p"; blank lines and
    lines starting with '#' are skipped. Missing probabilities default to
    0.0 pending a WeightModel. The distinct ids that appear are densified
    in sorted order. A malformed line raises a GraphError that names it.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")  # a lone surrogate fails the loop's decode
    edges = _parse_buffer(data)
    src, dst, prob = edges if edges is not None else _parse_lines(data)
    del data, edges

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
_INT64_MAX = np.iinfo(np.int64).max
_WINDOW = 1 << 19


def _parse_buffer(data):
    """(src, dst, prob) of an edge list read by the C scan, or None.

    The first data line's field count picks the gate, `_pair_tokens` ("u v")
    or `_triple_tokens` ("u v p"); the lines before it must be UTF-8. Whole
    lines up to the last non-blank one (which may lack its line end) are gated
    and read in windows of about `_WINDOW` bytes, so that no check holds a
    transient of the whole buffer; blank lines after it are skipped. A gate
    sees "\r\n" as "\n" and a last line that lacks its end with "\n", so a
    lone "\r" fails it; `np.fromstring` reads "\r\n" as "\n" by itself.
    `np.fromstring` reads the tokens `str.split()` gives the line loop: "u v"
    ids as int64, as `int()` does but saturating at 2^63 - 1; "u v p" fields
    as float64, as `float()` does, so ids are exact below 2^53 and, rounding
    being monotone, read as 2^53 or more above it. Such ids, self-loops and
    probabilities above 1 leave the input to the line loop, as None does.
    """
    first = _FIRST_DATA_LINE.search(data)
    columns = len(first.group().split()) if first else 0
    if columns not in (2, 3):
        return None
    start = first.start()
    if not data[:start].isascii():
        try:
            data[:start].decode("utf-8")
        except UnicodeDecodeError:
            return None
    gate = _pair_tokens if columns == 2 else _triple_tokens
    # Blank lines at the end would fail the gate, so the scan stops at the
    # "\n" of the last non-blank line (the first data line ends the walk back).
    stop = len(data)
    while data[stop - 1] in b" \t\r\n":
        stop -= 1
    stop = data.find(b"\n", stop) + 1 or len(data)
    windows = []
    while start < stop:
        end = data.find(b"\n", start + _WINDOW, stop) + 1 or stop
        window = data[start:end]
        if b"\r" in window:  # replace scans even a window it returns unchanged
            window = window.replace(b"\r\n", b"\n")
        count = gate(window if window.endswith(b"\n") else window + b"\n")
        del window  # before the next slice, so that one buffer serves every window
        if count is None:
            return None
        windows.append((start, end, count))
        start = end
    m = sum(count for _, _, count in windows) // columns
    ids = np.empty((m, 2), dtype=np.int64)
    prob = np.empty(m) if columns == 3 else None
    at = 0
    # Each window's rows are freed before the next read: the buffer never lives
    # next to two windows' rows, or to a float64 copy of every field.
    for start, end, count in windows:
        rows = np.fromstring(data[start:end], dtype=np.float64 if columns == 3 else np.int64, count=count, sep=" ")
        rows = rows.reshape(-1, columns)
        if columns == 3:
            if not (rows[:, :2] < 2.0**53).all():
                return None
            prob[at : at + len(rows)] = rows[:, 2]
        ids[at : at + len(rows)] = rows[:, :2]
        at += len(rows)
        del rows
    src, dst = ids[:, 0], ids[:, 1]
    if (ids == _INT64_MAX).any() or (src == dst).any() or (columns == 3 and (prob > 1.0).any()):
        return None
    return src, dst, prob if columns == 3 else np.zeros(m)


def _pair_tokens(window):
    """How many ids `window` holds if its lines are all "<digits>" sep
    "<digits>" "\\n", with sep one ' ' or one tab throughout, else None.

    That holds when the non-digit bytes repeat sep + "\\n", no two of them
    touch, and the window starts with a digit and ends with "\\n".
    """
    rest = window.translate(None, b"0123456789")
    line = rest[:2]
    if line[:1] not in (b" ", b"\t") or not window.endswith(b"\n") or rest != line * (len(rest) // 2):
        return None
    blank = np.frombuffer(window, dtype=np.uint8) < 0x30
    if blank[0] or (blank[1:] & blank[:-1]).any():
        return None
    return len(rest)


# The non-digit bytes of a "u v p" line as classes 0-4, named s d e g n: sep,
# '.', exponent mark, its sign, "\n". _PAIRS[a, b, touching] is True where
# class b may follow class a with digits between them (0) or right after it (1).
_CLASSES = bytes.maketrans(b" \t.eE+-\n", b"\0\0\1\2\2\3\3\4")
_PAIRS = np.zeros((5, 5, 2), dtype=bool)
for _touching, _allowed in enumerate(["ss sn sd se dn de en gn ns", "sd dn de eg"]):
    for _a, _b in _allowed.split():
        _PAIRS["sdegn".index(_a), "sdegn".index(_b), _touching] = True


def _triple_tokens(window):
    """How many values `window` holds if its lines are all "<digits>" sep
    "<digits>" sep "<probability>" "\\n", with sep one ' ' or one tab
    throughout and each probability matching
    (\\d+\\.?\\d*|\\.\\d+)([eE][+-]?\\d+)?, else None.

    That holds when the window starts with a digit, its non-digit bytes less
    '.', 'e', 'E', '+' and '-' repeat sep sep "\\n", each non-digit byte and
    the next are in `_PAIRS`, and no '.' touches a non-digit on both sides.
    `np.fromstring` itself reads "1e" or "1.5.3" as a prefix without error.
    """
    b = np.frombuffer(window, dtype=np.uint8)
    at = np.flatnonzero(b - np.uint8(0x30) > 9)  # the non-digit bytes
    rest = b[at].tobytes()
    sep = rest[:1]
    ends = rest.translate(None, b".eE+-")
    if sep not in (b" ", b"\t") or not window.endswith(b"\n") or ends != (sep * 2 + b"\n") * (len(ends) // 3):
        return None
    kind = np.frombuffer(rest.translate(_CLASSES), dtype=np.uint8)
    touching = at[1:] - at[:-1] == 1
    pairs = kind[:-1] * np.uint8(10) + kind[1:] * np.uint8(2) + touching  # flat indices into _PAIRS
    lone_dots = touching[:-1] & touching[1:] & (kind[1:-1] == 1)  # a '.' between two non-digits
    if at[0] == 0 or not _PAIRS.take(pairs).all() or lone_dots.any():
        return None
    return len(ends)


def _parse_lines(data):
    """(src, dst, prob) of an edge list, one line at a time.

    This is the reference for `_parse_buffer` and the error locator: the
    first line that is not UTF-8, not two or three fields, or not a valid
    edge raises a GraphError naming it.
    """
    srcs = array("q")
    dsts = array("q")
    probs = array("d")
    for lineno, raw in enumerate(io.BytesIO(data), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise GraphError(f"line {lineno}: byte 0x{raw[e.start]:02x} is not UTF-8") from None
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


def check_model(g, model):
    """Raise unless `model` is "ic", or "lt" with `g` admissible for it (see
    `validate_lt`); the error names the first over-weight node by its input id."""
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown diffusion model {model!r}")
    bad = validate_lt(g) if model == "lt" else []
    if bad:
        raise GraphError(f"{len(bad)} nodes exceed unit incoming weight (first: {int(g.original_ids[bad[0]])})")
