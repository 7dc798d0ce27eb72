"""Segmented sums over CSR value arrays, and the row gather feeding them.

`np.ufunc.reduceat` returns the element at the start index for empty
segments and rejects start indices at the end of the array, so
`segment_sum` reduces only over the non-empty segments: their start offsets
tile the value array exactly, and empty segments keep zero.
"""

import numpy as np


def segment_sum(values, indptr):
    """Sum `values[indptr[i]:indptr[i+1]]` for every segment i."""
    out = np.zeros(len(indptr) - 1)
    nonempty = indptr[:-1] < indptr[1:]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out


def gather_rows(indptr, rows):
    """Flat value indices of CSR `rows`, in order, plus their segment offsets.

    Returns (idx, seg): idx concatenates `indptr[r]:indptr[r+1]` for every r
    in `rows`, and seg[i]:seg[i+1] is row i's slice of idx, ready for the
    segment reductions above.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    seg = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=seg[1:])
    idx = np.repeat(starts - seg[:-1], counts)
    idx += np.arange(seg[-1])
    return idx, seg


def sorted_unique(a):
    """`np.unique(a)` by a sort and a neighbour mask; numpy >= 2.3 `np.unique`
    hashes, which took 4-12x as long on these id arrays (40 to 27k ids)."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return np.compress(first, a)
