"""Synthetic graph generators for benchmarks and theory checks.

`power_law_graph` is the benchmarking workhorse: heavy-tailed out-degrees
(hubs to select), uniform targets, approximately the requested edge count
after removing self-loops and duplicate pairs.

`power_law_in_degree_graph` matches the setting of the closed-form bounds:
every node draws an in-degree of at least 1 from a truncated power law and
picks that many distinct uniform sources.
"""

from __future__ import annotations

import numpy as np

from ._segments import sorted_unique
from .graph import Graph


def _rng(rng_seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))


def _first_occurrences(a):
    """Ascending indices of the first occurrence of each value in `a`, the
    sorted `index` output of `np.unique(a, return_index=True)`.

    Duplicates are rare here, so only the occurrences of duplicated values
    are located (one `searchsorted`) and stably ordered by value; all but
    the first of each run are dropped.
    """
    s = np.sort(a)
    dup = sorted_unique(s[1:][s[1:] == s[:-1]])
    if len(dup) == 0:
        return np.arange(len(a))
    slot = np.minimum(np.searchsorted(dup, a), len(dup) - 1)
    occ = np.flatnonzero(dup[slot] == a)
    occ = occ[np.argsort(a[occ], kind="stable")]
    keep = np.ones(len(a), dtype=bool)
    keep[occ[1:][a[occ[1:]] == a[occ[:-1]]]] = False
    return np.flatnonzero(keep)


def power_law_graph(n, m, gamma=2.3, rng_seed=0):
    """Directed graph with ~m edges whose out-degrees follow a power law."""
    n = int(n)
    m = int(m)
    if n < 2 or m < 1:
        raise ValueError("need at least 2 nodes and 1 edge")
    if not 1.0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and above 1, got {gamma}")
    rng = _rng(rng_seed)
    # Chung-Lu style weights: w_i ~ (i+1)^(-1/(gamma-1)) yields exponent gamma.
    w = np.power(np.arange(1, n + 1, dtype=np.float64), -1.0 / (gamma - 1.0))
    w /= w.sum()
    # Oversample to compensate for the self-loop/duplicate trim below.
    m_try = int(m * 1.12) + 8
    src = rng.choice(n, size=m_try, p=w)
    dst = rng.integers(0, n, size=m_try)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    pair = src.astype(np.int64) * n + dst.astype(np.int64)
    first = _first_occurrences(pair)
    src, dst = src[first[:m]], dst[first[:m]]
    return Graph(n, src, dst, np.zeros(len(src)))


def power_law_in_degree_graph(n, gamma=3.0, rng_seed=0):
    """Directed graph whose in-degrees are power-law distributed, minimum 1."""
    n = int(n)
    if n < 2:
        raise ValueError("need at least 2 nodes")
    rng = _rng(rng_seed)
    dmax = min(n - 1, 1000)
    degrees = np.arange(1, dmax + 1, dtype=np.float64)
    pmf = degrees ** (-gamma)
    pmf /= pmf.sum()
    indeg = rng.choice(np.arange(1, dmax + 1), size=n, p=pmf)
    srcs = []
    dsts = []
    for v in range(n):
        d = int(indeg[v])
        picks = rng.choice(n - 1, size=d, replace=False)
        picks = np.where(picks >= v, picks + 1, picks)  # skip v itself
        srcs.append(picks)
        dsts.append(np.full(d, v, dtype=np.int64))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    return Graph(n, src, dst, np.zeros(len(src)))
