"""Closed-form guarantees on scale-free random graphs.

Everything here works with two truncated power-law distributions: the degree
law P0(d) proportional to d^-gamma and the size-biased neighbor law P1(d)
proportional to d^(1-gamma). From them come the ratio lower bound alpha (how
much of the full spread the hop-limited spread must capture), the expected
one-hop spread floor, and the activated-fraction fixed point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TRUNCATION = 10**6
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITERS = 10**5


@dataclass(frozen=True)
class ScaleFreeParams:
    """Graph-ensemble parameters: exponent, uniform p, and seed ratio (for the α bound, arrays that broadcast)."""

    gamma: float
    p: float = 0.0
    seed_ratio: float = 0.0
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise ValueError("gamma must exceed 1 and be finite for a normalizable degree law")
        if not np.all((0.0 <= self.p) & (self.p <= 1.0)):
            raise ValueError("p must be in [0, 1]")
        if not np.all((0.0 <= self.seed_ratio) & (self.seed_ratio <= 1.0)):
            raise ValueError("seed_ratio must be in [0, 1]")
        if not 10**3 <= self.truncation <= 10**7:  # a power table costs 8 B per degree; `_pmf` caches 16
            raise ValueError(f"truncation must be in [1000, 10^7], got {self.truncation}")


@lru_cache(maxsize=16)
def _pmf(exponent, truncation):
    pmf = np.arange(1, truncation + 1, dtype=np.float64)
    np.power(pmf, exponent, out=pmf)  # in place: one 8 B-per-degree array per table
    pmf /= pmf.sum()
    return pmf


def _exponent(params, which):
    if which == "p0":
        return -params.gamma
    if which == "p1":
        if not params.gamma > 2.0:
            raise ValueError("P1 requires gamma > 2")
        return 1.0 - params.gamma
    raise ValueError(f"unknown distribution {which!r}")


def degree_dist(params, which, d):
    """P0(d) or P1(d) under the truncated power law, for an integer degree d."""
    if operator.index(d) < 1:  # a float degree is a TypeError here, not an IndexError from the table
        raise ValueError("degree must be at least 1")
    exp = _exponent(params, which)
    if d > params.truncation:
        return 0.0
    return float(_pmf(exp, params.truncation)[d - 1])


def truncation_tail(params, which="p0"):
    """Integral-test estimate of the probability mass beyond the truncation."""
    exp = _exponent(params, which)
    d0 = float(params.truncation)
    tail = d0 ** (exp + 1.0) / (-exp - 1.0)
    return tail * float(_pmf(exp, params.truncation)[0])


def alpha_lower_bound(params):
    """Closed-form floor on (hop-limited spread) / (full spread).

    Clamped to [0, 1]; a vanishing denominator is reported as an error
    rather than clamped away.

    Numerator and denominator are both affine in p, so for each seed ratio
    r the bound is monotone in p, with the p-independent sign of
    r (1 - r) [1 - P0(1) - (1 - r) P0(1) (1 - P1(1))]: it falls with p below
    the crossover r* = 1 - (1 - P0(1)) / (P0(1) (1 - P1(1))) (about 0.4846
    at gamma = 3), rises above it, and is constant at r = 0, r* and 1.
    """
    return float(_alpha(params))


def _alpha(params):
    """The clamped bound at every (p, seed_ratio) of `params`, scalars or arrays that broadcast."""
    r, p = params.seed_ratio, params.p
    p0_1 = degree_dist(params, "p0", 1)
    p1_1 = degree_dist(params, "p1", 1)
    a = 1.0 - (1.0 - r) * p1_1
    numerator = 1.0 - (1.0 - r) * (1.0 - p * r)
    denominator = 1.0 - (1.0 - r) * p0_1 * (1.0 - p * a)
    if np.any(np.abs(denominator) < 1e-15):
        raise ValueError("degenerate denominator in ratio lower bound")
    return np.clip(numerator / denominator, 0.0, 1.0)


def guarantee_factor(alpha):
    """Greedy approximation factor (1 - 1/e) * alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    return (1.0 - 1.0 / math.e) * alpha


def one_hop_expected_lb(params, n, k):
    """Expected one-hop spread floor (p+1)k - p k^2 / n for uniform p."""
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need n >= 1 and k in [0, n], got n={n}, k={k}")
    p = params.p
    return (p + 1.0) * k - p * k * k / n


def _powers(x, buf):
    """x^0 .. x^(len(buf) - 1), written into `buf` by a running product."""
    buf[0] = 1.0
    buf[1:] = x
    return np.cumprod(buf, out=buf)


def solve_expected_fraction(params):
    """Fixed point of the activated-fraction equations.

    Returns (phi, varphi): phi is the expected fraction of nodes activated
    without hop limit, varphi the instrumental edge-following fraction.
    Plain iteration from varphi = r: the map
    v -> 1 - (1 - r) sum_d P1(d) (1 - p v)^d sends [0, 1] into [r, 1] and
    does not decrease in v, so the iterates move one way to the fixed point
    and need no damping.
    """
    r = params.seed_ratio
    p = params.p
    d_max = params.truncation
    p1 = _pmf(_exponent(params, "p1"), d_max)
    p0 = _pmf(_exponent(params, "p0"), d_max)
    buf = np.empty(d_max)
    varphi = r
    for _ in range(FIXED_POINT_MAX_ITERS):
        nxt = 1.0 - (1.0 - r) * float(p1 @ _powers(1.0 - p * varphi, buf))
        delta = nxt - varphi
        if abs(delta) < FIXED_POINT_TOL:
            varphi = nxt
            break
        varphi += delta
    else:
        raise RuntimeError("activated-fraction fixed point did not converge")
    x = 1.0 - p * varphi
    phi = 1.0 - (1.0 - r) * x * float(p0 @ _powers(x, buf))
    return float(min(max(phi, 0.0), 1.0)), float(min(max(varphi, 0.0), 1.0))


def fixed_point_residuals(params, phi, varphi):
    """How far (phi, varphi) are from satisfying both fraction equations."""
    r = params.seed_ratio
    p = params.p
    d_max = params.truncation
    p1 = _pmf(_exponent(params, "p1"), d_max)
    p0 = _pmf(_exponent(params, "p0"), d_max)
    x = 1.0 - p * varphi
    powers = _powers(x, np.empty(d_max))
    res1 = (1.0 - varphi) - (1.0 - r) * float(p1 @ powers)
    res2 = (1.0 - phi) - (1.0 - r) * x * float(p0 @ powers)
    return abs(res1), abs(res2)


def alpha_surface(gamma, ps, seed_ratios, truncation=DEFAULT_TRUNCATION):
    """The bound as a (len(ps), len(seed_ratios)) float64 array; every value is checked before any is computed."""
    ps, seed_ratios = np.asarray(ps, dtype=np.float64), np.asarray(seed_ratios, dtype=np.float64)
    return _alpha(ScaleFreeParams(gamma, ps[:, None], seed_ratios, truncation))


def surface_csv(ps, seed_ratios, grid):
    """CSV text of an `alpha_surface` grid in chunks: the header, then the 10-significant-digit lines of each p."""
    yield "p,seed_ratio,alpha\n"
    for p, row in zip(ps, grid):
        yield "".join(f"{p:.10g},{r:.10g},{alpha:.10g}\n" for r, alpha in zip(seed_ratios, row.tolist()))
