"""Besov and Triebel-Lizorkin norms, sequence norms, maximal operator.

Distribution norms combine the exact band projections phi_j(sqrt(L))f with
grid quadrature; the p = 2 spectral cases use Parseval directly, and so does
F^alpha_{2,2}, which by Fubini equals B^alpha_{2,2}.  The band windows come
from AdmissibleSystem.degree_windows, memoized per system.  Sequence
norms follow the tile bookkeeping: the b-norm weights coefficients by
|R|^{1/p-1/2}, the f-norm sums indicator functions |R|^{-1/2}|s_R| 1_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridFunction, grid_tables, tensor_product
from .lp import apply_lp
from .tiles import build_level


@dataclass(frozen=True)
class SpaceParams:
    family: str            # "B" or "F"
    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if self.family not in ("B", "F"):
            raise ValueError("family must be 'B' or 'F'")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not self.p > 0 or not self.q > 0:
            raise ValueError("p and q must be positive")
        if self.family == "F" and math.isinf(self.p):
            raise ValueError("F-family requires p < infinity")


@dataclass(frozen=True)
class QuadratureBox:
    half_width: float
    points: int

    def axes(self, dim):
        return [np.linspace(-self.half_width, self.half_width, self.points)] * dim

    @classmethod
    def in_dim(cls, half_width, n):
        """[-half_width, half_width]^n sampled at 801 points in 1-D, 241 per axis above."""
        return cls(half_width, 801 if n == 1 else 241)

    @classmethod
    def for_degree(cls, K, n):
        """Box wide enough that the Gaussian tail beyond it is negligible."""
        return cls.in_dim(math.sqrt(2.0 * (2.0 * K + n)) * 1.2 + 2.0, n)


def _grid_lp(vals, axes, p):
    a = np.abs(vals)
    if math.isinf(p):
        return float(np.max(a))
    T = a ** p
    for ax in axes:
        T = np.trapezoid(T, ax, axis=0)
    return float(T) ** (1.0 / p)


def _combine_q(terms, q):
    if math.isinf(q):
        return max(terms) if terms else 0.0
    return sum(t ** q for t in terms) ** (1.0 / q)


def besov_norm(sys, f, params):
    """(sum_j (2^{j alpha} ||phi_j(sqrt L) f||_p)^q)^{1/q}.

    Bands past the coverage level of the occupied spectrum vanish, so the
    sum stops there.  For p != 2 every band is sampled on f's quadrature box,
    from one set of Hermite tables.
    """
    if params.p != 2:
        axes = QuadratureBox.for_degree(f.max_degree, f.dim).axes(f.dim)
        tables = grid_tables(f.max_degree, axes)
    terms = []
    for j in range(sys.coverage_level(2.0 * f.max_degree + f.dim) + 1):
        fj = apply_lp(sys, j, f)
        if not fj.array.any():
            continue
        norm = fj.norm2() if params.p == 2 else _grid_lp(fj.eval_grid(axes, tables), axes, params.p)
        terms.append(2.0 ** (j * params.alpha) * norm)
    return _combine_q(terms, params.q)


def _f_sum(bands, axes, params):
    """|| (sum_j g_j^q)^{1/q} ||_p of non-negative grid bands g_j (max over j for q = inf)."""
    acc = None
    for g in bands:
        if math.isinf(params.q):
            acc = g if acc is None else np.maximum(acc, g)
        else:
            g = g ** params.q
            acc = g if acc is None else acc + g
    if acc is None:
        return 0.0
    if not math.isinf(params.q):
        acc = acc ** (1.0 / params.q)
    return _grid_lp(acc, axes, params.p)


def tl_norm(sys, f, params):
    """|| (sum_j (2^{j alpha} |phi_j(sqrt L) f|)^q)^{1/q} ||_p, bands up to the coverage level.

    At p = q = 2, Fubini and Parseval make this the B^alpha_{2,2} sum, which
    besov_norm computes exactly from the coefficients; other (p, q) go through the grid.
    """
    if params.p == params.q == 2:
        return besov_norm(sys, f, params)
    axes = QuadratureBox.for_degree(f.max_degree, f.dim).axes(f.dim)
    tables = grid_tables(f.max_degree, axes)

    def bands():
        for j in range(sys.coverage_level(2.0 * f.max_degree + f.dim) + 1):
            fj = apply_lp(sys, j, f)
            if fj.array.any():
                yield 2.0 ** (j * params.alpha) * np.abs(fj.eval_grid(axes, tables))

    return _f_sum(bands(), axes, params)


def space_norm(sys, f, params):
    fn = besov_norm if params.family == "B" else tl_norm
    return fn(sys, f, params)


def seq_besov_norm(s, params):
    """b-norm: levelwise p-sums of |R|^{1/p-1/2} |s_R|, q-combined with 2^{j alpha}."""
    terms = []
    for j in sorted(s.levels):
        ts = build_level(j, s.cfg)
        meas = ts.measure_array()
        vals = np.abs(s.levels[j].ravel())
        if math.isinf(params.p):
            inner = float(np.max(meas ** -0.5 * vals, initial=0.0))
        else:
            inner = float(np.sum((meas ** (1.0 / params.p - 0.5) * vals) ** params.p)) ** (1.0 / params.p)
        terms.append(2.0 ** (j * params.alpha) * inner)
    return _combine_q(terms, params.q)


def seq_tl_norm(s, params, box=None):
    """f-norm: grid evaluation of the indicator sums, then L^p."""
    n = s.cfg.dim
    if box is None:
        top = max((build_level(j, s.cfg).outer_halfwidth for j in s.levels), default=1.0)
        box = QuadratureBox.in_dim(top + 0.5, n)
    axes = box.axes(n)

    def bands():
        # the box axes increase, so a level's outer box holds a run of each; there |R| is
        # the widths gathered per axis, multiplied in axis order as in measure_array()
        for j in sorted(s.levels):
            ts = build_level(j, s.cfg)
            run = tuple(slice(np.searchsorted(a, ts.edges[0]),
                              np.searchsorted(a, ts.edges[-1], "right")) for a in axes)
            inner = [a[r] for a, r in zip(axes, run)]
            vals = np.abs(s.levels[j].ravel().take(ts.locate_grid(inner)))
            meas = tensor_product([ts.widths[ts.axis_index(a)] for a in inner])
            vals *= meas.reshape(vals.shape) ** -0.5
            band = np.zeros([len(a) for a in axes])
            band[run] = 2.0 ** (j * params.alpha) * vals
            yield band

    return _f_sum(bands(), axes, params)


def maximal(g, s):
    """Discrete maximal function: sup over dyadic cubes containing x of
    the s-th power average of |g|, to the power 1/s.

    Cube side lengths run over 2^m grid steps; the one-cell cube is always
    included, so the result dominates |g| pointwise.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    # imported here so that only the maximal function loads scipy.ndimage
    from scipy.ndimage import maximum_filter, uniform_filter
    a = np.abs(np.asarray(g.samples)) ** s
    n = a.ndim
    m_max = int(math.floor(math.log2(min(a.shape)))) if min(a.shape) > 1 else 0
    best = a.copy()
    for m in range(1, m_max + 1):
        size = 2 ** m
        avg = uniform_filter(a, size=size, mode="constant", cval=0.0)
        # a cube of this side containing x has center within half a side of x
        cand = maximum_filter(avg, size=size, mode="constant", cval=0.0)
        best = np.maximum(best, cand)
    return GridFunction(g.axes, best ** (1.0 / s))
