"""Lebesgue, Besov and Triebel-Lizorkin norms, sequence norms, maximal operator.

Distribution norms combine the exact band projections phi_j(sqrt(L))f with
grid quadrature; the p = 2 spectral case uses Parseval directly.  Sequence
norms follow the tile bookkeeping: the b-norm weights coefficients by
|R|^{1/p-1/2}, the f-norm sums indicator functions |R|^{-1/2}|s_R| 1_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter, uniform_filter

from .core import GridFunction, SpectralFunction, tensor_points
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
        if not self.p > 0 or not self.q > 0:
            raise ValueError("p and q must be positive")
        if self.family == "F" and math.isinf(self.p):
            raise ValueError("F-family requires p < infinity")


@dataclass(frozen=True)
class QuadratureBox:
    half_width: float
    points: int = 801

    def axes(self, dim):
        return [np.linspace(-self.half_width, self.half_width, self.points)] * dim

    @classmethod
    def for_degree(cls, K, n, points=None):
        """Box wide enough that the Gaussian tail beyond it is negligible."""
        X = math.sqrt(2.0 * (2.0 * K + n)) * 1.2 + 2.0
        if points is None:
            points = 801 if n == 1 else 241
        return cls(X, points)


def _grid_lp(vals, axes, p):
    a = np.abs(vals)
    if math.isinf(p):
        return float(np.max(a))
    T = a ** p
    for ax in axes:
        T = np.trapezoid(T, ax, axis=0)
    return float(T) ** (1.0 / p)


def lp_norm(g, p, box=None):
    """L^p quasi-norm.

    SpectralFunction with p = 2 goes through Parseval (exact); otherwise the
    function is sampled on the quadrature box and integrated by trapezoid.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if isinstance(g, SpectralFunction):
        if p == 2:
            return g.norm2()
        if box is None:
            box = QuadratureBox.for_degree(g.max_degree, g.dim)
        axes = box.axes(g.dim)
        return _grid_lp(g.eval_grid(axes), axes, p)
    if isinstance(g, GridFunction):
        return _grid_lp(g.samples, g.axes, p)
    raise TypeError("expected SpectralFunction or GridFunction")


def _combine_q(terms, q):
    terms = [t for t in terms]
    if math.isinf(q):
        return max(terms) if terms else 0.0
    return sum(t ** q for t in terms) ** (1.0 / q)


def besov_norm(sys, f, params, J=None, box=None):
    """(sum_j (2^{j alpha} ||phi_j(sqrt L) f||_p)^q)^{1/q}."""
    lam_max = 2.0 * f.max_degree + f.dim
    if J is None:
        J = sys.coverage_level(lam_max)
    covered = lam_max <= (sys.plateau_end * 2.0 ** J) ** 2 + 1e-12
    terms = []
    for j in range(J + 1):
        fj = apply_lp(sys, j, f)
        if not fj.array.any():
            continue
        terms.append(2.0 ** (j * params.alpha) * lp_norm(fj, params.p, box))
    val = _combine_q(terms, params.q)
    return (val, covered) if not covered else val


def tl_norm(sys, f, params, J=None, box=None):
    """|| (sum_j (2^{j alpha} |phi_j(sqrt L) f|)^q)^{1/q} ||_p."""
    lam_max = 2.0 * f.max_degree + f.dim
    if J is None:
        J = sys.coverage_level(lam_max)
    covered = lam_max <= (sys.plateau_end * 2.0 ** J) ** 2 + 1e-12
    if box is None:
        box = QuadratureBox.for_degree(f.max_degree, f.dim)
    axes = box.axes(f.dim)
    acc = None
    for j in range(J + 1):
        fj = apply_lp(sys, j, f)
        if not fj.array.any():
            continue
        g = (2.0 ** (j * params.alpha) * np.abs(fj.eval_grid(axes)))
        if math.isinf(params.q):
            acc = g if acc is None else np.maximum(acc, g)
        else:
            g = g ** params.q
            acc = g if acc is None else acc + g
    if acc is None:
        return 0.0
    if not math.isinf(params.q):
        acc = acc ** (1.0 / params.q)
    val = _grid_lp(acc, axes, params.p)
    return (val, covered) if not covered else val


def space_norm(sys, f, params, J=None, box=None):
    fn = besov_norm if params.family == "B" else tl_norm
    return fn(sys, f, params, J, box)


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
        box = QuadratureBox(top + 0.5, 801 if n == 1 else 241)
    axes = box.axes(n)
    pts = tensor_points(axes)
    acc = None
    for j in sorted(s.levels):
        ts = build_level(j, s.cfg)
        idx = ts.locate_indices(pts)
        inside = np.all(idx >= 0, axis=1)
        flat = np.zeros(pts.shape[0])
        if inside.any():
            ii = idx[inside]
            lin = np.ravel_multi_index(tuple(ii.T), (ts.nodes_per_axis,) * n)
            meas = ts.measure_array()[lin]
            vals = np.abs(s.levels[j].ravel()[lin])
            flat[inside] = meas ** -0.5 * vals
        g = 2.0 ** (j * params.alpha) * flat.reshape([len(a) for a in axes])
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


def maximal(g, s):
    """Discrete maximal function: sup over dyadic cubes containing x of
    the s-th power average of |g|, to the power 1/s.

    Cube side lengths run over 2^m grid steps; the one-cell cube is always
    included, so the result dominates |g| pointwise.
    """
    if s <= 0:
        raise ValueError("s must be positive")
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
