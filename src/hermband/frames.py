"""Needlet frame: analysis and synthesis over the multiscale node sets.

The frame element attached to tile R at level j is
phi_R(x) = tau_R^{1/2} phi_j(sqrt(L))(x, x_R); its dual psi_R uses the
dual window.  Analysis evaluates the band projection at the nodes (exact,
no quadrature); synthesis assembles sum s_R psi_R in coefficient space.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .core import SpectralFunction, degree_array, hermite_functions, lifted_gauss_hermite
from .lp import apply_lp, lp_delta, support_set
from .tiles import build_level


class CoefficientSequence:
    """Per-level dense coefficient arrays over the level's node grids."""

    def __init__(self, cfg, J):
        self.cfg = cfg
        self.J = int(J)
        self.levels = {}

    def level(self, j):
        if j in self.levels:
            return self.levels[j]
        ts = build_level(j, self.cfg)
        return np.zeros((ts.nodes_per_axis,) * ts.dim, dtype=complex)

    def scaled(self, a):
        out = CoefficientSequence(self.cfg, self.J)
        out.levels = {j: a * arr for j, arr in self.levels.items()}
        return out

    def add(self, other):
        out = CoefficientSequence(self.cfg, max(self.J, other.J))
        for j in set(self.levels) | set(other.levels):
            out.levels[j] = self.level(j) + other.level(j)
        return out

    def norm2(self):
        return math.sqrt(sum(float(np.sum(np.abs(a) ** 2)) for a in self.levels.values()))

    def to_json_dict(self, tol=0.0):
        levels = []
        for j in sorted(self.levels):
            arr = self.levels[j]
            idx = np.argwhere(np.abs(arr) > tol)
            vals = arr[tuple(idx.T)]
            entries = [{"node": ix, "re": v.real, "im": v.imag}
                       for ix, v in zip(idx.tolist(), vals.tolist())]
            levels.append({"j": j, "entries": entries})
        return {"levels": levels}

    @classmethod
    def from_json_dict(cls, d, cfg):
        J = max((lev["j"] for lev in d["levels"]), default=0)
        out = cls(cfg, J)
        for lev in d["levels"]:
            j = int(lev["j"])
            ts = build_level(j, cfg)
            shape = (ts.nodes_per_axis,) * ts.dim
            arr = np.zeros(shape, dtype=complex)
            for e in lev["entries"]:
                node = tuple(int(i) for i in e["node"])
                if len(node) != ts.dim or not all(0 <= i < ts.nodes_per_axis for i in node):
                    raise ValueError(f"level {j}: node {list(node)} is not an index "
                                     f"of the {shape} node grid")
                v = complex(e["re"], e.get("im", 0.0))
                if not cmath.isfinite(v):
                    raise ValueError(f"level {j}: non-finite coefficient at node {list(node)}")
                arr[node] = v
            out.levels[j] = arr
        return out

    def save(self, path, tol=0.0):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(tol), f)

    @classmethod
    def load(cls, path, cfg):
        with open(path) as f:
            return cls.from_json_dict(json.load(f), cfg)


def needlet(sys, tile, n=None, dual=False):
    """Frame element of a tile as an exact finite Hermite expansion."""
    node = np.atleast_1d(tile.node)
    f = lp_delta(sys, tile.level, node, len(node), dual=dual)
    return f.scaled(math.sqrt(tile.weight))


def analyze(sys, f, J, cfg):
    """Coefficients s_R = tau_R^{1/2} (phi_j(sqrt(L)) f)(x_R), all levels <= J."""
    if cfg.dim != f.dim:
        raise ValueError("config dimension does not match function")
    s = CoefficientSequence(cfg, J)
    for j in range(J + 1):
        ts = build_level(j, cfg)
        fj = apply_lp(sys, j, f)
        vals = fj.eval_grid([ts.zeros] * f.dim)
        s.levels[j] = np.sqrt(ts.weight_array().reshape(vals.shape)) * vals
    return s


def synthesize(sys, s, prune_tol=1e-15):
    """sum_R s_R psi_R assembled exactly in the spectral representation.

    Per level, the coefficient of h_xi is
    psi_j(sqrt(lambda_{|xi|})) * sum_zeta tau_zeta^{1/2} s_zeta h_xi(zeta),
    a tensor contraction over the level's node grid; coefficients of
    magnitude <= prune_tol are dropped.
    """
    cfg = s.cfg
    n = cfg.dim
    total = None
    for j in sorted(s.levels):
        ts = build_level(j, cfg)
        ks = support_set(sys, j, n)
        if len(ks) == 0:
            continue
        k_max = ks[-1]
        H = hermite_functions(k_max, ts.zeros)          # (k_max+1, nodes)
        T = s.levels[j]
        for d in range(n):
            T = T * np.sqrt(ts.tau1d).reshape((-1,) + (1,) * (n - 1 - d))
        # contract each axis against the Hermite values at the nodes
        for _ in range(n):
            T = np.tensordot(T, H, axes=([0], [1]))     # -> (..., k_max+1)
        c = degree_array(sys.degree_windows(j, k_max, n, dual=True), n) * T
        c[np.abs(c) <= prune_tol] = 0.0
        part = SpectralFunction(n, k_max, c)
        total = part if total is None else total.add(part)
    return total if total is not None else SpectralFunction(n, 0)


def roundtrip_residual(sys, f, J, cfg):
    """Relative L^2 error of synthesize(analyze(f)).

    Meaningful only when the window sum is 1 on the occupied spectrum
    (lambda_K <= (plateau_end * 2^J)^2); the flag reports coverage.
    """
    lam_max = 2.0 * f.max_degree + f.dim
    covered = lam_max <= (sys.plateau_end * 2.0 ** J) ** 2 + 1e-12
    g = synthesize(sys, analyze(sys, f, J, cfg))
    num = g.sub(f).norm2()
    den = f.norm2()
    res = num / den if den > 0 else 0.0
    return res, covered


def inner_product_quadrature(f, g, extra=6):
    """Oracle: <f, g-conj> for two spectral functions by Gauss-Hermite.

    Both are polynomial times e^{-|y|^2/2}, so the product carries the
    Gauss-Hermite weight e^{-|y|^2} exactly.
    """
    if g.dim != f.dim:
        raise ValueError("dimension mismatch")
    n = f.dim
    q = (f.max_degree + g.max_degree) // 2 + 1 + extra
    return complex(lifted_gauss_hermite(
        lambda y: f.eval_grid([y] * n) * np.conj(g.eval_grid([y] * n)), q, n))


def analyze_tile_quadrature(sys, f, tile, extra=6):
    """Oracle for one coefficient: <f, phi_R> by quadrature."""
    phi_R = needlet(sys, tile)
    return inner_product_quadrature(f, phi_R, extra)
