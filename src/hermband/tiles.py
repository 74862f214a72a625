"""Multiscale node sets and tiles from Hermite-polynomial zeros.

A level-j tile is an axis-aligned box around one node of the tensor grid
built from the zeros of the degree-2N_j Hermite polynomial, with
N_j = floor((1 + 11 delta_star) (4/pi)^2 4^j) + 3.  The tile carries the
product Christoffel weight tau_R used by the cubature rule, which is exact
for products f g with deg f + deg g <= 4 N_j - 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import christoffel_many, gauss_hermite, tensor_points


@dataclass(frozen=True)
class TileConfig:
    delta_star: float = 1.0 / 40.0
    dim: int = 1
    max_level: int = 8
    node_budget: int = 2_000_000

    def __post_init__(self):
        if not (0 < self.delta_star < 1.0 / 37.0):
            raise ValueError("delta_star must lie in (0, 1/37)")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def level_degree(j, delta_star=1.0 / 40.0):
    """N_j = floor((1 + 11 delta_star) (4/pi)^2 4^j) + 3."""
    return int(math.floor((1.0 + 11.0 * delta_star) * (4.0 / math.pi) ** 2 * 4.0 ** j)) + 3


def hermite_zeros(m):
    """Zeros of the physicists' Hermite polynomial H_m, increasing."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    nodes, _ = gauss_hermite(m)
    return np.sort(nodes)


@dataclass(frozen=True)
class Tile:
    level: int
    index: tuple          # per-axis node indices
    node: np.ndarray      # x_R
    lo: np.ndarray
    hi: np.ndarray
    weight: float         # tau_R
    measure: float        # |R|

    @property
    def box(self):
        return list(zip(self.lo, self.hi))


class TileSet:
    """All tiles of one level; per-axis data stored once, Tile objects lazy."""

    def __init__(self, level, cfg):
        self.level = int(level)
        self.cfg = cfg
        if not (0 <= level <= cfg.max_level):
            raise ValueError(f"level {level} outside [0, {cfg.max_level}]")
        self.degree = level_degree(level, cfg.delta_star)
        m = 2 * self.degree
        if m ** cfg.dim > cfg.node_budget:
            raise ValueError(
                f"level {level} in dimension {cfg.dim} needs {m ** cfg.dim} nodes, "
                f"budget is {cfg.node_budget}")
        self.zeros = hermite_zeros(m)
        mids = 0.5 * (self.zeros[:-1] + self.zeros[1:])
        outer = self.zeros[-1] + 2.0 ** (-level / 6.0)
        self.edges = np.concatenate(([-outer], mids, [outer]))
        # the Christoffel sum to degree 2N_j - 1 gives the Gauss weights and
        # the full exactness degree
        self.tau1d = christoffel_many(m - 1, self.zeros)
        self.widths = np.diff(self.edges)

    @property
    def dim(self):
        return self.cfg.dim

    @property
    def nodes_per_axis(self):
        return self.zeros.size

    @property
    def count(self):
        return self.zeros.size ** self.dim

    @property
    def outer_halfwidth(self):
        return float(self.edges[-1])

    def indices(self):
        return itertools.product(range(self.zeros.size), repeat=self.dim)

    def tile(self, index):
        index = tuple(int(i) for i in index)
        node = self.zeros[list(index)]
        lo = self.edges[list(index)]
        hi = self.edges[[i + 1 for i in index]]
        return Tile(self.level, index, node, lo, hi,
                    float(np.prod(self.tau1d[list(index)])),
                    float(np.prod(hi - lo)))

    def tiles(self):
        return [self.tile(ix) for ix in self.indices()]

    def node_array(self):
        """All nodes, shape (count, dim), in index (row-major) order."""
        return tensor_points([self.zeros] * self.dim)

    def weight_array(self):
        w = self.tau1d
        for _ in range(self.dim - 1):
            w = np.multiply.outer(w, self.tau1d)
        return w.ravel()

    def measure_array(self):
        w = self.widths
        for _ in range(self.dim - 1):
            w = np.multiply.outer(w, self.widths)
        return w.ravel()

    def locate(self, x):
        """Tile containing x, or None outside the outer box.

        Boundary points are assigned to the lower tile.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size != self.dim:
            raise ValueError("point dimension mismatch")
        idx = []
        for xd in x:
            i = int(np.searchsorted(self.edges, xd, side="left")) - 1
            if xd == self.edges[0]:
                i = 0
            if i < 0 or i >= self.zeros.size:
                return None
            idx.append(i)
        return self.tile(tuple(idx))

    def locate_indices(self, pts):
        """Vectorized per-axis tile indices for points, -1 where outside."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty(pts.shape, dtype=np.int64)
        for d in range(self.dim):
            i = np.searchsorted(self.edges, pts[:, d], side="left") - 1
            i[pts[:, d] == self.edges[0]] = 0
            i[(i < 0) | (i >= self.zeros.size)] = -1
            out[:, d] = i
        return out


_cache = {}


def build_level(j, cfg):
    """Construct (and memoize) the level-j tile set."""
    # the budget is not part of the cache key, so enforce it here too:
    # a cached tile set must not satisfy a stricter budget by accident
    m = 2 * level_degree(j, cfg.delta_star)
    if m ** cfg.dim > cfg.node_budget:
        raise ValueError(f"level {j} needs {m ** cfg.dim} nodes in dimension "
                         f"{cfg.dim}; budget is {cfg.node_budget}")
    key = (j, cfg.dim, cfg.delta_star)
    if key not in _cache:
        _cache[key] = TileSet(j, cfg)
    return _cache[key]


def cubature(ts, f_vals, g_vals=None):
    """sum_zeta tau_zeta f(zeta) g(zeta) over the nodes of a level.

    Exact for f in V_k, g in V_l with k + l <= 4 N_j - 1 (classical weights).
    """
    f_vals = np.asarray(f_vals).ravel()
    if f_vals.size != ts.count:
        raise ValueError("sample count does not match node count")
    w = ts.weight_array()
    if g_vals is None:
        return np.sum(w * f_vals)
    g_vals = np.asarray(g_vals).ravel()
    if g_vals.size != ts.count:
        raise ValueError("sample count does not match node count")
    return np.sum(w * f_vals * g_vals)


def write_nodes_csv(ts, fh):
    """level,node_index,x1..xn,tau,measure,lo1,hi1,... rows for one level."""
    n = ts.dim
    cols = ["level", "node_index"] + [f"x{i + 1}" for i in range(n)] + ["tau", "measure"]
    for i in range(n):
        cols += [f"lo{i + 1}", f"hi{i + 1}"]
    fh.write(",".join(cols) + "\n")
    for flat, ix in enumerate(ts.indices()):
        t = ts.tile(ix)
        row = [str(ts.level), str(flat)]
        row += ["%.17g" % v for v in t.node]
        row += ["%.17g" % t.weight, "%.17g" % t.measure]
        for lo, hi in zip(t.lo, t.hi):
            row += ["%.17g" % lo, "%.17g" % hi]
        fh.write(",".join(row) + "\n")


def tile_geometry_constants(ts, delta_star=None):
    """Minimal box constants of the level: central c0 and global (c1, c2).

    c0: smallest c with R contained in Q(x_R, c 2^{-j}) for central tiles
    (|x_R| <= (1+4 delta_star) 2^{j+1});
    c1: largest c with Q(x_R, c 2^{-j}) contained in R, all tiles;
    c2: smallest c with R contained in Q(x_R, c 2^{-j/3}), excluding the
    outermost tile per axis (its 2^{-j/6} outer padding grows like 2^{j/6}
    on the 2^{-j/3} scale by construction);
    c2_all: same including the padded boundary tiles.
    """
    ds = ts.cfg.delta_star if delta_star is None else delta_star
    j = ts.level
    z, e = ts.zeros, ts.edges
    half_out = np.maximum(e[1:] - z, z - e[:-1])   # outer half width per 1d tile
    half_in = np.minimum(e[1:] - z, z - e[:-1])
    central = np.abs(z) <= (1.0 + 4.0 * ds) * 2.0 ** (j + 1)
    c0 = float(np.max(half_out[central]) * 2.0 ** j)
    c1 = float(np.min(half_in) * 2.0 ** j)
    c2 = float(np.max(half_out[1:-1]) * 2.0 ** (j / 3.0)) if z.size > 2 else \
        float(np.max(half_out) * 2.0 ** (j / 3.0))
    c2_all = float(np.max(half_out) * 2.0 ** (j / 3.0))
    return c0, c1, c2, c2_all
