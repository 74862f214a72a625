"""Multiscale node sets and tiles from Hermite-polynomial zeros.

A level-j tile is an axis-aligned box around one node of the tensor grid
built from the zeros of the degree-2N_j Hermite polynomial, with
N_j = floor((1 + 11 delta_star) (4/pi)^2 4^j) + 3.  The tile carries the
product Christoffel weight tau_R used by the cubature rule, which is exact
for products f g with deg f + deg g <= 4 N_j - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import gauss_hermite, shown, tensor_points, tensor_product

AXIS_NODES_MAX = 20_000     # m = 2 N_j nodes per axis; the weights cost O(m^2) flops
NODES_MAX = 2_000_000       # m^n nodes in all


@dataclass(frozen=True)
class TileConfig:
    delta_star: float = 1.0 / 40.0
    dim: int = 1

    def __post_init__(self):
        if not (0 < self.delta_star < 1.0 / 37.0):
            raise ValueError("delta_star must lie in (0, 1/37)")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def level_degree(j, delta_star):
    """N_j = floor((1 + 11 delta_star) (4/pi)^2 4^j) + 3."""
    return int(math.floor((1.0 + 11.0 * delta_star) * (4.0 / math.pi) ** 2 * 4.0 ** j)) + 3


def buildable(j, cfg):
    """Whether level j can be built: 1-D levels 0-6, 2-D 0-4, 3-D 0-2."""
    m = 2 * level_degree(min(j, 16), cfg.delta_star)   # every j >= 16 is past both caps
    return j >= 0 and m <= AXIS_NODES_MAX and m ** cfg.dim <= NODES_MAX


def check_level(j, cfg):
    """N_j of level j; ValueError unless it is buildable."""
    if not buildable(j, cfg):
        raise ValueError(f"level {j} is not buildable in dimension {cfg.dim}")
    return level_degree(j, cfg.delta_star)


@dataclass(frozen=True)
class Tile:
    level: int
    index: tuple          # per-axis node indices
    node: np.ndarray      # x_R
    weight: float         # tau_R
    measure: float        # |R|


class TileSet:
    """All tiles of one level; per-axis data stored once, Tile objects lazy."""

    def __init__(self, level, cfg):
        self.level = int(level)
        self.cfg = cfg
        self.degree = check_level(self.level, cfg)
        # the m-point Gauss-Hermite rule, m = 2N_j: its lifted weights are the
        # Christoffel weights tau_R, exact to degree 2m - 1 = 4N_j - 1
        self.zeros, self.tau1d = gauss_hermite(2 * self.degree)
        mids = 0.5 * (self.zeros[:-1] + self.zeros[1:])
        outer = self.zeros[-1] + 2.0 ** (-level / 6.0)
        self.edges = np.concatenate(([-outer], mids, [outer]))
        self.widths = np.diff(self.edges)

    @property
    def dim(self):
        return self.cfg.dim

    @property
    def nodes_per_axis(self):
        return self.zeros.size

    @property
    def shape(self):
        """Shape of the level's node grid, one axis per dimension."""
        return (self.zeros.size,) * self.dim

    @property
    def count(self):
        return self.zeros.size ** self.dim

    @property
    def outer_halfwidth(self):
        return float(self.edges[-1])

    def node_index(self, index):
        """index as a tuple of ints; ValueError unless it names a node of this level."""
        index = tuple(index)
        if len(index) != self.dim or not all(0 <= i < self.zeros.size for i in index):
            raise ValueError(f"{shown(list(index))} is not a node index of level {self.level}: "
                             f"need {self.dim} entries in [0, {self.zeros.size})")
        return tuple(int(i) for i in index)

    def tile(self, index):
        index = self.node_index(index)
        return Tile(self.level, index, self.zeros[list(index)],
                    float(np.prod(self.tau1d[list(index)])),
                    float(np.prod(self.widths[list(index)])))

    def node_array(self):
        """All nodes, shape (count, dim), in index (row-major) order."""
        return tensor_points([self.zeros] * self.dim)

    def weight_array(self):
        return tensor_product([self.tau1d] * self.dim)

    def measure_array(self):
        return tensor_product([self.widths] * self.dim)

    def locate(self, x):
        """Tile containing x, or None outside the outer box.

        Boundary points are assigned to the lower tile.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size != self.dim:
            raise ValueError("point dimension mismatch")
        flat = int(self.locate_grid(x[:, None]).item())
        return None if flat < 0 else self.tile(np.unravel_index(flat, self.shape))

    def axis_index(self, ax):
        """Per-axis tile index of each coordinate of ax, by one searchsorted on
        the edges; -1 outside the outer box, boundary points to the lower tile."""
        ax = np.asarray(ax, dtype=float)
        idx = np.searchsorted(self.edges, ax, side="left") - 1
        idx[ax == self.edges[0]] = 0
        return np.where(idx < self.zeros.size, idx, -1)

    def locate_grid(self, axes):
        """Row-major node index of the tile holding each point of the tensor grid
        of per-axis arrays, shape (len(a) for a in axes); -1 outside the outer box."""
        if len(axes) != self.dim:
            raise ValueError("grid dimension mismatch")
        flat, inside = np.zeros((), dtype=np.int64), np.ones((), dtype=bool)
        for idx in map(self.axis_index, axes):
            flat = np.add.outer(self.zeros.size * flat, idx)
            inside = np.logical_and.outer(inside, idx >= 0)
        return np.where(inside, flat, -1)


_cache = {}


def build_level(j, cfg):
    """Construct (and memoize) the level-j tile set."""
    key = (j, cfg)
    if key not in _cache:
        _cache[key] = TileSet(j, cfg)
    return _cache[key]


def cubature(ts, f_vals, g_vals):
    """sum_zeta tau_zeta f(zeta) g(zeta) over the nodes of a level.

    Exact for f in V_k, g in V_l with k + l <= 4 N_j - 1 (classical weights).
    """
    f_vals, g_vals = np.asarray(f_vals).ravel(), np.asarray(g_vals).ravel()
    if f_vals.size != ts.count or g_vals.size != ts.count:
        raise ValueError("sample count does not match node count")
    return np.sum(ts.weight_array() * f_vals * g_vals)


def tile_geometry_constants(ts):
    """Minimal box constants of the level: central c0 and global (c1, c2).

    c0: smallest c with R contained in Q(x_R, c 2^{-j}) for central tiles
    (|x_R| <= (1+4 delta_star) 2^{j+1});
    c1: largest c with Q(x_R, c 2^{-j}) contained in R, all tiles;
    c2: smallest c with R contained in Q(x_R, c 2^{-j/3}), excluding the
    outermost tile per axis (its 2^{-j/6} outer padding grows like 2^{j/6}
    on the 2^{-j/3} scale by construction);
    c2_all: same including the padded boundary tiles.
    """
    ds = ts.cfg.delta_star
    j = ts.level
    z, e = ts.zeros, ts.edges
    half_out = np.maximum(e[1:] - z, z - e[:-1])   # outer half width per 1d tile
    half_in = np.minimum(e[1:] - z, z - e[:-1])
    central = np.abs(z) <= (1.0 + 4.0 * ds) * 2.0 ** (j + 1)
    c0 = float(np.max(half_out[central]) * 2.0 ** j)
    c1 = float(np.min(half_in) * 2.0 ** j)
    c2_all = float(np.max(half_out) * 2.0 ** (j / 3.0))
    c2 = float(np.max(half_out[1:-1]) * 2.0 ** (j / 3.0)) if z.size > 2 else c2_all
    return c0, c1, c2, c2_all
