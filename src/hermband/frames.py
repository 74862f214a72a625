"""Needlet frame: analysis and synthesis over the multiscale node sets.

The frame element attached to tile R at level j is
phi_R(x) = tau_R^{1/2} phi_j(sqrt(L))(x, x_R); its dual psi_R uses the
dual window.  Analysis evaluates the band projection at the nodes and synthesis
assembles sum s_R psi_R in coefficient space, both exactly (no quadrature) by
contraction with one table per level, frame_table: h_k tau^{1/2} at the axis nodes.

One rule keeps both contractions off subnormal arithmetic: a real or imaginary
part below 2^-511 in magnitude is set to 0 in the table, in the output of
analysis and in the input of synthesis.  Where every table entry is <= 1, this
moves an analysis coefficient by at most 2^-509 (1 + sum_xi |c_xi|), with c the
coefficients of phi_j(sqrt(L)) f (which are not flushed), and a synthesis
coefficient of the flushed s by at most 2^-511 sum_R |s_R|.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import (SpectralFunction, degree_array, hermite_functions, json_array, json_field,
                   json_float, json_int)
from .lp import apply_lp, lp_delta, support_set
from .tiles import build_level


class CoefficientSequence:
    """Per-level dense coefficient arrays over the level's node grids: float64
    for the analysis of a real f, complex otherwise (and when read from JSON)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.levels = {}

    def to_json_dict(self, tol):
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
        out = cls(cfg)
        for lev in json_array(d, "levels", "coefficient sequence"):
            j = json_int(json_field(lev, "j", "level"), "level j")
            if j in out.levels:
                raise ValueError(f"level {j} appears more than once")
            ts = build_level(j, cfg)
            arr = np.zeros(ts.shape, dtype=complex)
            seen = set()
            for e in json_array(lev, "entries", f"level {j}"):
                node = ts.node_index(json_int(i, f"level {j} node index")
                                     for i in json_array(e, "node", f"level {j} entry"))
                if node in seen:
                    raise ValueError(f"level {j}: node {list(node)} appears more than once")
                seen.add(node)
                v = complex(json_float(json_field(e, "re", f"level {j} entry"), "re"),
                            json_float(e.get("im", 0.0), "im"))
                if not cmath.isfinite(v):
                    raise ValueError(f"level {j}: non-finite coefficient at node {list(node)}")
                arr[node] = v
            out.levels[j] = arr
        return out


def needlet(sys, tile, dual=False):
    """Frame element of a tile as an exact finite Hermite expansion."""
    node = np.atleast_1d(tile.node)
    f = lp_delta(sys, tile.level, node, len(node), dual=dual)
    return f.scaled(math.sqrt(tile.weight))


TINY = 2.0 ** -511     # parts below this are set to 0 in tables and coefficients


def _flush(a):
    """Set each real and imaginary part of a below TINY in magnitude to 0, in place,
    each part on its own (a complex comparison would order by the real part alone)."""
    for part in (a.real, a.imag) if np.iscomplexobj(a) else (a,):
        part[(part > -TINY) & (part < TINY)] = 0.0
    return a


_tables = {}    # nodes per axis -> (read-only table, {k_max: live column slice})


def frame_table(ts, k_max):
    """Rows 0..k_max of h_k(x_i) tau_i^{1/2} on the level's axis nodes, and the
    slice of the columns where these rows are nonzero.

    The table depends on the axis nodes alone: it is built once per node count, at
    the highest degree asked so far, with its entries below TINY set to 0 in place,
    and is read-only; the rows returned are a view of it.  For k_max < 2N_j the rows
    are orthonormal under the cubature, so every entry is <= 1 and the flush moves
    none by more than TINY.
    """
    m = ts.nodes_per_axis
    F, lives = _tables.get(m, (None, None))
    if F is None or F.shape[0] <= k_max:
        F = hermite_functions(k_max, ts.zeros)
        F *= np.sqrt(ts.tau1d)
        for row in F:                   # row by row: no full-size mask
            _flush(row)
        F.flags.writeable = False
        F, lives = _tables[m] = F, {}
    if k_max not in lives:
        cols = np.flatnonzero(F[:k_max + 1].any(axis=0))
        lives[k_max] = slice(cols[0], cols[-1] + 1)
    return F[:k_max + 1], lives[k_max]


def _contract(T, F, axis):
    """Each axis of T in turn contracted with the given axis of F, the real and
    imaginary parts of T as real arrays; real when T's imaginary part is zero."""
    def real(P):
        for _ in range(P.ndim):
            P = np.tensordot(P, F, axes=([0], [axis]))
        return P
    re = real(T.real)
    if not np.iscomplexobj(T) or not T.imag.any():
        return re
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, real(T.imag)
    return out


def analyze(sys, f, J, cfg):
    """Coefficients s_R = tau_R^{1/2} (phi_j(sqrt(L)) f)(x_R), all levels <= J.

    The coefficients c of phi_j(sqrt(L)) f, left as they are, are contracted with
    frame_table on every axis, and each real or imaginary part of s below TINY is
    set to 0.  All nodes are contracted: the table's zero columns cost no subnormal
    arithmetic, and a contraction over the live nodes alone would need an output
    temporary.  Where every table entry is <= 1, each s_R is within
    2^-509 (1 + sum_xi |c_xi|) of the contraction with the unflushed table.
    """
    if cfg.dim != f.dim:
        raise ValueError("config dimension does not match function")
    s = CoefficientSequence(cfg)
    for j in range(J + 1):
        F, _ = frame_table(build_level(j, cfg), f.max_degree)
        s.levels[j] = _flush(_contract(apply_lp(sys, j, f).array, F, 0))
    return s


def synthesize(sys, s):
    """sum_R s_R psi_R assembled exactly in the spectral representation.

    Per level, the coefficient of h_xi is
    psi_j(sqrt(lambda_{|xi|})) * sum_zeta tau_zeta^{1/2} s_zeta h_xi(zeta),
    the level's coefficients, each real or imaginary part below TINY set to 0,
    contracted with its frame_table on every axis over the table's live nodes.
    As no table entry exceeds 1, this moves a coefficient by at most
    2^-511 sum_R |s_R| from the contraction of these s with the unflushed table.
    Coefficients of magnitude <= 1e-15 are dropped.
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
        F, live = frame_table(ts, k_max)
        T = _contract(_flush(s.levels[j][(live,) * n].copy()), F[:, live], 1)
        c = degree_array(sys.degree_windows(j, k_max, n, dual=True), n) * T
        c[np.abs(c) <= 1e-15] = 0.0
        part = SpectralFunction(n, k_max, c)
        total = part if total is None else total.add(part)
    return total if total is not None else SpectralFunction(n, 0)
