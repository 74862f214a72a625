"""Measurement harness for the decay and boundedness estimates.

Every check reduces a claimed inequality LHS <= C * RHS to the measured
constant sup(LHS/RHS) over a scan, then asks whether that constant is
finite and stable under refinement (doubling the grid, or extending the
level range).  Stability below 10 percent relative change is the working
definition of "uniform constant"; no unknown analytic constant is asserted.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Constants, GridFunction, axis_tables, christoffel, e_function,
                   hermite_functions, kernel_expansion, lifted_gauss_hermite, multi_indices,
                   projector_kernel_sequence, random_spectral, tensor_points)
from .frames import CoefficientSequence, needlet, synthesize
from .lp import apply_lp, lp_delta, support_set, hoppe_check
from .norms import QuadratureBox, SpaceParams, maximal, seq_tl_norm, space_norm
from .symbols import (apply_pseudomultiplier, linearize_nonlinearity, nonlinearity_power,
                      reproject)
from .tiles import NODES_MAX, build_level, cubature, tile_geometry_constants

# envelope constants (vartheta, epsilon) of the kernel, tile and T_sigma scans
_CONSTANTS = Constants()


@dataclass
class EstimateReport:
    estimate_id: str
    constant: float
    scan: dict = field(default_factory=dict)
    per_level: dict = field(default_factory=dict)
    passed: bool | None = None      # None: passed when the constant is finite
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed is None:
            self.passed = math.isfinite(self.constant)

    def to_json_dict(self):
        return {
            "estimate": self.estimate_id,
            "constant": _plain(self.constant),
            "passed": bool(self.passed),
            "scan": _plain(self.scan),
            "per_level": _plain(self.per_level),
            "details": _plain(self.details),
        }


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.ndarray)):
        return _plain(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)     # "inf", "-inf" or "nan": JSON has no such number
    return obj


def refinement_stable(base, refined):
    """Relative change of the measured constant under refinement."""
    if base == 0.0 and refined == 0.0:
        return True, 0.0
    denom = max(abs(base), abs(refined), 1e-300)
    change = abs(refined - base) / denom
    return change < 0.10, change


def eval_axes(half_width, points, dim):
    """dim equispaced axes on [-half_width, half_width]; ValueError, before
    anything is allocated, past tiles.NODES_MAX grid points."""
    if points ** dim > NODES_MAX:
        raise ValueError(f"a {points}^{dim} evaluation grid exceeds {NODES_MAX} points")
    return [np.linspace(-half_width, half_width, points)] * dim


def level_tiles(cfg, levels, count, rng):
    """(j, tiles sampled from level j) for each j in levels: the one scan that
    samples tiles, lazy so that draws between levels keep their rng order."""
    for j in levels:
        yield j, sample_tiles(build_level(j, cfg), count, rng)


def frame_elements(sys, tiles):
    """(tile, phi_R) for each tile whose needlet phi_R, built once, does not vanish
    (every 1-D level-0 one does); lazy, so a caller that stops early builds no more."""
    for tile in tiles:
        phi_R = needlet(sys, tile)
        if phi_R.array.any():
            yield tile, phi_R


def sup_per_level(levels, values):
    """{j: sup of the values at level j} over (j, value) pairs, each sup
    folded from 0.0 in the order the pairs come."""
    per = dict.fromkeys(levels, 0.0)
    for j, v in values:
        per[j] = max(per[j], v)
    return per


# ---------------------------------------------------------------------------
# molecules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MoleculeParams:
    M: int = 1
    theta: float = 0.5
    N: int = 2
    delta: float = 0.5
    mu: float = 3.0

    def __post_init__(self):
        if self.M == -1:
            if self.theta != 1.0:
                raise ValueError("M = -1 requires theta = 1")
        elif self.M < -1 or not (0.0 < self.theta < 1.0):
            raise ValueError("need M >= 0 with theta in (0,1), or (M,theta) = (-1,1)")
        if self.N < 0 or not (0.0 <= self.delta <= 1.0) or self.mu < 1.0:
            raise ValueError("need N >= 0, delta in [0,1], mu >= 1")


class Molecule:
    """A candidate molecule: a finite Hermite expansion tied to a tile."""

    def __init__(self, f, level, center, measure):
        self.f = f
        self.level = int(level)
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.measure = float(measure)
        self._deriv_cache = {}

    @property
    def dim(self):
        return self.f.dim

    def eval(self, pts):
        return np.real(self.f.eval_points(pts))

    def derivative(self, gamma):
        gamma = tuple(int(g) for g in gamma)
        if gamma not in self._deriv_cache:
            self._deriv_cache[gamma] = self.f.derivative_multi(gamma)
        return self._deriv_cache[gamma]

    def deriv_eval(self, gamma, pts):
        return np.real(self.derivative(gamma).eval_points(pts))

    def moment(self, gamma):
        """integral of (y - x_R)^gamma m(y) dy, exact Gauss-Hermite."""
        return self.f.moment(self.center, gamma)


def needlet_molecule(sys, tile):
    return Molecule(needlet(sys, tile), tile.level, tile.node, tile.measure)


def spectral_bump_molecule(weight_fn, level, center, cfg):
    """Molecule from a radial spectral profile: coefficients
    weight_fn(lambda_{|xi|} / 4^level) h_xi(center), truncated when the
    profile falls below 1e-14 of its peak (degrees k <= 200).

    With weight_fn(u) = u^{M+1} e^{-u} the spectrum vanishes to order M+1
    at 0, giving the full moment cancellation of an order-M molecule;
    weight_fn(u) = e^{-u} has no cancellation and is the negative control.
    """
    n = cfg.dim
    center = np.atleast_1d(np.asarray(center, dtype=float))
    lam = 2.0 * np.arange(201) + n
    w = np.array([weight_fn(l / 4.0 ** level) for l in lam])
    peak = np.max(np.abs(w))
    keep = np.abs(w) > 1e-14 * peak
    k_max = int(np.max(np.nonzero(keep))) if keep.any() else 0
    ts = build_level(level, cfg)
    tile = ts.locate(center)
    measure = tile.measure if tile is not None else 2.0 ** (-level * n)
    return Molecule(kernel_expansion(w[:k_max + 1], center), level, center, measure)


def check_molecule(mol, params, grid_axes, rng=None):
    """Clause-by-clause constants of the molecule definition.

    (i)  size:   |d^gamma m| against |R|^{-1/2} 2^{j|gamma|}
                 (1+2^j|x-x_R|)^{-mu} (1+|x|/2^j)^{-(N+delta)};
    (ii) Holder: increments of the top derivatives over 8 random
                 offsets |x-y| <= 2^{-j};
    (iii) moments of order <= M against
                 |R|^{-1/2} 2^{-j(n+|gamma|)} ((1+|x_R|)/2^j)^{M+theta-|gamma|}.
    """
    rng = rng or np.random.default_rng(0)
    j = mol.level
    n = mol.dim
    two_j = 2.0 ** j
    rinv = mol.measure ** -0.5
    pts = tensor_points(grid_axes)
    dist = np.sqrt(np.sum((pts - mol.center) ** 2, axis=1))
    absx = np.sqrt(np.sum(pts ** 2, axis=1))
    loc = (1.0 + two_j * dist) ** -params.mu
    tail = (1.0 + absx / two_j) ** -(params.N + params.delta)

    size_const = holder_const = 0.0
    per_gamma = {}
    for gamma in multi_indices(n, params.N):
        a = mol.deriv_eval(gamma, pts)
        c = float(np.max(np.abs(a) / (rinv * two_j ** sum(gamma) * loc * tail)))
        per_gamma[str(gamma)] = c
        size_const = max(size_const, c)
        if sum(gamma) < params.N:
            continue
        for _ in range(8):
            h = rng.uniform(-1.0, 1.0, size=n)
            h *= rng.uniform(0.05, 1.0) * 2.0 ** -j / max(np.linalg.norm(h), 1e-12)
            b = mol.deriv_eval(gamma, pts + h)
            rhs = rinv * two_j ** params.N * (two_j * np.linalg.norm(h)) ** params.delta * loc
            holder_const = max(holder_const, float(np.max(np.abs(a - b) / rhs)))

    moment_const, moments = 0.0, {}
    cen = 1.0 + float(np.linalg.norm(mol.center))
    for gamma in multi_indices(n, params.M):        # none when M = -1
        mval = abs(mol.moment(gamma))
        rhs = rinv * two_j ** -(n + sum(gamma)) * (cen / two_j) ** (params.M + params.theta - sum(gamma))
        moments[str(gamma)] = mval / rhs
        moment_const = max(moment_const, mval / rhs)

    constant = max(size_const, holder_const, moment_const)
    return EstimateReport(
        "molecule", constant,
        scan={"level": j, "grid": [len(a) for a in grid_axes]},
        details={"size": size_const, "size_per_gamma": per_gamma,
                 "holder": holder_const, "moment": moment_const,
                 "moment_per_gamma": moments,
                 "params": dataclasses.asdict(params)})


def sample_tiles(ts, count, rng):
    """Sample tiles of a level, biased toward the center of the node range."""
    npa = ts.nodes_per_axis
    idx = set()
    tries = 0
    while len(idx) < min(count, ts.count) and tries < 50 * count:
        tries += 1
        if rng.random() < 0.7:
            ix = tuple(int(np.clip(round(npa / 2 + rng.standard_normal() * npa / 6), 0, npa - 1))
                       for _ in range(ts.dim))
        else:
            ix = tuple(int(rng.integers(0, npa)) for _ in range(ts.dim))
        idx.add(ix)
    return [ts.tile(ix) for ix in sorted(idx)]


def verify_molecules(sys, cfg, params, levels=4, tiles_per_level=20, grid_points=801, seed=0):
    """Needlets-are-molecules scan: one constant over sampled tiles, j <= levels.

    The scan range in j is fixed; refinement stability means the measured
    sup moves by < 10% when the evaluation grid is doubled on the same
    tiles, i.e. the reported constant is a converged measurement.
    """
    half_width = 14.0
    grids = [eval_axes(half_width, p, cfg.dim) for p in (grid_points, 2 * grid_points - 1)]
    rng = np.random.default_rng(seed)
    mols = [Molecule(phi_R, j, t.node, t.measure)
            for j, tiles in level_tiles(cfg, range(levels + 1), tiles_per_level, rng)
            for t, phi_R in frame_elements(sys, tiles)]

    def scan(axes):
        return sup_per_level(range(levels + 1), (
            (mol.level, check_molecule(mol, params, axes, rng=np.random.default_rng(seed)).constant)
            for mol in mols))

    per_level, per_fine = scan(grids[0]), scan(grids[1])
    worst, worst_fine = max(per_level.values()), max(per_fine.values())
    stable, change = refinement_stable(worst, worst_fine)
    return EstimateReport("needlets-are-molecules", max(worst, worst_fine),
                          scan={"levels": levels, "tiles_per_level": tiles_per_level,
                                "grid_points": grid_points, "half_width": half_width},
                          per_level=per_fine,
                          passed=bool(math.isfinite(worst_fine) and worst_fine > 0.0
                                      and stable),
                          details={"coarse_grid_sup": worst,
                                   "grid_refinement_change": change,
                                   "per_level_coarse": per_level})


# ---------------------------------------------------------------------------
# almost orthogonality
# ---------------------------------------------------------------------------


def verify_almost_orthogonality(sys, molecules, params, j_range, eta, grid_axes):
    """Band projections of molecules against the cross-scale decay bound.

    molecules: list of Molecule at (possibly different) levels k.
    Ratio: sup_x |phi_j(sqrt L) m(x)| (1 + 2^{j^k} |x-x_R|)^eta divided by
    |R|^{-1/2} 2^{-(n+M+theta)[(k-j) v 0] - (N+delta)[(j-k) v 0]}.
    Also fits the log2 decay of the sup against (j - k) on both sides, which
    must come within 0.5 of the bound's slopes; only pairs with |j - k| <= 3
    enter.  Band projections that vanish to numerical precision are clamped
    to a floor relative to the largest sup, so exact zeros count as
    arbitrarily fast decay without breaking the fit.
    """
    pts = tensor_points(grid_axes)
    n = molecules[0].dim
    a = n + params.M + params.theta
    b = params.N + params.delta
    constant = 0.0
    rows = []            # (k, j, sup_weighted / |R|^{-1/2}, ratio)
    for mol in molecules:
        k = mol.level
        dist = np.sqrt(np.sum((pts - mol.center) ** 2, axis=1))
        rinv = mol.measure ** -0.5
        for j in j_range:
            if abs(j - k) > 3:
                continue
            if not support_set(sys, j, n):
                # empty spectral band (can happen at j = 0): nothing to measure
                continue
            vals = np.abs(np.real(apply_lp(sys, j, mol.f).eval_points(pts)))
            wsup = float(np.max(vals * (1.0 + 2.0 ** min(j, k) * dist) ** eta)) / rinv
            decay = 2.0 ** (-a * max(k - j, 0) - b * max(j - k, 0))
            ratio = wsup / decay
            rows.append((k, j, wsup, ratio))
            constant = max(constant, ratio)

    floor = 1e-15 * max((w for _, _, w, _ in rows), default=1.0)
    slopes = _ao_slopes(rows, floor)
    required = {"j>k": -b + 0.5, "k>j": -a + 0.5}
    lo_ok = slopes["j_above_k"] is None or slopes["j_above_k"] <= required["j>k"]
    hi_ok = slopes["k_above_j"] is None or slopes["k_above_j"] <= required["k>j"]
    details = {"eta": eta, "rows": rows, "slopes": slopes, "floor": floor,
               "slope_pass": {"j>k": lo_ok, "k>j": hi_ok, "required": required}}
    return EstimateReport("almost-orthogonality", constant, per_level={},
                          scan={"j_range": list(j_range), "max_offset": 3},
                          details=details, passed=lo_ok and hi_ok and math.isfinite(constant))


def _ao_slopes(rows, floor):
    """Least-squares log2 slopes of the weighted sup vs |j-k| on each side."""
    out = {"j_above_k": None, "k_above_j": None}
    for key, sign in (("j_above_k", 1), ("k_above_j", -1)):
        xs, ys = [], []
        for k, j, wsup, _ in rows:
            d = (j - k) * sign
            if d >= 0:
                xs.append(d)
                ys.append(math.log2(max(wsup, floor)))
        if len(xs) >= 4 and len(set(xs)) >= 2:
            A = np.stack([np.asarray(xs, dtype=float), np.ones(len(xs))], axis=1)
            sol, *_ = np.linalg.lstsq(A, np.asarray(ys), rcond=None)
            out[key] = float(sol[0])
    return out


def verify_ao(sys, cfg, k_levels=(1, 2, 3, 4), tiles_per_level=3, grid_points=801, seed=0):
    """Almost-orthogonality scan over a sampled needlet family, with
    MoleculeParams(1, 0.5, 2, 0.5, n + 2) and eta = n + 1.

    The uniform constant is checked for stability by dropping the finest
    frame level and comparing the two sups.
    """
    n = cfg.dim
    half_width = 14.0
    axes = eval_axes(half_width, grid_points, n)
    rng = np.random.default_rng(seed)
    mols = []
    for _, tiles in level_tiles(cfg, k_levels, 8 * tiles_per_level, rng):
        # keep tiles whose node lies well inside the measurement window
        inside = (t for t in tiles if np.max(np.abs(t.node)) <= 0.5 * half_width)
        mols += (Molecule(phi_R, t.level, t.node, t.measure)
                 for t, phi_R in itertools.islice(frame_elements(sys, inside), tiles_per_level))
    j_range = range(max(0, min(k_levels) - 3), max(k_levels) + 4)
    rep = verify_almost_orthogonality(sys, mols, MoleculeParams(1, 0.5, 2, 0.5, n + 2), j_range,
                                      n + 1, axes)
    kmax = max(k_levels)
    shorter = max((r for k, _, _, r in rep.details["rows"] if k < kmax), default=0.0)
    stable, change = refinement_stable(shorter, rep.constant)
    rep.details["sup_without_last_level"] = shorter
    rep.details["level_extension_change"] = change
    rep.details["level_extension_stable"] = stable
    return rep


# ---------------------------------------------------------------------------
# pseudo-multiplier estimates
# ---------------------------------------------------------------------------


def tsigma_derivative_on_points(sigma, parts, gamma, pts, n):
    """d^gamma_x T_sigma phi_R at the points, via Leibniz.

    T_sigma phi_R(x) = sum_k sigma(x, lambda_k) q_k(x) with the degree parts
    q_k = P_k phi_R, whose derivatives are exact ladder derivatives; parts
    is the list of (k, q_k) pairs, phi_R.degree_slices().items(), of a nonzero phi_R.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    acc = np.zeros(pts.shape[0], dtype=complex)
    tables = axis_tables(parts[0][1].max_degree + sum(gamma), pts)
    lams = np.array([2.0 * k + n for k, _ in parts])
    for beta in itertools.product(*(range(g + 1) for g in gamma)):
        rest = tuple(g - bq for g, bq in zip(gamma, beta))
        coef = math.prod(math.comb(g, b) for g, b in zip(gamma, beta))
        ds = sigma.x_derivative(pts, lams, beta)
        for i, (k, qk) in enumerate(parts):
            dq = np.real(qk.derivative_multi(rest).eval_points(pts, tables))
            if np.any(dq):
                acc += coef * ds[:, i] * dq
    return acc


def verify_tsmooth(sigma, sys, cfg, m, levels=3, tiles_per_level=6, grid_points=401, seed=0):
    """Smoothness of T_sigma on needlets: decay in x and growth 2^{j(m+|gamma|)},
    for |gamma| <= 2 and decay orders N <= 3 on [-12, 12]^n.

    The (kappa, eps) pair is an existential output, and the least sup over
    the scanned pairs kappa <= 1/2, eps <= 16.5 is at the largest of each:
    the envelope E(eps 4^j)^{1-kappa} grows with eps, and with kappa since
    E <= 1.  The factor (1 + 2^j |x - x_R|)^{-N} is smallest at N = 3, so
    that order gives the sup over N <= 3.  The scan therefore measures that
    one pair at N = 3, on tiles sampled once per level.
    """
    gamma_max, N_max, kappa, eps = 2, 3, 0.5, 16.5
    n = cfg.dim
    pts = tensor_points(eval_axes(12.0, grid_points, n))
    rng = np.random.default_rng(seed)

    def ratios():
        for j, tiles in level_tiles(cfg, range(levels + 1), tiles_per_level, rng):
            env = np.maximum(e_function(eps * 4.0 ** j, pts, _CONSTANTS) ** (1.0 - kappa), 1e-300)
            for tile, phi_R in frame_elements(sys, tiles):
                parts = list(phi_R.degree_slices().items())
                dist = np.sqrt(np.sum((pts - tile.node) ** 2, axis=1))
                for gamma in multi_indices(n, gamma_max):
                    vals = np.abs(tsigma_derivative_on_points(sigma, parts, gamma, pts, n))
                    rhs = tile.measure ** -0.5 * 2.0 ** (j * (m + sum(gamma))) \
                        * (1.0 + 2.0 ** j * dist) ** -N_max * env
                    yield j, float(np.max(vals / rhs))

    per_level = sup_per_level(range(levels + 1), ratios())
    return EstimateReport("tsigma-smoothness", max(per_level.values()),
                          scan={"levels": levels, "gamma_max": gamma_max, "N_max": N_max,
                                "grid_points": grid_points},
                          per_level=per_level,
                          details={"kappa": kappa, "epsilon": eps, "m": m})


def tsigma_moment(sigma, phi_R, node, gamma, extra=8):
    """integral of (x - node)^gamma T_sigma phi_R dx, phi_R nonzero, by lifted Gauss-Hermite.

    Not exact (sigma need not be polynomial in x); the quadrature degree is
    oversampled and the caller can compare two degrees for a residual flag.
    """
    n = phi_R.dim
    q = (int(np.max(phi_R.degrees[phi_R.array != 0])) + sum(gamma)) // 2 + 1 + extra

    def sample(y):
        pts = tensor_points([y] * n)
        return apply_pseudomultiplier(sigma, phi_R, pts=pts).reshape([q] * n)

    return complex(lifted_gauss_hermite(sample, q, n, s=2.0,
                                        axis_factor=lambda d, y: (y - node[d]) ** gamma[d]))


def verify_tcanc(sigma, sys, cfg, m, levels=3, tiles_per_level=6, seed=0):
    """Moment cancellation of T_sigma phi_R up to order M = 1, with theta = 1/2."""
    M, theta = 1, 0.5
    rng = np.random.default_rng(seed)
    n = cfg.dim
    resid_flag = 0.0

    def ratios():
        nonlocal resid_flag
        for j, tiles in level_tiles(cfg, range(levels + 1), tiles_per_level, rng):
            for tile, phi_R in frame_elements(sys, tiles):
                rinv = tile.measure ** -0.5
                cen = 1.0 + float(np.linalg.norm(tile.node))
                for gamma in multi_indices(n, M):
                    mom = tsigma_moment(sigma, phi_R, tile.node, gamma)
                    mom2 = tsigma_moment(sigma, phi_R, tile.node, gamma, extra=16)
                    resid_flag = max(resid_flag, abs(mom - mom2) / max(abs(mom2), 1e-30))
                    rhs = rinv * 2.0 ** (j * (m - n - sum(gamma))) \
                        * (cen / 2.0 ** j) ** (M + theta - sum(gamma))
                    yield j, abs(mom2) / rhs

    per_level = sup_per_level(range(levels + 1), ratios())
    return EstimateReport("tsigma-cancellation", max(per_level.values()),
                          scan={"levels": levels, "M": M, "theta": theta},
                          per_level=per_level,
                          details={"quadrature_residual": resid_flag, "m": m})


# ---------------------------------------------------------------------------
# synthesis and boundedness
# ---------------------------------------------------------------------------


def random_sparse_sequence(cfg, J, rng, per_level=8):
    s = CoefficientSequence(cfg)
    for j, tiles in level_tiles(cfg, range(J + 1), per_level, rng):
        arr = np.zeros(build_level(j, cfg).shape, dtype=complex)
        for tile in tiles:
            arr[tile.index] = complex(rng.standard_normal(), rng.standard_normal())
        s.levels[j] = arr
    return s


def verify_synthesis(sys, cfg, J=3, n_sequences=100, per_level=8, seed=0, box=None):
    """Ratio of the F^0_{2,2} norm of the synthesized function to the f^0_{2,2}
    sequence norm, random sparse input."""
    params = SpaceParams("F", 0.0, 2.0, 2.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    ratios = []
    for _ in range(n_sequences):
        s = random_sparse_sequence(cfg, J, rng, per_level)
        g = synthesize(sys, s)
        snorm = seq_tl_norm(s, params, box)
        if snorm == 0.0:
            continue
        gn = space_norm(sys, g, params)
        ratios.append(gn / snorm)
        worst = max(worst, gn / snorm)
    return EstimateReport("synthesis", worst,
                          scan={"J": J, "sequences": n_sequences},
                          details={"mean_ratio": float(np.mean(ratios)) if ratios else 0.0})


def verify_boundedness(sigma, m, space_list, sys, cfg, K=12, n_funcs=20, seed=0):
    """Operator-norm surrogate: sup over a random family of
    ||T_sigma f||_{A_alpha} / ||f||_{A_{alpha+m}} (output reprojected)."""
    rng = np.random.default_rng(seed)
    n = cfg.dim
    family = [random_spectral(n, K, rng, real=True) for _ in range(n_funcs)]
    out = {}
    resid_max = 0.0
    for params in space_list:
        worst = 0.0
        for f in family:
            g, resid = reproject(lambda pts: apply_pseudomultiplier(sigma, f, pts=pts),
                                 n, f.max_degree + 8)
            resid_max = max(resid_max, resid)
            src = SpaceParams(params.family, params.alpha + m, params.p, params.q)
            denom = space_norm(sys, f, src)
            num = space_norm(sys, g, params)
            if denom > 0:
                worst = max(worst, num / denom)
        out[(params.family, params.alpha, params.p, params.q)] = worst
    constant = max(out.values()) if out else 0.0
    return EstimateReport("boundedness", constant,
                          scan={"family_size": len(family), "K": K},
                          details={"per_space": {str(k): v for k, v in out.items()},
                                   "reprojection_residual": resid_max, "m": m})


# ---------------------------------------------------------------------------
# auxiliary suites: kernel, hoppe, qq, tiles, maximal, embeddings
# ---------------------------------------------------------------------------


def verify_kernel(sys, cfg, levels=4):
    """Kernel size/decay (eta = 2, 4) and moment (|gamma| <= K = 2) bounds of
    the band projections."""
    n = cfg.dim
    eps = _CONSTANTS.epsilon
    xs = np.linspace(-10.0, 10.0, 201)
    x0 = np.zeros(n)
    pts = np.stack([xs] + [np.zeros_like(xs)] * (n - 1), axis=-1)
    c_eta = {2: 0.0, 4: 0.0}
    for j in range(levels + 1):
        vals = np.abs(np.real(lp_delta(sys, j, x0, n).eval_points(pts)))
        e_x0 = float(e_function(eps * 4.0 ** j, x0[None, :])[0])
        e_y = np.asarray(e_function(eps * 4.0 ** j, pts))
        for eta in c_eta:
            rhs = 2.0 ** (j * n) * (1.0 + 2.0 ** j * np.abs(xs)) ** -eta \
                * e_x0 * np.maximum(e_y, 1e-300)
            c_eta[eta] = max(c_eta[eta], float(np.max(vals / rhs)))
    details = {f"phiest_A_eta{eta}": c for eta, c in c_eta.items()}

    c_mom = 0.0
    for j in range(1, levels + 1):
        for x0 in (0.0, 1.0, 2.0 ** j * 0.7):
            x = np.full(n, x0 / math.sqrt(n))
            e_x = float(e_function(eps * 4.0 ** j, x[None, :])[0])
            column = lp_delta(sys, j, x, n)
            for gamma in multi_indices(n, 2):
                rhs = 2.0 ** (-j * sum(gamma)) \
                    * ((1.0 + np.linalg.norm(x)) / 2.0 ** j) ** (2 - sum(gamma)) \
                    * max(e_x, 1e-300)
                c_mom = max(c_mom, abs(column.moment(x, gamma)) / rhs)
    details["phiest_B"] = c_mom
    return EstimateReport("kernel-estimates", max(details.values()), scan={"levels": levels},
                          details=details)


def verify_hoppe(sys, n=1):
    """Hoppe-type difference bounds of the windows, levels 1..5 and orders 1..3."""
    levels = 5
    worst = 0.0
    rows = {}
    for j in range(1, levels + 1):
        for ell in (1, 2, 3):
            for k in support_set(sys, j, n):
                r = hoppe_check(sys, ell, ell + 1, j, k, n)
                rows[f"j{j}_ell{ell}_k{k}"] = r
                worst = max(worst, r)
    return EstimateReport("hoppe", worst, scan={"levels": levels},
                          details={"max_entries": dict(sorted(rows.items(),
                                                              key=lambda kv: -kv[1])[:10])})


def verify_qq(n=1):
    """Diagonal growth Q_N(x,x) <= C N^{n/2} and Gaussian tail decay, N = 64,
    on the points x = (t, 0, ..., 0) of R^n.

    Also fits the tail exponent vartheta from the decay beyond sqrt(4N+2).
    """
    N = 64
    xs = np.linspace(-1.5, 1.5, 801) * math.sqrt(4.0 * N + 2.0)
    if n == 1:
        diag = 1.0 / christoffel(N, xs)
    else:   # Q_N(x, x) = sum_k h_k(t)^2 Q'_{N-k}(0, 0), Q' the kernel of R^{n-1}
        tails = np.cumsum(projector_kernel_sequence(N, np.zeros(n - 1), np.zeros(n - 1)))
        diag = tails[::-1] @ hermite_functions(N, xs) ** 2
    c_growth = float(np.max(diag)) / N ** (n / 2.0)
    tail = np.abs(xs) >= math.sqrt(4.0 * N + 2.0) * 1.02
    fitted = None
    if tail.any():
        y = np.log(np.maximum(diag[tail], 1e-290))
        x2 = xs[tail] ** 2
        A = np.stack([x2, np.ones_like(x2)], axis=1)
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        fitted = float(-sol[0] / 2.0)   # diag ~ e^{-2 vartheta x^2}
    c_eb = 0.0
    for j in range(0, 5):
        ev = np.asarray(e_function(_CONSTANTS.epsilon * 4.0 ** j, xs))
        for beta in (1.0, 3.0):
            rhs = (1.0 + np.abs(xs) / 2.0 ** j) ** -beta
            c_eb = max(c_eb, float(np.max(ev / rhs)))
    return EstimateReport("qq-growth", c_growth, scan={"N": N},
                          details={"fitted_vartheta": fitted,
                                   "default_vartheta": _CONSTANTS.vartheta,
                                   "ebound_constant": c_eb})


def verify_tiles(cfg, levels=4, cubature_pairs=20, seed=0):
    """Tile geometry constants, tile control, tau ~ |R|, cubature exactness."""
    rng = np.random.default_rng(seed)
    per_level = {}
    ctrl = cub_err = 0.0
    ratio_lo, ratio_hi = math.inf, 0.0
    for j in range(levels + 1):
        ts = build_level(j, cfg)
        c0, c1, c2, c2_all = tile_geometry_constants(ts)
        per_level[j] = {"c0": c0, "c1": c1, "c2": c2, "c2_all": c2_all}
        meas = ts.measure_array()
        tau = ts.weight_array()
        env = np.asarray(e_function(_CONSTANTS.epsilon * 4.0 ** j, ts.node_array()))
        ctrl = max(ctrl, float(np.max(meas * 2.0 ** (j * ts.dim) * env)))
        ratio_lo = min(ratio_lo, float(np.min(tau / meas)))
        ratio_hi = max(ratio_hi, float(np.max(tau / meas)))
        if j > 3:
            continue
        # cubature exactness on random band-limited pairs
        dmax = 4 * ts.degree - 1
        axes = [ts.zeros] * cfg.dim
        for _ in range(cubature_pairs):
            kf = int(rng.integers(0, dmax // 2 + 1))
            kg = int(rng.integers(0, dmax - kf + 1))
            f = random_spectral(cfg.dim, kf, rng, real=True)
            g = random_spectral(cfg.dim, kg, rng, real=True)
            val = cubature(ts, np.real(f.eval_grid(axes)), np.real(g.eval_grid(axes)))
            exact = np.real(f.inner(g))
            scale = max(f.norm2() * g.norm2(), 1e-30)
            cub_err = max(cub_err, abs(val - exact) / scale)
    # covering check at the finest level, the last one built
    cover_err = abs(float(np.sum(ts.widths)) - 2.0 * ts.outer_halfwidth)
    return EstimateReport("tiles", ctrl, per_level=per_level,
                          scan={"levels": levels},
                          details={"tile_control": ctrl,
                                   "tau_over_measure": [ratio_lo, ratio_hi],
                                   "covering_error": cover_err,
                                   "cubature_relative_error": cub_err},
                          passed=bool(math.isfinite(ctrl) and cub_err < 1e-9))


def verify_maximal(cfg, j_max=3, seed=0):
    """Discrete counterpart of the cross-scale sum vs maximal function bound,
    for r = 0.7, 1, 2."""
    rs = (0.7, 1.0, 2.0)
    rng = np.random.default_rng(seed)
    n = cfg.dim
    details = {}
    for r in rs:
        eta = math.ceil(n / min(1.0, r)) + 1
        c_r = 0.0
        for k in range(j_max + 1):
            ts = build_level(k, cfg)
            axes = eval_axes(ts.outer_halfwidth + 0.5, 801, n)
            pts = tensor_points(axes)
            a = rng.random(ts.count)
            nodes = ts.node_array()
            lin = ts.locate_many(pts)
            ind = np.where(lin >= 0, a[lin], 0.0)
            gf = GridFunction(axes, ind.reshape([len(ax) for ax in axes]))
            for j in range(j_max + 1):
                star = np.zeros(pts.shape[0])
                scale = 2.0 ** min(j, k)
                for t in range(ts.count):
                    d = np.sqrt(np.sum((pts - nodes[t]) ** 2, axis=1))
                    star += a[t] / (1.0 + scale * d) ** eta
                mg = maximal(gf, r).samples.ravel()
                rhs = 2.0 ** ((n / min(1.0, r)) * max(k - j, 0)) * np.maximum(mg, 1e-300)
                c_r = max(c_r, float(np.max(star / rhs)))
        details[f"r={r}"] = c_r
    return EstimateReport("maximal", max(details.values()), scan={"j_max": j_max, "rs": list(rs)},
                          details=details)


def verify_embeddings(sys, cfg, n_funcs=50, seed=0):
    """Lifting F^{1/2}_{2,2} -> F^0_{2,2} and the B-F sandwich as measured
    ratio bounds on a random family of degree 12."""
    K = 12
    rng = np.random.default_rng(seed)
    n = cfg.dim
    fam = [random_spectral(n, K, rng, real=True) for _ in range(n_funcs)]
    lift_c = 0.0
    sand_lo = 0.0
    sand_hi = 0.0
    p, q = 2.0, 1.5
    for f in fam:
        lo = space_norm(sys, f, SpaceParams("F", 0.0, 2.0, 2.0))
        hi = space_norm(sys, f, SpaceParams("F", 0.5, 2.0, 2.0))
        if hi > 0:
            lift_c = max(lift_c, lo / hi)
        bmin = space_norm(sys, f, SpaceParams("B", 0.0, p, min(p, q)))
        ff = space_norm(sys, f, SpaceParams("F", 0.0, p, q))
        bmax = space_norm(sys, f, SpaceParams("B", 0.0, p, max(p, q)))
        if bmin > 0:
            sand_lo = max(sand_lo, ff / bmin)
        if ff > 0:
            sand_hi = max(sand_hi, bmax / ff)
    worst = max(lift_c, sand_lo, sand_hi)
    return EstimateReport("embeddings", worst, scan={"family": n_funcs, "K": K},
                          details={"lifting": lift_c,
                                   "F_over_Bmin": sand_lo, "Bmax_over_F": sand_hi})


def verify_linearize(sys, cfg, K=10, n_funcs=20, seed=0, grid_points=801, powers=(2, 3)):
    """Exactness of the linearization: sup |T_{sigma_f} f - H(f)| on the grid."""
    rng = np.random.default_rng(seed)
    n = cfg.dim
    J = sys.coverage_level(2.0 * K + n)
    half_width = QuadratureBox.for_degree(K, n).half_width
    pts = tensor_points(eval_axes(half_width, grid_points, n))
    worst = {p: 0.0 for p in powers}
    halving = {}
    for i in range(n_funcs):
        f = random_spectral(n, K, rng, real=True)
        f = f.scaled(1.0 / max(f.norm2(), 1e-12))
        fv = np.real(f.eval_points(pts))
        for p in powers:
            H = nonlinearity_power(p)
            sig = linearize_nonlinearity(H, f, sys, J)
            tv = np.real(apply_pseudomultiplier(sig, f, pts=pts))
            err = float(np.max(np.abs(tv - fv ** p)))
            worst[p] = max(worst[p], err)
            if i == 0:
                sig32 = linearize_nonlinearity(H, f, sys, J, t_points=32)
                tv32 = np.real(apply_pseudomultiplier(sig32, f, pts=pts))
                halving[p] = (err, float(np.max(np.abs(tv32 - fv ** p))))
    constant = max(worst.values())
    return EstimateReport("linearize", constant,
                          scan={"K": K, "J": J, "n_funcs": n_funcs},
                          details={"sup_error_per_power": {str(k): v for k, v in worst.items()},
                                   "refinement": {str(k): v for k, v in halving.items()}},
                          passed=constant < 1e-6)
