"""Pseudo-multipliers T_sigma f = sum_k sigma(x, lambda_k) P_k f and their
symbol-class diagnostics.

A Symbol evaluates sigma(x, xi) for points x and a scalar spectral argument
xi >= 0; the operator passes xi = lambda_k = 2k + n.  Class checks measure
sup |d^nu_x Delta^kappa_xi sigma| / [g(x, xi) (1 + sqrt(xi))^{m - 2 rho kappa
+ delta |nu|}]; the cancellation check averages scaled derivatives over the
critical balls B(x, rho(x)), rho(x) = 1/(1 + |x|).
"""

from __future__ import annotations

import ast
import json
import math
import operator

import numpy as np
from scipy.special import binom, roots_legendre

from .core import (GridFunction, SpectralFunction, hermite_functions, json_field, json_float,
                   json_int, lifted_gauss_hermite, multi_indices, tensor_points, tensor_product)
from .lp import apply_lp


def rho(x):
    """Critical radius 1/(1+|x|)."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(np.atleast_2d(x) ** 2, axis=-1)) if x.ndim > 1 else np.linalg.norm(np.atleast_1d(x))
    return 1.0 / (1.0 + r)


class Symbol:
    """Evaluator sigma(pts, xi) with optional analytic x-derivatives.

    pts is an (m, n) array, xi a non-negative scalar; x_derivatives maps a
    derivative multi-index to an evaluator with the same signature.
    """

    def __init__(self, evaluator, dim, x_derivatives=None, growth=None):
        self.evaluator = evaluator
        self.dim = int(dim)
        self.x_derivatives = dict(x_derivatives or {})
        self.growth = growth

    def __call__(self, pts, xi):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.evaluator(pts, xi))

    def x_derivative(self, pts, xi, nu):
        """d^nu_x sigma: analytic when supplied, otherwise Richardson
        central differences with step 1e-4*(1+|x|) per axis."""
        nu = tuple(int(v) for v in nu)
        if sum(nu) == 0:
            return self(pts, xi)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if nu in self.x_derivatives:
            return np.asarray(self.x_derivatives[nu](pts, xi))
        axis = next(i for i, v in enumerate(nu) if v > 0)
        lower = list(nu)
        lower[axis] -= 1
        h = 1e-4 * (1.0 + np.sqrt(np.sum(pts ** 2, axis=1)))

        def d(step):
            up = pts.copy()
            dn = pts.copy()
            up[:, axis] += step
            dn[:, axis] -= step
            return (self.x_derivative(up, xi, lower)
                    - self.x_derivative(dn, xi, lower)) / (2.0 * step)

        a1, a2 = d(h), d(h / 2.0)
        return (4.0 * a2 - a1) / 3.0


def apply_pseudomultiplier(sigma, f, axes=None, pts=None):
    """T_sigma f = sum_k sigma(., lambda_k) (P_k f)(.) on a grid or point set."""
    if (axes is None) == (pts is None):
        raise ValueError("supply exactly one of axes or pts")
    if axes is not None:
        pts_arr = tensor_points(axes)
    else:
        pts_arr = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts_arr.shape[0], dtype=complex)
    for k, part in f.eval_degrees(pts_arr):
        out += np.asarray(sigma(pts_arr, 2.0 * k + f.dim)) * part
    if axes is not None:
        return GridFunction(axes, out.reshape([len(a) for a in axes]))
    return out


def reproject(evalfn, dim, K_prime):
    """Project a pointwise-evaluable function with Gaussian decay onto V_{K'}.

    evalfn(pts) -> values; the function must carry the factor e^{-|y|^2/2}
    (true for anything of the form sum_k sigma(y, lambda_k) P_k f).  Returns
    (SpectralFunction, relative residual of the discarded part).
    """
    q = max(64, 2 * K_prime + 16)
    g = None

    def sample(y):
        nonlocal g
        g = np.asarray(evalfn(tensor_points([y] * dim))).reshape([q] * dim)
        return g

    # c_xi = <g, h_xi>: g and h_xi each carry a half-Gaussian
    G = lifted_gauss_hermite(sample, q, dim,
                             axis_factor=lambda d, y: hermite_functions(K_prime, y).T)
    norm_g2 = float(np.real(lifted_gauss_hermite(lambda y: np.abs(g) ** 2, q, dim)))
    fK = SpectralFunction(dim, K_prime, G).prune(1e-300)
    resid2 = max(norm_g2 - fK.norm2() ** 2, 0.0)
    residual = math.sqrt(resid2 / norm_g2) if norm_g2 > 0 else 0.0
    return fK, residual


def check_symbol_class(sigma, m, rho_par, delta, K_fd, N_der, x_grid):
    """Constants sup |d^nu_x Delta^kappa_xi sigma| / [g (1+sqrt(xi))^{m-2 rho kappa+delta|nu|}].

    Scans xi <= 64 with unit steps in the differences.  Returns
    {(|nu| pattern, kappa): constant}.  g is the symbol's growth, or 1 (the
    no-growth variant of the class) when it has none.
    """
    pts = np.atleast_2d(np.asarray(x_grid, dtype=float))
    g = sigma.growth
    xis = np.unique(np.concatenate([np.arange(0, 16), np.geomspace(16, 64, 12).astype(int)]))
    report = {}
    for nu in multi_indices(sigma.dim, N_der):
        for kappa in range(K_fd + 1):
            best = 0.0
            for xi in xis:
                xi = int(xi)
                if kappa == 0:
                    val = sigma.x_derivative(pts, xi, nu)
                else:
                    val = 0.0
                    for i in range(kappa + 1):
                        val = val + (-1.0) ** (kappa - i) * binom(kappa, i) \
                            * sigma.x_derivative(pts, xi + i, nu)
                denom = (1.0 + math.sqrt(xi)) ** (m - 2.0 * rho_par * kappa + delta * sum(nu))
                if g is not None:
                    denom = denom * np.maximum(np.asarray(g(pts, xi), dtype=float), 1e-300)
                best = max(best, float(np.max(np.abs(val) / denom)))
            report[(nu, kappa)] = best
    return report


def check_cancellation_class(sigma, m, M, sample_points, xi_samples=(0, 1, 4, 9, 25, 64)):
    """Ball-averaged derivative bounds of the cancellation class.

    For each sample x and xi, computes
    (avg over B(x, rho(x)) of |rho(y)^{|gamma|} d^gamma sigma(y, xi)|^2)^{1/2}
    divided by (1 + sqrt(xi))^m, for |gamma| <= 2 floor((n+M)/2) + 2, with
    a 12-point Gauss-Legendre rule per axis over the ball's bounding box.
    """
    n = sigma.dim
    order = 2 * ((n + M) // 2) + 2
    nodes, weights = roots_legendre(12)
    report = {}
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    for gamma in multi_indices(n, order):
        best = 0.0
        for x in pts:
            r = float(rho(x))
            axes = [x[d] + r * nodes for d in range(n)]
            ball = tensor_points(axes)
            wgt = tensor_product([weights] * n)
            inside = np.sum((ball - x) ** 2, axis=1) <= r * r
            if not inside.any():
                continue
            win = wgt * inside
            vol = float(np.sum(win))
            rr = rho(ball)
            for xi in xi_samples:
                d = sigma.x_derivative(ball, int(xi), gamma)
                avg = float(np.sum(win * np.abs(rr ** sum(gamma) * d) ** 2) / vol)
                val = math.sqrt(avg) / (1.0 + math.sqrt(xi)) ** m
                best = max(best, val)
        report[gamma] = best
    return report


def hermite_multiplier(seq, dim=1):
    """x-independent symbol from a spectral sequence xi -> complex."""

    def ev(pts, xi):
        return np.full(np.atleast_2d(pts).shape[0], complex(seq(xi)))

    def zero(pts, xi):
        return np.zeros(np.atleast_2d(pts).shape[0], dtype=complex)

    return Symbol(ev, dim, {nu: zero for nu in multi_indices(dim, 4) if sum(nu) > 0})


def identity_symbol(dim=1):
    return hermite_multiplier(lambda xi: 1.0, dim)


# ---------------------------------------------------------------------------
# example symbols
# ---------------------------------------------------------------------------


def _radial_bump(r):
    """Smooth bump of |x|: 1 at 0, support in r < 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def separable_symbol(dim=1, x_scale=2.0, xi_scale=8.0):
    """Compactly supported spatial bump times a Schwartz spectral factor."""

    def ev(pts, xi):
        pts = np.atleast_2d(pts)
        r = np.sqrt(np.sum(pts ** 2, axis=1)) / x_scale
        return _radial_bump(r) * math.exp(-xi / xi_scale)

    return Symbol(ev, dim)


def band_sum_symbol(sys, dim=1, beta=-1.0):
    """sigma(x, xi) = sum_{j <= 8} sigma_j(x) phi_j(sqrt(xi)) with
    sigma_j(x) = (1 + |x|^2/4^j)^{beta/2} (smooth, dyadically scaled)."""

    def ev(pts, xi):
        pts = np.atleast_2d(pts)
        r2 = np.sum(pts ** 2, axis=1)
        u = math.sqrt(max(xi, 0.0))
        acc = np.zeros(pts.shape[0])
        for j in range(9):
            w = float(sys.window(j, u))
            if w != 0.0:
                acc += w * (1.0 + r2 / 4.0 ** j) ** (beta / 2.0)
        return acc

    def growth(pts, xi):
        pts = np.atleast_2d(pts)
        r = np.sqrt(np.sum(pts ** 2, axis=1))
        return (1.0 + r / (1.0 + math.sqrt(max(xi, 0.0)))) ** beta

    return Symbol(ev, dim, growth=growth)


def annulus_symbol(dim=1, j_max=6):
    """sigma_j supported in the dyadic annulus 2^j <= |x| < 2^{j+1}, summed."""

    def ev(pts, xi):
        pts = np.atleast_2d(pts)
        r = np.sqrt(np.sum(pts ** 2, axis=1))
        acc = _radial_bump(r)          # central piece
        for j in range(j_max + 1):
            c = 1.5 * 2.0 ** j
            acc = acc + _radial_bump(np.abs(r - c) / (0.5 * 2.0 ** j))
        return acc

    return Symbol(ev, dim)


def oscillating_symbol(v):
    """e^{i x . v} on R^len(v): rapid oscillation, negative control for cancellation."""
    v = np.atleast_1d(np.asarray(v, dtype=float))

    def ev(pts, xi):
        pts = np.atleast_2d(pts)
        return np.exp(1j * pts @ v)

    return Symbol(ev, v.size)


# ---------------------------------------------------------------------------
# linearization of a nonlinearity
# ---------------------------------------------------------------------------


class Nonlinearity:
    """Smooth scalar function with derivatives, vanishing at 0."""

    def __init__(self, h, dh, d2h=None):
        self.h = h
        self.dh = dh
        self.d2h = d2h

    def __call__(self, u):
        return self.h(u)


def nonlinearity_power(p):
    """H(u) = u^p."""
    return Nonlinearity(lambda u: u ** p,
                        lambda u: p * u ** (p - 1),
                        (lambda u: p * (p - 1) * u ** (p - 2)) if p >= 2 else (lambda u: 0.0 * u))


class LinearizedSymbol(Symbol):
    """sigma_f(x, xi) = sum_j m_j(x) phi_j(sqrt(xi)) with
    m_j(x) = int_0^1 H'(f_{j-1}(x) + t (phi_j(sqrt L) f)(x)) dt.

    f_j is the partial sum of the band projections of f; by telescoping,
    T_{sigma_f} f = H(f) up to the t-quadrature error alone.
    """

    def __init__(self, H, f, sys, J, t_points=16):
        if abs(H(0.0)) > 1e-14:
            raise ValueError("nonlinearity must vanish at 0")
        self.H = H
        self.f = f
        self.sys = sys
        self.J = int(J)
        # Gauss-Legendre nodes and weights on [0, 1] for the t integral
        t, wt = roots_legendre(int(t_points))
        self.t, self.wt = 0.5 * (t + 1.0), 0.5 * wt
        self.bands = [apply_lp(sys, j, f) for j in range(J + 1)]
        self._cache = {}
        super().__init__(self._evaluate, f.dim)

    def _band_values(self, pts):
        key = (pts.shape, pts.tobytes())
        if key not in self._cache:
            self._cache[key] = [np.real(b.eval_points(pts)) for b in self.bands]
        return self._cache[key]

    def m_values(self, pts):
        """m_j on the points, all j <= J, via Gauss-Legendre in t."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        bands = self._band_values(pts)
        out = []
        prev = np.zeros(pts.shape[0])
        for j in range(self.J + 1):
            bj = bands[j]
            mj = np.zeros(pts.shape[0])
            for ti, wi in zip(self.t, self.wt):
                mj += wi * np.asarray(self.H.dh(prev + ti * bj), dtype=float)
            out.append(mj)
            prev = prev + bj
        return out

    def _evaluate(self, pts, xi):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        u = math.sqrt(max(float(xi), 0.0))
        ms = self.m_values(pts)
        acc = np.zeros(pts.shape[0])
        for j in range(self.J + 1):
            w = float(self.sys.window(j, u))
            if w != 0.0:
                acc += w * ms[j]
        return acc

    def x_derivative(self, pts, xi, nu):
        nu = tuple(int(v) for v in nu)
        if sum(nu) != 1 or self.H.d2h is None:
            return super().x_derivative(pts, xi, nu)
        axis = nu.index(1)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        bands = self._band_values(pts)
        dbands = [np.real(b.derivative(axis).eval_points(pts)) for b in self.bands]
        u = math.sqrt(max(float(xi), 0.0))
        acc = np.zeros(pts.shape[0])
        prev = np.zeros(pts.shape[0])
        dprev = np.zeros(pts.shape[0])
        for j in range(self.J + 1):
            w = float(self.sys.window(j, u))
            if w != 0.0:
                mj = np.zeros(pts.shape[0])
                for ti, wi in zip(self.t, self.wt):
                    mj += wi * np.asarray(self.H.d2h(prev + ti * bands[j]), dtype=float) \
                        * (dprev + ti * dbands[j])
                acc += w * mj
            prev = prev + bands[j]
            dprev = dprev + dbands[j]
        return acc


def linearize_nonlinearity(H, f, sys, J, t_points=16):
    if not f.is_real(1e-10):
        raise ValueError("linearization requires a real function")
    return LinearizedSymbol(H, f, sys, J, t_points)


# ---------------------------------------------------------------------------
# symbol descriptors (JSON + expression grammar)
# ---------------------------------------------------------------------------

_ALLOWED_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos,
                  "sqrt": np.sqrt, "log": np.log, "abs": np.abs}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def _eval_node(node, env):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env)
    if isinstance(node, ast.Constant):
        # floats, so a power such as 10**10**7 overflows at once instead of
        # running integer arithmetic on a bignum
        if isinstance(node.value, (int, float)):
            return float(node.value)
        raise ValueError("only numeric constants allowed")
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise ValueError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval_node(node.left, env), _eval_node(node.right, env))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(node.operand, env)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _ALLOWED_FUNCS and not node.keywords:
        return _ALLOWED_FUNCS[node.func.id](*[_eval_node(a, env) for a in node.args])
    raise ValueError(f"disallowed expression element {ast.dump(node)}")


def compile_expression(expr, dim):
    """Compile an arithmetic expression over x1..xn, absx, xi to an evaluator.

    Grammar (EBNF):
      expr    = term { ("+" | "-") term } ;
      term    = factor { ("*" | "/") factor } ;
      factor  = base [ "**" factor ] | ("+" | "-") factor ;
      base    = number | name | func "(" expr { "," expr } ")" | "(" expr ")" ;
      name    = "x1" | ... | "xn" | "absx" | "xi" ;
      func    = "exp" | "sin" | "cos" | "sqrt" | "log" | "abs" ;
    """
    if not isinstance(expr, str):
        raise ValueError(f"expression must be a string, got {expr!r}")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as e:
        raise ValueError(f"bad expression {expr!r}: {e.msg}") from None

    def ev(pts, xi):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        env = {f"x{i + 1}": pts[:, i] for i in range(dim)}
        env["absx"] = np.sqrt(np.sum(pts ** 2, axis=1))
        env["xi"] = float(xi)
        try:
            val = _eval_node(tree, env)
        except ArithmeticError as e:
            raise ValueError(f"expression {expr!r} at xi = {xi}: {e}") from None
        return np.broadcast_to(np.asarray(val, dtype=complex), (pts.shape[0],)).copy()

    return ev


def symbol_from_descriptor(d, sys=None):
    """Build a Symbol from its JSON descriptor dict; ValueError for a malformed one."""
    kind = json_field(d, "kind", "symbol")
    dim = json_int(d.get("dim", 1), "symbol dim")
    if kind == "multiplier":
        ev = compile_expression(json_field(d, "expression", "multiplier symbol"), dim)
        return hermite_multiplier(lambda xi: complex(ev(np.zeros((1, dim)), xi)[0]), dim)
    if kind == "separable":
        x_scale = json_float(d.get("x_scale", 2.0), "x_scale")
        xi_scale = json_float(d.get("xi_scale", 8.0), "xi_scale")
        if not all(math.isfinite(v) and v > 0 for v in (x_scale, xi_scale)):
            raise ValueError("separable scales must be positive and finite, got "
                             f"x_scale {x_scale} and xi_scale {xi_scale}")
        return separable_symbol(dim, x_scale, xi_scale)
    if kind == "annulus":
        return annulus_symbol(dim, json_int(d.get("j_max", 6), "j_max"))
    if kind == "band-sum":
        if sys is None:
            from .lp import default_system
            sys = default_system()
        return band_sum_symbol(sys, dim, json_float(d.get("beta", -1.0), "beta"))
    if kind == "custom-expression":
        return Symbol(compile_expression(json_field(d, "expression", "expression symbol"), dim),
                      dim)
    raise ValueError(f"unknown symbol kind {kind!r}")


def load_symbol(path, sys=None):
    with open(path) as f:
        return symbol_from_descriptor(json.load(f), sys)
