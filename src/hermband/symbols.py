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

from .core import (GridFunction, SpectralFunction, hermite_functions, lifted_gauss_hermite,
                   multi_indices, tensor_points)
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

    def __init__(self, evaluator, dim, x_derivatives=None, growth=None, name="symbol"):
        self.evaluator = evaluator
        self.dim = int(dim)
        self.x_derivatives = dict(x_derivatives or {})
        self.growth = growth
        self.name = name

    def __call__(self, pts, xi):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.evaluator(pts, xi))

    def x_derivative(self, pts, xi, nu, step_scale=1e-4):
        """d^nu_x sigma: analytic when supplied, otherwise Richardson
        central differences with step step_scale*(1+|x|) per axis."""
        nu = tuple(int(v) for v in nu)
        if sum(nu) == 0:
            return self(pts, xi)
        if nu in self.x_derivatives:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            return np.asarray(self.x_derivatives[nu](pts, xi))
        axis = next(i for i, v in enumerate(nu) if v > 0)
        lower = list(nu)
        lower[axis] -= 1
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = step_scale * (1.0 + np.sqrt(np.sum(pts ** 2, axis=1)))

        def d(step):
            up = pts.copy()
            dn = pts.copy()
            up[:, axis] += step
            dn[:, axis] -= step
            return (self.x_derivative(up, xi, lower, step_scale)
                    - self.x_derivative(dn, xi, lower, step_scale)) / (2.0 * step)

        a1, a2 = d(h), d(h / 2.0)
        return (4.0 * a2 - a1) / 3.0

    def xi_difference(self, pts, xi, kappa, convention="index", n=1):
        """Forward differences in the spectral argument.

        convention "index": unit steps in xi.  convention "lambda": steps of
        2 along the actual eigenvalues lambda_k = 2k + n.
        """
        step = 1 if convention == "index" else 2
        acc = 0.0
        for i in range(kappa + 1):
            acc = acc + (-1.0) ** (kappa - i) * binom(kappa, i) * self(pts, xi + i * step)
        return acc


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


def reproject(evalfn, dim, K_prime, quad_degree=None):
    """Project a pointwise-evaluable function with Gaussian decay onto V_{K'}.

    evalfn(pts) -> values; the function must carry the factor e^{-|y|^2/2}
    (true for anything of the form sum_k sigma(y, lambda_k) P_k f).  Returns
    (SpectralFunction, relative residual of the discarded part).
    """
    q = quad_degree if quad_degree is not None else max(64, 2 * K_prime + 16)
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


def check_symbol_class(sigma, m, rho_par, delta, K_fd, N_der, x_grid,
                       xi_max=64, growth=None, convention="index"):
    """Constants sup |d^nu_x Delta^kappa_xi sigma| / [g (1+sqrt(xi))^{m-2 rho kappa+delta|nu|}].

    Returns {(|nu| pattern, kappa): constant}.  growth defaults to the
    symbol's own, then to 1 (the no-growth variant of the class).
    """
    pts = np.atleast_2d(np.asarray(x_grid, dtype=float))
    g = growth if growth is not None else sigma.growth
    xis = np.unique(np.concatenate([np.arange(0, min(xi_max, 16)),
                                    np.geomspace(16, max(xi_max, 17), 12).astype(int)]))
    xis = xis[xis <= xi_max]
    report = {}
    for nu in multi_indices(sigma.dim, N_der):
        for kappa in range(K_fd + 1):
            best = 0.0
            for xi in xis:
                xi = int(xi)
                if kappa == 0:
                    val = sigma.x_derivative(pts, xi, nu)
                else:
                    step = 1 if convention == "index" else 2
                    acc = 0.0
                    for i in range(kappa + 1):
                        acc = acc + (-1.0) ** (kappa - i) * binom(kappa, i) \
                            * sigma.x_derivative(pts, xi + i * step, nu)
                    val = acc
                denom = (1.0 + math.sqrt(xi)) ** (m - 2.0 * rho_par * kappa + delta * sum(nu))
                if g is not None:
                    denom = denom * np.maximum(np.asarray(g(pts, xi), dtype=float), 1e-300)
                best = max(best, float(np.max(np.abs(val) / denom)))
            report[(nu, kappa)] = best
    return report


def check_cancellation_class(sigma, m, M, sample_points, xi_samples=(0, 1, 4, 9, 25, 64),
                             gl_points=12):
    """Ball-averaged derivative bounds of the cancellation class.

    For each sample x and xi, computes
    (avg over B(x, rho(x)) of |rho(y)^{|gamma|} d^gamma sigma(y, xi)|^2)^{1/2}
    divided by (1 + sqrt(xi))^m, for |gamma| <= 2 floor((n+M)/2) + 2.
    """
    n = sigma.dim
    order = 2 * ((n + M) // 2) + 2
    nodes, weights = roots_legendre(gl_points)
    report = {}
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    for gamma in multi_indices(n, order):
        best = 0.0
        for x in pts:
            r = float(rho(x))
            axes = [x[d] + r * nodes for d in range(n)]
            ball = tensor_points(axes)
            wgt = weights
            for _ in range(n - 1):
                wgt = np.multiply.outer(wgt, weights)
            wgt = wgt.ravel()
            inside = np.sum((ball - x) ** 2, axis=1) <= r * r
            if not inside.any():
                continue
            win = wgt * inside
            vol = float(np.sum(win))
            rr = 1.0 / (1.0 + np.sqrt(np.sum(ball ** 2, axis=1)))
            for xi in xi_samples:
                d = sigma.x_derivative(ball, int(xi), gamma)
                avg = float(np.sum(win * np.abs(rr ** sum(gamma) * d) ** 2) / vol)
                val = math.sqrt(avg) / (1.0 + math.sqrt(xi)) ** m
                best = max(best, val)
        report[gamma] = best
    return report


def hermite_multiplier(seq, dim=1, name="multiplier"):
    """x-independent symbol from a spectral sequence xi -> complex."""

    def ev(pts, xi):
        return np.full(np.atleast_2d(pts).shape[0], complex(seq(xi)))

    derivs = {}
    sym = Symbol(ev, dim, name=name)

    def zero(pts, xi):
        return np.zeros(np.atleast_2d(pts).shape[0], dtype=complex)

    for nu in multi_indices(dim, 4):
        if sum(nu) > 0:
            derivs[nu] = zero
    sym.x_derivatives = derivs
    return sym


def identity_symbol(dim=1):
    return hermite_multiplier(lambda xi: 1.0, dim, name="identity")


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

    return Symbol(ev, dim, name="separable")


def band_sum_symbol(sys, dim=1, beta=-1.0, j_max=8):
    """sigma(x, xi) = sum_j sigma_j(x) phi_j(sqrt(xi)) with
    sigma_j(x) = (1 + |x|^2/4^j)^{beta/2} (smooth, dyadically scaled)."""

    def ev(pts, xi):
        pts = np.atleast_2d(pts)
        r2 = np.sum(pts ** 2, axis=1)
        u = math.sqrt(max(xi, 0.0))
        acc = np.zeros(pts.shape[0])
        for j in range(j_max + 1):
            w = float(sys.window(j, u))
            if w != 0.0:
                acc += w * (1.0 + r2 / 4.0 ** j) ** (beta / 2.0)
        return acc

    sym = Symbol(ev, dim, name="band-sum")

    def growth(pts, xi):
        pts = np.atleast_2d(pts)
        r = np.sqrt(np.sum(pts ** 2, axis=1))
        return (1.0 + r / (1.0 + math.sqrt(max(xi, 0.0)))) ** beta

    sym.growth = growth
    return sym


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

    return Symbol(ev, dim, name="annulus")


def oscillating_symbol(v, dim=1):
    """e^{i x . v}: rapid oscillation, negative control for cancellation."""
    v = np.atleast_1d(np.asarray(v, dtype=float))

    def ev(pts, xi):
        pts = np.atleast_2d(pts)
        return np.exp(1j * pts @ v)

    return Symbol(ev, dim, name="oscillating")


# ---------------------------------------------------------------------------
# linearization of a nonlinearity
# ---------------------------------------------------------------------------


class Nonlinearity:
    """Smooth scalar function with derivatives, vanishing at 0."""

    def __init__(self, h, dh, d2h=None, name="H"):
        self.h = h
        self.dh = dh
        self.d2h = d2h
        self.name = name

    def __call__(self, u):
        return self.h(u)


def nonlinearity_power(p):
    """H(u) = u^p."""
    return Nonlinearity(lambda u: u ** p,
                        lambda u: p * u ** (p - 1),
                        (lambda u: p * (p - 1) * u ** (p - 2)) if p >= 2 else (lambda u: 0.0 * u),
                        name=f"u^{p}")


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
        self.t_points = int(t_points)
        self.bands = [apply_lp(sys, j, f) for j in range(J + 1)]
        self._cache = {}
        super().__init__(self._evaluate, f.dim, name="linearized")

    def _band_values(self, pts):
        key = (pts.shape, pts.tobytes())
        if key not in self._cache:
            self._cache[key] = [np.real(b.eval_points(pts)) for b in self.bands]
        return self._cache[key]

    def m_values(self, pts):
        """m_j on the points, all j <= J, via Gauss-Legendre in t."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        bands = self._band_values(pts)
        t, wt = roots_legendre(self.t_points)
        t = 0.5 * (t + 1.0)
        wt = 0.5 * wt
        out = []
        prev = np.zeros(pts.shape[0])
        for j in range(self.J + 1):
            bj = bands[j]
            mj = np.zeros(pts.shape[0])
            for ti, wi in zip(t, wt):
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

    def x_derivative(self, pts, xi, nu, step_scale=1e-4):
        nu = tuple(int(v) for v in nu)
        if sum(nu) != 1 or self.H.d2h is None:
            return super().x_derivative(pts, xi, nu, step_scale)
        axis = nu.index(1)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        bands = self._band_values(pts)
        dbands = [np.real(b.derivative(axis).eval_points(pts)) for b in self.bands]
        t, wt = roots_legendre(self.t_points)
        t = 0.5 * (t + 1.0)
        wt = 0.5 * wt
        u = math.sqrt(max(float(xi), 0.0))
        acc = np.zeros(pts.shape[0])
        prev = np.zeros(pts.shape[0])
        dprev = np.zeros(pts.shape[0])
        for j in range(self.J + 1):
            w = float(self.sys.window(j, u))
            if w != 0.0:
                mj = np.zeros(pts.shape[0])
                for ti, wi in zip(t, wt):
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
        if isinstance(node.value, (int, float)):
            return node.value
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
    tree = ast.parse(expr, mode="eval")

    def ev(pts, xi):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        env = {f"x{i + 1}": pts[:, i] for i in range(dim)}
        env["absx"] = np.sqrt(np.sum(pts ** 2, axis=1))
        env["xi"] = float(xi)
        val = _eval_node(tree, env)
        return np.broadcast_to(np.asarray(val, dtype=complex), (pts.shape[0],)).copy()

    return ev


def symbol_from_descriptor(d, sys=None):
    """Build a Symbol from its JSON descriptor dict."""
    kind = d.get("kind")
    dim = int(d.get("dim", 1))
    if kind == "multiplier":
        ev = compile_expression(d["expression"], dim)
        return hermite_multiplier(lambda xi: complex(ev(np.zeros((1, dim)), xi)[0]), dim)
    if kind == "separable":
        return separable_symbol(dim, d.get("x_scale", 2.0), d.get("xi_scale", 8.0))
    if kind == "annulus":
        return annulus_symbol(dim, d.get("j_max", 6))
    if kind == "band-sum":
        if sys is None:
            from .lp import default_system
            sys = default_system()
        return band_sum_symbol(sys, dim, d.get("beta", -1.0))
    if kind == "custom-expression":
        return Symbol(compile_expression(d["expression"], dim), dim, name="expression")
    raise ValueError(f"unknown symbol kind {kind!r}")


def load_symbol(path, sys=None):
    with open(path) as f:
        return symbol_from_descriptor(json.load(f), sys)
