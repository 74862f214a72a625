"""Pseudo-multipliers T_sigma f = sum_k sigma(x, lambda_k) P_k f.

Every symbol is a finite sum sigma(x, xi) = sum_t G_t(x) w_t(xi) of
x-factors times spectral windows, so T_sigma f = sum_t G_t . w_t(sqrt L) f:
each window acts on the coefficients of f and each x-factor multiplies the
result on the grid.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import (GridFunction, SpectralFunction, axis_tables, grid_tables, hermite_functions,
                   json_field, json_float, json_int, lifted_gauss_hermite, shown, tensor_points)
from .lp import apply_lp, bump_system


class Symbol:
    """sigma(x, xi) = sum_t G_t(x) w_t(xi).

    evaluator(pts, xi) takes an (m, n) point array and a 1-D array xi of
    non-negative spectral arguments and returns (W, factors): W is an array
    whose row W[t] is w_t at xi, and factors(nu, live) lists d^nu_x G_t at
    the points for each t in live, raising ValueError for a nu the symbol
    does not supply.
    """

    def __init__(self, evaluator, dim):
        self.evaluator = evaluator
        self.dim = int(dim)


def _unsupplied(nu):
    return ValueError(f"the symbol supplies no x-derivative nu = {tuple(nu)}")


def apply_pseudomultiplier(sigma, f, axes, gamma=None):
    """d^gamma_x T_sigma f on the tensor grid of axes, as a GridFunction (gamma = 0 by default).

    By Leibniz, d^gamma T_sigma f = sum_beta C(gamma, beta) sum_t d^beta G_t
    d^{gamma - beta} w_t(sqrt L) f, summed over beta and then t; the windows are
    evaluated at the lambda_k of the degrees k present in f, a term whose window
    vanishes there is skipped, and each w_t(sqrt L) f is differentiated exactly
    on its coefficients.
    """
    gamma = (0,) * f.dim if gamma is None else tuple(gamma)
    pts = tensor_points(axes)
    ks = np.unique(f.degrees[f.array != 0])
    W, factors = sigma.evaluator(pts, 2.0 * ks + f.dim)
    live = [t for t, w in enumerate(W) if np.any(w != 0)]
    wk = np.zeros((len(W), f.dim * f.max_degree + 1), dtype=W.dtype)    # w_t at each degree
    wk[:, ks] = W
    parts = [SpectralFunction(f.dim, f.max_degree, wk[t][f.degrees] * f.array) for t in live]
    tables = grid_tables(f.max_degree + sum(gamma), axes)
    out = np.zeros(pts.shape[0], dtype=complex)
    for beta in itertools.product(*(range(g + 1) for g in gamma)):
        rest = tuple(g - b for g, b in zip(gamma, beta))
        coef = math.prod(math.comb(g, b) for g, b in zip(gamma, beta))
        for g, part in zip(factors(beta, live), parts):
            out += coef * g * part.derivative_multi(rest).eval_grid(axes, tables).ravel()
    return GridFunction(axes, out.reshape([len(a) for a in axes]))


def reproject(evalfn, dim, K_prime):
    """Project a function with Gaussian decay, sampled on tensor grids, onto V_{K'}.

    evalfn(axes) -> values on the tensor grid of the axes; the function must
    carry the factor e^{-|y|^2/2} (true for anything of the form
    sum_k sigma(y, lambda_k) P_k f).  Returns (SpectralFunction, relative
    residual of the discarded part).
    """
    q = max(64, 2 * K_prime + 16)
    g = pts = None

    def sample(y):
        nonlocal g, pts
        axes = [y] * dim
        pts = tensor_points(axes)
        g = np.asarray(evalfn(axes)).reshape([q] * dim)
        return g

    # c_xi = <g, h_xi>: g and h_xi each carry a half-Gaussian
    G = lifted_gauss_hermite(sample, q, dim,
                             axis_factor=lambda d, y: hermite_functions(K_prime, y).T)
    fK = SpectralFunction(dim, K_prime, G).prune(1e-300)
    # the discarded part g - f_K is summed at the nodes: ||g||^2 - ||f_K||^2
    # would cancel the leading digits of a small residual
    rest = g - fK.eval_points(pts).reshape([q] * dim)
    norm_g2 = float(np.real(lifted_gauss_hermite(lambda y: np.abs(g) ** 2, q, dim)))
    resid2 = float(np.real(lifted_gauss_hermite(lambda y: np.abs(rest) ** 2, q, dim)))
    residual = math.sqrt(resid2 / norm_g2) if norm_g2 > 0 else 0.0
    return fK, residual


def hermite_multiplier(seq, dim):
    """x-independent symbol from a spectral sequence xi -> complex, called once
    per xi: one term with G = 1, so every d^nu G with nu != 0 is 0."""

    def ev(pts, xi):
        def factors(nu, live):
            g = np.zeros(len(pts)) if sum(nu) else np.ones(len(pts))
            return [g for _ in live]
        return np.array([[complex(seq(v)) for v in xi.tolist()]], dtype=complex), factors

    return Symbol(ev, dim)


def pointwise_symbol(ev, dim):
    """The Symbol of an evaluator ev(pts, xi) -> (m, len(xi)) table: one term per xi,
    w_t the indicator of xi_t and G_t the table's column t, evaluated once for the
    live columns (also when there are none); no x-derivative is supplied."""

    def evaluator(pts, xi):
        def factors(nu, live):
            if sum(nu):
                raise _unsupplied(nu)
            vals = ev(pts, xi[live])
            return [vals[:, i] for i in range(len(live))]
        return np.eye(len(xi)), factors

    return Symbol(evaluator, dim)


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


def radial_symbol(dim, profile, windows):
    """The Symbol sum_t G_t(|x|^2) w_t(xi) with its exact x-derivatives for |nu| <= 2.

    profile(t, r2, order) is the order-th derivative G_t^(order) at r2 = |x|^2,
    order 0, 1 or 2; windows(xi) is the array W with W[t] = w_t(xi).  By the
    chain rule d_i = 2 x_i G' and d_i d_k = 4 x_i x_k G'' + 2 delta_ik G'.
    """

    def ev(pts, xi):
        r2 = np.sum(pts ** 2, axis=1)

        def factors(nu, live):
            axes = [i for i, v in enumerate(nu) for _ in range(v)]    # (), (i,) or (i, k)
            if len(axes) > 2:
                raise _unsupplied(nu)
            if not axes:
                return [profile(t, r2, 0) for t in live]
            x = pts[:, axes[0]]
            if len(axes) == 1:
                return [2.0 * x * profile(t, r2, 1) for t in live]
            out = [4.0 * x * pts[:, axes[1]] * profile(t, r2, 2) for t in live]
            if axes[0] == axes[1]:
                out = [g + 2.0 * profile(t, r2, 1) for g, t in zip(out, live)]
            return out

        return windows(xi), factors

    return Symbol(ev, dim)


def separable_symbol(dim, x_scale=2.0, xi_scale=8.0):
    """Compactly supported spatial bump times a Schwartz spectral factor:
    G(|x|^2) e^{-xi/xi_scale} with G(r2) = e^{1 - 1/w}, w = 1 - r2/s^2 for
    r2 < s^2 (s = x_scale), and G = 0 outside; both scales positive and finite."""
    if not all(math.isfinite(v) and v > 0 for v in (x_scale, xi_scale)):
        raise ValueError("separable scales must be positive and finite, got "
                         f"x_scale {x_scale} and xi_scale {xi_scale}")

    def profile(t, r2, order):
        r = np.sqrt(r2) / x_scale
        g = _radial_bump(r)
        if order == 0:
            return g
        w = np.where(r < 1.0, 1.0 - r ** 2, 1.0)
        q = (x_scale * w) ** 2
        # G' = -G / (s w)^2, G'' = G (1 - 2w) / (s w)^4
        return -g / q if order == 1 else g * (1.0 - 2.0 * w) / q ** 2

    def windows(xi):
        # libm's exp, one per xi: NumPy's vector exp may differ in the last bit
        return np.array([[math.exp(-v / xi_scale) for v in xi.tolist()]])

    return radial_symbol(dim, profile, windows)


def band_sum_symbol(sys, dim, beta=-1.0):
    """sigma(x, xi) = sum_{j <= 8} sigma_j(x) phi_j(sqrt(xi)) with
    sigma_j(x) = G_j(|x|^2) = (1 + |x|^2/4^j)^{beta/2} (smooth, dyadically scaled)."""
    b = beta / 2.0

    def profile(j, r2, order):
        # d^order/d(r2)^order of (1 + r2/4^j)^b
        coef = math.prod(b - i for i in range(order))
        return coef * 4.0 ** (-j * order) * (1.0 + r2 / 4.0 ** j) ** (b - order)

    return radial_symbol(dim, profile, lambda xi: _windows(sys, 8, xi))


def _windows(sys, J, xi):
    """phi_j(sqrt(xi)) for j <= J, one row per j."""
    u = np.sqrt(np.maximum(xi, 0.0))
    return np.array([np.asarray(sys.window(j, u), dtype=float) for j in range(J + 1)])


def annulus_symbol(dim, j_max):
    """sigma_j supported in the dyadic annulus 2^j <= |x| < 2^{j+1}, summed."""

    def ev(pts, xi):
        def factors(nu, live):
            if sum(nu):
                raise _unsupplied(nu)
            r = np.sqrt(np.sum(pts ** 2, axis=1))
            acc = _radial_bump(r)          # central piece
            for j in range(j_max + 1):
                c = 1.5 * 2.0 ** j
                acc = acc + _radial_bump(np.abs(r - c) / (0.5 * 2.0 ** j))
            return [acc for _ in live]
        return np.ones((1, len(xi))), factors      # one term, w = 1

    return Symbol(ev, dim)


# ---------------------------------------------------------------------------
# linearization of a nonlinearity
# ---------------------------------------------------------------------------


class Nonlinearity:
    """Smooth scalar function with its first two derivatives, vanishing at 0."""

    def __init__(self, h, dh, d2h):
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


def linearize_nonlinearity(H, f, sys, J, t_points=16):
    """sigma_f(x, xi) = sum_j m_j(x) phi_j(sqrt(xi)) with
    m_j(x) = int_0^1 H'(f_{j-1}(x) + t (phi_j(sqrt L) f)(x)) dt.

    f_j is the partial sum of the band projections b_j of f; by telescoping,
    T_{sigma_f} f = H(f) up to the t-quadrature error alone.  The first
    x-derivatives are analytic:
    d_i m_j = int_0^1 H''(f_{j-1} + t b_j) (d_i f_{j-1} + t d_i b_j) dt.
    The bands are evaluated at the points once per evaluator call, from one
    Hermite table of degree K + 1 (a derivative raises the degree by one).
    """
    if not f.is_real(1e-10):
        raise ValueError("linearization requires a real function")
    if abs(H(0.0)) > 1e-14:
        raise ValueError("nonlinearity must vanish at 0")
    if J < 0:
        raise ValueError(f"need J >= 0, got {J}")
    # Gauss-Legendre nodes and weights on [0, 1] for the t integral
    t, wt = leggauss(int(t_points))
    t, wt = 0.5 * (t + 1.0), 0.5 * wt
    bands = [apply_lp(sys, j, f) for j in range(J + 1)]

    def ev(pts, xi):
        tables = axis_tables(f.max_degree + 1, pts)
        vals = [np.real(b.eval_points(pts, tables)) for b in bands]

        def factors(nu, live):
            if sum(nu) > 1:
                raise _unsupplied(nu)
            dvals = vals if sum(nu) == 0 else \
                [np.real(b.derivative(nu.index(1)).eval_points(pts, tables)) for b in bands]
            out, prev, dprev = [], 0.0, 0.0
            for j, (bj, dbj) in enumerate(zip(vals, dvals)):
                if j in live:
                    out.append(sum(wi * H.dh(prev + ti * bj) if sum(nu) == 0 else
                                   wi * H.d2h(prev + ti * bj) * (dprev + ti * dbj)
                                   for ti, wi in zip(t, wt)))
                prev, dprev = prev + bj, dprev + dbj
            return out

        return _windows(sys, J, xi), factors

    return Symbol(ev, f.dim)


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
        raise ValueError(f"unknown name {shown(node.id)}")
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
        raise ValueError(f"expression must be a string, got {shown(expr)}")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as e:
        raise ValueError(f"bad expression {shown(expr)}: {e.msg}") from None

    def ev(pts, xi):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        # points down the rows, xi along the columns
        env = {f"x{i + 1}": pts[:, i:i + 1] for i in range(dim)}
        env["absx"] = np.sqrt(np.sum(pts ** 2, axis=1, keepdims=True))
        env["xi"] = xi
        try:
            # an inf or NaN from the arrays is an error, as Python floats raise
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                val = _eval_node(tree, env)
        except ArithmeticError as e:
            where = f" for xi in [{xi.min():g}, {xi.max():g}]" if xi.size else ""
            raise ValueError(f"expression {shown(expr)}{where}: {e}") from None
        return np.broadcast_to(np.asarray(val, dtype=complex), (pts.shape[0], xi.size))

    return ev


def symbol_from_descriptor(d, sys=None):
    """Build a Symbol from its JSON descriptor dict; ValueError for a malformed one."""
    kind = json_field(d, "kind", "symbol")
    dim = json_int(d.get("dim", 1), "symbol dim")

    def given(*keys):       # the float fields d holds: the symbol holds the defaults
        return {k: json_float(d[k], k) for k in keys if k in d}

    if kind == "multiplier":
        ev = compile_expression(json_field(d, "expression", "multiplier symbol"), dim)
        return hermite_multiplier(lambda xi: ev(np.zeros((1, dim)), xi)[0, 0], dim)
    if kind == "separable":
        return separable_symbol(dim, **given("x_scale", "xi_scale"))
    if kind == "annulus":
        j_max = json_int(d.get("j_max", 6), "j_max")
        if not 0 <= j_max <= 1023:      # 2^j overflows past 1023
            raise ValueError(f"annulus j_max must be in [0, 1023], got {j_max}")
        return annulus_symbol(dim, j_max)
    if kind == "band-sum":
        sys = bump_system() if sys is None else sys
        return band_sum_symbol(sys, dim, **given("beta"))
    if kind == "custom-expression":
        return pointwise_symbol(
            compile_expression(json_field(d, "expression", "expression symbol"), dim), dim)
    raise ValueError(f"unknown symbol kind {shown(kind)}")

