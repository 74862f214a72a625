"""Reference oracles and the paper checks that no hermband command runs.

The tests measure the library against these: Hermite identities evaluated
term by term, the band kernel as a sum of projector kernels, a grid L^p
norm, the admissibility and symbol-class checks, and the frame round trip.
"""

import itertools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from hermband.core import (GridFunction, SpectralFunction, finite_difference, gauss_hermite,
                           grid_tables, hermite_functions, lifted_gauss_hermite, multi_indices,
                           projector_kernel_sequence, tensor_points, tensor_product)
from hermband.frames import analyze, synthesize
from hermband.lp import _FD_STEPS, support_set
from hermband.norms import QuadratureBox, _grid_lp
from hermband.symbols import pointwise_symbol


def spectral_function(dim, max_degree, coeffs):
    """The SpectralFunction with the {xi: c} coefficients coeffs."""
    f = SpectralFunction(dim, max_degree)
    for xi, c in coeffs.items():
        f.array[tuple(xi)] = c
    return f


def basis_function(xi):
    return spectral_function(len(xi), sum(xi), {tuple(xi): 1.0})


def grid_csv(g, fh):
    """The grid CSV of a GridFunction written one point at a time: the reference
    for the apply and linearize output."""
    pts = tensor_points(g.axes)
    flat = g.samples.ravel()
    cols = [f"x{i + 1}" for i in range(g.dim)]
    fh.write(",".join(cols + ["re", "im"]) + "\n")
    for p, v in zip(pts, flat):
        coords = ",".join("%.17g" % c for c in p)
        fh.write(f"{coords},{'%.17g' % np.real(v)},{'%.17g' % np.imag(v)}\n")


def hermite_inner_products(k_max, q=128):
    """Gram matrix <h_j, h_k> for j,k <= k_max via q-point quadrature."""
    nodes, tau = gauss_hermite(q)
    h = hermite_functions(k_max, nodes)
    return (h * tau) @ h.T


def hermite_derivative_1d(k, t):
    """h_k'(t) = (sqrt(2k) h_{k-1}(t) - sqrt(2k+2) h_{k+1}(t)) / 2."""
    h = hermite_functions(k + 1, float(t))
    lower = math.sqrt(2.0 * k) * h[k - 1] if k >= 1 else 0.0
    return 0.5 * (lower - math.sqrt(2.0 * k + 2.0) * h[k + 1])


def apply_creation_axis(f, i):
    """A_i f, A_i = -d/dx_i + x_i: c_xi -> sqrt(2 xi_i + 2) c_xi shifted one step up axis i."""
    K, dim = f.max_degree, f.dim
    out = np.zeros((K + 2,) * dim, dtype=complex)
    dst = [slice(0, K + 1)] * dim
    dst[i] = slice(1, K + 2)
    out[tuple(dst)] = np.sqrt(2.0 * np.arange(K + 1) + 2.0).reshape((-1,) + (1,) * (dim - 1 - i)) \
        * f.array
    return SpectralFunction(dim, K + 1, out)


def ladder_derivative(f, i):
    """d/dx_i f = (B_i f - A_i f)/2 with B_i = d/dx_i + x_i: c_xi -> sqrt(2 xi_i) c_xi
    shifted one step down axis i, each ladder map its own spectral function."""
    K, dim = f.max_degree, f.dim
    low = np.zeros_like(f.array)
    dst, src = [slice(None)] * dim, [slice(None)] * dim
    dst[i], src[i] = slice(0, K), slice(1, K + 1)
    low[tuple(dst)] = np.sqrt(2.0 * np.arange(1, K + 1)).reshape((-1,) + (1,) * (dim - 1 - i)) \
        * f.array[tuple(src)]
    return SpectralFunction(dim, K, low).sub(apply_creation_axis(f, i)).scaled(0.5)


def apply_creation(alpha, f):
    """A^alpha f with the exact product factors; raises max_degree by |alpha|."""
    out = f
    for i, a in enumerate(alpha):
        for _ in range(int(a)):
            out = apply_creation_axis(out, i)
    return out


def apply_hermite_operator(f):
    """(-Laplacian + |x|^2) f, diagonal: c_xi -> (2|xi| + dim) c_xi."""
    return SpectralFunction(f.dim, f.max_degree, (2 * f.degrees + f.dim) * f.array)


def inner_product_quadrature(f, g):
    """Oracle: <f, g-conj> for two spectral functions by Gauss-Hermite.

    Both are polynomial times e^{-|y|^2/2}, so the product carries the
    Gauss-Hermite weight e^{-|y|^2} exactly.
    """
    if g.dim != f.dim:
        raise ValueError("dimension mismatch")
    n = f.dim
    q = (f.max_degree + g.max_degree) // 2 + 7
    return complex(lifted_gauss_hermite(
        lambda y: f.eval_grid([y] * n) * np.conj(g.eval_grid([y] * n)), q, n))


def lp_kernel(sys, j, x, y, n):
    """Kernel of phi_j(sqrt(L)): sum_k phi_j(sqrt(lambda_k)) P_k(x,y)."""
    ks = support_set(sys, j, n)
    if len(ks) == 0:
        return 0.0
    seq = projector_kernel_sequence(ks[-1], x, y)
    return float(np.dot(sys.degree_windows(j, ks[-1], n), seq))


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


def reproducing_sum(sys, u, J):
    u = np.asarray(u, dtype=float)
    return sum(sys.window(j, u) * sys.dual_window(j, u) for j in range(J + 1))


def check_admissible(sys):
    """Measure the admissibility clauses; returns a per-clause report dict."""
    report = {}
    b = sys.support_end
    grid = np.linspace(-0.5, 2.0, 4001)

    phi0_vals = sys.phi0(grid)
    outside = grid > sys.phi0.support[1] + 1e-9
    report["phi0_support"] = {
        "pass": bool(np.max(np.abs(phi0_vals[outside]), initial=0.0) < 1e-12),
        "max_outside": float(np.max(np.abs(phi0_vals[outside]), initial=0.0)),
    }

    phi_vals = sys.phi(grid)
    nz = np.abs(phi_vals) > 1e-12
    b2 = float(np.min(grid[nz])) if nz.any() else math.inf
    b3 = float(np.max(grid[nz])) if nz.any() else -math.inf
    report["phi_support"] = {
        "pass": bool(0.25 - 1e-9 <= b2 < b3 <= 1.0 + 1e-9),
        "b2": b2, "b3": b3,
    }

    # lower bound of |phi0| near 0: report the largest plateau we can certify
    pos = np.linspace(0.0, b, 4001)
    v = np.abs(sys.phi0(pos))
    half = v >= 0.5
    b1 = float(pos[np.argmin(half)]) if not half.all() else float(b)
    b0 = float(np.min(v[pos <= b1])) if b1 > 0 else 0.0
    report["phi0_lower"] = {"pass": bool(b0 > 0 and b1 > 0), "b0": b0, "b1": b1}

    derivs = {}
    ok = True
    for order in range(1, 9):
        d = float(sys.phi0.derivative(0.0, order))
        derivs[order] = d
        if abs(d) > 1e-8:
            ok = False
    report["phi0_flat_at_zero"] = {"pass": ok, "derivatives": derivs,
                                   "fd_steps": dict(_FD_STEPS)}

    lam = np.linspace(0.0, 2.0 ** 5, 10000)
    J = sys.coverage_level(2.0 ** 5) + 1
    err = float(np.max(np.abs(reproducing_sum(sys, np.sqrt(lam), J) - 1.0)))
    report["reproducing"] = {"pass": bool(err < 1e-12), "max_error": err, "J": J}

    report["pass"] = all(v["pass"] for k, v in report.items() if isinstance(v, dict))
    return report


def roundtrip_residual(sys, f, J, cfg):
    """Relative L^2 error of synthesize(analyze(f)).

    Meaningful only when the window sum is 1 on the occupied spectrum, that
    is when J reaches its coverage level; the flag reports coverage.
    """
    covered = sys.coverage_level(2.0 * f.max_degree + f.dim) <= J
    g = synthesize(sys, analyze(sys, f, J, cfg))
    num = g.sub(f).norm2()
    den = f.norm2()
    res = num / den if den > 0 else 0.0
    return res, covered


def rho(x):
    """Critical radius 1/(1+|x|)."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(np.atleast_2d(x) ** 2, axis=-1)) if x.ndim > 1 else np.linalg.norm(np.atleast_1d(x))
    return 1.0 / (1.0 + r)


def one_point_grids(pts):
    """Each row of an (m, n) point array as the axes of a one-point tensor grid."""
    return [[p[d:d + 1] for d in range(p.size)] for p in np.atleast_2d(np.asarray(pts, dtype=float))]


def symbol_table(sigma, pts, xi, nu):
    """d^nu_x sigma as an (m, len(xi)) table: sum_t d^nu G_t(x) w_t(xi) over every
    term, summed in t order, each point evaluated as a one-point grid; ValueError
    for a nu the symbol does not supply."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    nu = tuple(int(v) for v in nu)
    rows = []
    for axes in one_point_grids(pts):
        W, factors = sigma.evaluator(axes, xi)
        row = np.zeros(len(xi))
        for g, w in zip(factors(nu, list(range(len(W)))), W):
            row = row + np.ravel(g)[0] * w
        rows.append(row)
    return np.array(rows).reshape(len(rows), len(xi))


def x_derivative(sigma, pts, xi, nu):
    """d^nu_x sigma: the symbol's own table (symbol_table) when it supplies nu,
    otherwise richardson_x_derivative."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    try:
        return symbol_table(sigma, pts, xi, nu)
    except ValueError:
        if sum(nu) == 0:
            raise
        return richardson_x_derivative(sigma, pts, xi, nu)


def apply_by_degree(table, f, axes, gamma):
    """d^gamma_x T_sigma f on the tensor grid of axes, one degree part P_k f at a time.

    table(pts, xi, nu) is the (m, len(xi)) table of d^nu_x sigma (symbol_table);
    by Leibniz, d^gamma T_sigma f = sum_beta C(gamma, beta) sum_k d^beta_x
    sigma(., lambda_k) d^{gamma - beta} P_k f, summed over beta and then k.
    """
    gamma = tuple(gamma)
    pts = tensor_points(axes)
    parts = {k: SpectralFunction(f.dim, f.max_degree, np.where(f.degrees == k, f.array, 0))
             for k in np.unique(f.degrees[f.array != 0]).tolist()}
    lams = 2.0 * np.array(list(parts), dtype=float) + f.dim
    tables = grid_tables(f.max_degree + sum(gamma), axes)
    out = np.zeros(pts.shape[0], dtype=complex)
    for beta in itertools.product(*(range(g + 1) for g in gamma)):
        rest = tuple(g - b for g, b in zip(gamma, beta))
        coef = math.prod(math.comb(g, b) for g, b in zip(gamma, beta))
        ds = table(pts, lams, beta)
        for i, part in enumerate(parts.values()):
            out += coef * ds[:, i] * part.derivative_multi(rest).eval_grid(axes, tables).ravel()
    return GridFunction(axes, out.reshape([len(a) for a in axes]))


def richardson_x_derivative(sigma, pts, xi, nu):
    """d^nu_x sigma by Richardson central differences with step 1e-4*(1+|x|),
    on the first axis of nu, of the table one order lower (x_derivative), each
    shifted point evaluated as a one-point grid."""
    axis = next(i for i, v in enumerate(nu) if v > 0)
    lower = nu[:axis] + (nu[axis] - 1,) + nu[axis + 1:]
    h = 1e-4 * (1.0 + np.sqrt(np.sum(pts ** 2, axis=1)))

    def d(step):
        up = pts.copy()
        dn = pts.copy()
        up[:, axis] += step
        dn[:, axis] -= step
        return (x_derivative(sigma, up, xi, lower)
                - x_derivative(sigma, dn, xi, lower)) / (2.0 * step[:, None])

    a1, a2 = d(h), d(h / 2.0)
    return (4.0 * a2 - a1) / 3.0


def check_symbol_class(sigma, m, rho_par, delta, K_fd, N_der, x_grid, growth=None):
    """Constants sup |d^nu_x Delta^kappa_xi sigma| / [g (1+sqrt(xi))^{m-2 rho kappa+delta|nu|}].

    Scans xi <= 64 with unit steps in the differences.  Returns
    {(|nu| pattern, kappa): constant}.  g is growth(pts, xi), an
    (m, len(xi)) table like symbol_table's, or 1 (the no-growth variant of
    the class) when it is None.
    """
    pts = np.atleast_2d(np.asarray(x_grid, dtype=float))
    xis = np.unique(np.concatenate([np.arange(0, 16), np.geomspace(16, 64, 12).astype(int)]))
    xis = xis.astype(float)
    # sigma at xi + i, i <= K_fd, with the steps i along the last axis
    lam = (xis[:, None] + np.arange(K_fd + 1)).ravel()
    g = 1.0
    if growth is not None:
        g = np.maximum(np.asarray(growth(pts, xis), dtype=float), 1e-300)
    report = {}
    for nu in multi_indices(sigma.dim, N_der):
        vals = x_derivative(sigma, pts, lam, nu).reshape(len(pts), len(xis), K_fd + 1)
        for kappa in range(K_fd + 1):
            diff = finite_difference(vals[..., :kappa + 1], kappa)[..., 0]
            denom = (1.0 + np.sqrt(xis)) ** (m - 2.0 * rho_par * kappa + delta * sum(nu)) * g
            report[(nu, kappa)] = float(np.max(np.abs(diff) / denom))
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
    nodes, weights = leggauss(12)
    xi = np.asarray(xi_samples, dtype=float)
    scale = (1.0 + np.sqrt(xi)) ** m
    report = {gamma: 0.0 for gamma in multi_indices(n, order)}
    for x in np.atleast_2d(np.asarray(sample_points, dtype=float)):
        r = float(rho(x))
        ball = tensor_points([x[d] + r * nodes for d in range(n)])
        inside = np.sum((ball - x) ** 2, axis=1) <= r * r
        if not inside.any():
            continue
        win = tensor_product([weights] * n) * inside
        vol = float(np.sum(win))
        rr = rho(ball)
        for gamma in report:
            d = x_derivative(sigma, ball, xi, gamma)
            avg = win @ np.abs((rr ** sum(gamma))[:, None] * d) ** 2 / vol
            report[gamma] = max(report[gamma], float(np.max(np.sqrt(avg) / scale)))
    return report


def oscillating_symbol(v):
    """e^{i x . v} on R^len(v): rapid oscillation, negative control for cancellation."""
    v = np.atleast_1d(np.asarray(v, dtype=float))

    def ev(axes, xi):
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return np.broadcast_to(np.exp(1j * grid @ v)[..., None], grid.shape[:-1] + (len(xi),))

    return pointwise_symbol(ev, v.size)
