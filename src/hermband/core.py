"""Hermite functions, projector kernels, quadrature and ladder operators.

All functions are orthonormal in L^2(R): h_k(t) = (2^k k! sqrt(pi))^{-1/2}
H_k(t) exp(-t^2/2).  Evaluation uses the three-term recurrence carried in
(mantissa, base-2 exponent) form so that values deep in the Gaussian tail
stay finite instead of underflowing mid-recurrence.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import types
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)
_RESCALE = 2.0 ** 500
_RESCALE_INV = 2.0 ** -500


@dataclass(frozen=True)
class Constants:
    """Decay constant of the tail envelope and the tile-control scale factor.

    vartheta is not pinned down analytically; the default 1/4 is calibrated
    from the diagonal-kernel decay (see the verification suites, which report
    the fitted value).  epsilon defaults to 4*(1+4*delta_star)^2 with
    delta_star = 1/40.
    """

    vartheta: float = 0.25
    epsilon: float = 4.0 * (1.0 + 4.0 / 40.0) ** 2

    def __post_init__(self):
        if not self.vartheta > 0:
            raise ValueError("vartheta must be positive")
        if not self.epsilon > 4:
            raise ValueError("epsilon must exceed 4")


def _ldexp_clipped(mant, e):
    """mant * 2**e with graceful underflow to 0 and no overflow surprises."""
    e = np.clip(e, -2098, 2098).astype(np.int64)
    return np.ldexp(mant, e)


def _hermite_rows(k_max, t):
    """Yield h_0(t), ..., h_{k_max}(t), each of shape(t), one row at a time."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite evaluation point")
    # seed h_0 = pi^{-1/4} exp(-t^2/2) in scaled form
    log_h0 = -0.25 * math.log(math.pi) - 0.5 * t * t
    e = np.floor(log_h0 / _LN2)
    mant = np.exp(log_h0 - e * _LN2)
    yield _ldexp_clipped(mant, e)
    prev, cur = np.zeros_like(mant), mant
    for k in range(k_max):
        a = math.sqrt(2.0 / (k + 1))
        b = math.sqrt(k / (k + 1.0))
        prev, cur = cur, t * a * cur - b * prev
        amax = np.maximum(np.abs(prev), np.abs(cur))
        small = (amax > 0) & (amax < _RESCALE_INV)
        if small.any():
            prev = np.where(small, prev * _RESCALE, prev)
            cur = np.where(small, cur * _RESCALE, cur)
            e = np.where(small, e - 500, e)
        big = amax > _RESCALE
        if big.any():
            prev = np.where(big, prev * _RESCALE_INV, prev)
            cur = np.where(big, cur * _RESCALE_INV, cur)
            e = np.where(big, e + 500, e)
        yield _ldexp_clipped(cur, e)


def hermite_functions(k_max, t):
    """Evaluate h_0..h_{k_max} at t (scalar or array).

    Returns an array of shape (k_max + 1,) + shape(t).  Values are finite for
    any finite t; in the far tail they underflow cleanly to 0.
    """
    out = np.empty((max(k_max, 0) + 1,) + np.shape(t))   # _hermite_rows rejects k_max < 0
    for k, row in enumerate(_hermite_rows(k_max, t)):
        out[k] = row
    return out


def _airy_zeros(k):
    """The zeros a_k < 0 of Ai, k >= 1, from their asymptotic series (DLMF 9.9.6, 9.9.18)."""
    t = 3.0 * math.pi / 8.0 * (4.0 * np.asarray(k, dtype=float) - 1.0)
    u = t ** -2.0
    return -t ** (2.0 / 3.0) * (1.0 + u * (5.0 / 48.0 + u * (-5.0 / 36.0 + u * (
        77125.0 / 82944.0 - u * 108056875.0 / 6967296.0))))


def _hermite_zero_guesses(q):
    """Increasing guesses for the q // 2 positive zeros of H_q (Townsend, Trogdon
    and Olver, IMA J. Numer. Anal. 36, 2016): Tricomi's formula in the bulk,
    Gatteschi's near the turning point sqrt(2q + 1)."""
    half = q // 2
    nu = 2.0 * q + 1.0
    # where Gatteschi becomes the better guess: TTO's fit to the 10..1000-point rules
    n_bulk = min(half, max(0, round(0.49082003 * q - 4.37859653) + 1))
    c = (4.0 * half - 4.0 * np.arange(1, n_bulk + 1) + 3.0) * math.pi / nu
    t = np.full(n_bulk, 0.5 * math.pi)
    for _ in range(5):                      # Newton on t - sin t = c
        t -= (t - np.sin(t) - c) / (1.0 - np.cos(t))
    s = np.cos(0.5 * t) ** 2
    bulk = nu * s - (1.25 / (1.0 - s) ** 2 - 1.0 / (1.0 - s) - 0.25) / (3.0 * nu)
    a = _airy_zeros(np.arange(half - n_bulk, 0, -1))
    c2 = 2.0 ** (2.0 / 3.0)
    edge = (nu + c2 * a * nu ** (1.0 / 3.0) + 0.2 * c2 ** 2 * a ** 2 * nu ** (-1.0 / 3.0)
            + (9.0 / 140.0 - 12.0 / 175.0 * a ** 3) / nu
            + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a ** 4) * c2 * nu ** (-5.0 / 3.0)
            - (15152.0 / 3031875.0 * a ** 5 + 1088.0 / 121275.0 * a ** 2)
            * 2.0 ** (1.0 / 3.0) * nu ** (-7.0 / 3.0))
    return np.sqrt(np.concatenate([bulk, edge]))


def _hermite_newton_step(q, x):
    """h_q(x) / h_q'(x) at points x > 0, from the ratios r_k = h_k(x) / h_{k-1}(x).

    r_k = sqrt(2/k) x - sqrt((k-1)/k) / r_{k-1} needs no rescaling, and
    h_q' = sqrt(2q) h_{q-1} - x h_q makes the step r_q / (sqrt(2q) - x r_q),
    which stays finite where r_q rounds to 0.
    """
    r = math.sqrt(2.0) * x
    for k in range(2, q + 1):
        r = math.sqrt(2.0 / k) * x - math.sqrt((k - 1.0) / k) / r
    return r / (math.sqrt(2.0 * q) - x * r)


@functools.lru_cache(maxsize=64)
def gauss_hermite(q):
    """The q-point Gauss-Hermite rule: increasing nodes x_i and lifted weights tau_i.

    The nodes are the zeros of H_q: Newton from the guesses of
    _hermite_zero_guesses on the positive ones, mirrored about the origin, with
    the centre node of an odd rule exactly 0.  Each node is within a few units
    in the last place of the exact zero.  tau_i = christoffel(q - 1, x_i) is
    the Gauss weight times e^{x_i^2}, so sum_i tau_i f(x_i) = integral f(x) dx
    exactly when f(x) = e^{-x^2} p(x) with p a polynomial of degree <= 2q - 1.
    Both arrays are cached and read-only.
    """
    if q < 1:
        raise ValueError("need at least one node")
    nodes = _hermite_zeros(q)
    tau = christoffel(q - 1, nodes)
    nodes.flags.writeable = False
    tau.flags.writeable = False
    return nodes, tau


def _hermite_zeros(q):
    """The q zeros of H_q, increasing: the nodes of gauss_hermite(q)."""
    x = _hermite_zero_guesses(q)
    # Newton converges cubically here (h_q'' = (x^2 - 2q - 1) h_q vanishes at
    # the zeros), so after a step below 1e-10 the next would be round-off
    for _ in range(20):
        step = _hermite_newton_step(q, x)
        x = x - step
        if np.all(np.abs(step) <= 1e-10 * np.maximum(1.0, x)):
            break
    else:
        raise ArithmeticError(f"Newton did not converge to the zeros of H_{q}")
    return np.concatenate([-x[::-1], np.zeros(q % 2), x])


def hermite_inner_products(k_max, q=128):
    """Gram matrix <h_j, h_k> for j,k <= k_max via q-point quadrature."""
    nodes, tau = gauss_hermite(q)
    h = hermite_functions(k_max, nodes)
    return (h * tau) @ h.T


def _axis_products(k, x, y):
    """Per-axis sequences g_d[i] = h_i(x_d) h_i(y_d), i = 0..k."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("points have different dimensions")
    return [hermite_functions(k, float(xd)) * hermite_functions(k, float(yd))
            for xd, yd in zip(x, y)]


def projector_kernel_sequence(k_max, x, y):
    """[P_0(x,y), ..., P_{k_max}(x,y)] via convolution across axes."""
    seqs = _axis_products(k_max, x, y)
    acc = seqs[0]
    for s in seqs[1:]:
        acc = np.convolve(acc, s)[: k_max + 1]
    return acc


def _checked_kernel_sequence(k_max, x, y, n):
    """projector_kernel_sequence once k_max >= 0 and, unless n is None, x and y are in R^n."""
    if k_max < 0:
        raise ValueError("degree must be non-negative")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if n is not None and (x.size != n or y.size != n):
        raise ValueError("dimension mismatch")
    return projector_kernel_sequence(k_max, x, y)


def projector_kernel(k, x, y, n=None):
    """P_k(x,y) = sum_{|xi|=k} h_xi(x) h_xi(y)."""
    return _checked_kernel_sequence(k, x, y, n)[k]


def qq_kernel(N, x, y, n=None):
    """Q_N(x,y) = sum_{k<=N} P_k(x,y)."""
    return float(np.sum(_checked_kernel_sequence(N, x, y, n)))


def christoffel(N, t):
    """1 / sum_{k<=N} h_k(t)^2 (one-dimensional), elementwise over t, in O(len t) memory."""
    return 1.0 / sum(row * row for row in _hermite_rows(N, t))


def hermite_derivative_1d(k, t):
    """h_k'(t) = (sqrt(2k) h_{k-1}(t) - sqrt(2k+2) h_{k+1}(t)) / 2."""
    h = hermite_functions(k + 1, float(t))
    lower = math.sqrt(2.0 * k) * h[k - 1] if k >= 1 else 0.0
    return 0.5 * (lower - math.sqrt(2.0 * k + 2.0) * h[k + 1])


def finite_difference(seq, order):
    """Iterated forward differences of an integer-indexed sequence, along the last axis."""
    seq = np.asarray(seq)
    if order < 0:
        raise ValueError("order must be >= 0")
    if seq.shape[-1] <= order and order > 0:
        raise ValueError("sequence too short for requested difference order")
    return np.diff(seq, n=order) if order else seq.copy()


def e_function(N, x, constants=Constants()):
    """Tail envelope: 1 for |x| < sqrt(N), exp(-vartheta |x|^2) beyond."""
    if N <= 0:
        raise ValueError("scale must be positive")
    x = np.asarray(x, dtype=float)
    # scalars and 1-d arrays are radii (elementwise); 2-d arrays are points
    # with coordinates along the last axis
    r2 = x * x if x.ndim <= 1 else np.sum(x ** 2, axis=-1)
    r2 = np.asarray(r2, dtype=float)
    return np.where(r2 < N, 1.0, np.exp(-constants.vartheta * r2))


# ---------------------------------------------------------------------------
# multi-indices, point grids and lifted quadrature
# ---------------------------------------------------------------------------


def multi_indices(dim, order_max):
    """All xi in N^dim with |xi| <= order_max, in lexicographic order."""
    return [xi for xi in itertools.product(range(order_max + 1), repeat=dim)
            if sum(xi) <= order_max]


def tensor_points(axes):
    """All points of the tensor grid of per-axis arrays, shape (prod(lengths), dim), row-major."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def tensor_product(vectors):
    """Products v_1[i_1] v_2[i_2] ... of per-axis vectors, flat in row-major order."""
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out.ravel()


def lifted_gauss_hermite(sample, q, dim, s=1.0, axis_factor=None):
    """integral over R^dim of F(y) prod_d a_d(y_d) dy by a q-point tensor Gauss-Hermite rule.

    sample(y) returns F on the tensor grid of the axis nodes y = sqrt(s) u,
    shape (q,) * dim.  F must carry the Gaussian e^{-|y|^2/s} (s = 2 for one
    Hermite function, s = 1 for a product of two); the lifted weights of
    gauss_hermite take it in, so the rule is exact when the rest is a
    polynomial of degree <= 2q - 1 per axis.  axis_factor(d, y) gives a_d at
    the nodes, of shape (q,) or (q, r); a (q, r) factor appends an output axis
    of length r.
    """
    u, tau = gauss_hermite(q)
    y = math.sqrt(s) * u
    T = sample(y)
    for d in range(dim):
        W = tau
        if axis_factor is not None:
            a = np.asarray(axis_factor(d, y))
            W = a * tau.reshape((-1,) + (1,) * (a.ndim - 1))
        T = np.tensordot(T, W, axes=([0], [0]))
    return T * s ** (dim / 2.0)


def axis_tables(k_max, pts):
    """Per-axis tables [h_0..h_{k_max}] at the coordinates of an (m, dim) point array."""
    return [hermite_functions(k_max, pts[:, d]) for d in range(pts.shape[1])]


# ---------------------------------------------------------------------------
# spectral functions (finite Hermite expansions)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _degree_table(dim, max_degree):
    deg = sum(np.ix_(*[np.arange(max_degree + 1)] * dim))
    deg.flags.writeable = False
    return deg


def degree_array(w, dim):
    """w[|xi|] on the (K+1,)*dim coefficient grid, K = len(w) - 1, zero where |xi| > K."""
    w = np.asarray(w)
    K = w.size - 1
    return np.append(w, np.zeros((dim - 1) * K, dtype=w.dtype))[_degree_table(dim, K)]


class SpectralFunction:
    """A finite Hermite expansion sum_{|xi| <= K} c_xi h_xi.

    The coefficients live in ``array``, a complex array of shape (K+1,)*dim
    that is zero where |xi| > K.  ``coeffs`` may be given as such an array or
    as a {xi: c} dict; the ``coeffs`` attribute is a read-only {xi: c} view of
    the nonzero entries in lexicographic order.
    """

    def __init__(self, dim, max_degree, coeffs=None):
        self.dim = int(dim)
        self.max_degree = int(max_degree)
        if self.dim < 1 or self.max_degree < 0:
            raise ValueError("need dim >= 1 and max_degree >= 0")
        shape = (self.max_degree + 1,) * self.dim
        if isinstance(coeffs, np.ndarray):
            if coeffs.shape != shape:
                raise ValueError(f"coefficient array shape {coeffs.shape} != {shape}")
            arr = np.where(self.degrees <= self.max_degree, coeffs, 0)
            self.array = arr.astype(complex, copy=False)
            return
        self.array = np.zeros(shape, dtype=complex)
        for xi, c in (coeffs or {}).items():
            if len(xi) != self.dim or any(v < 0 for v in xi):
                raise ValueError(f"bad multi-index {xi}")
            if sum(xi) > self.max_degree:
                raise ValueError(f"multi-index {xi} exceeds max_degree {self.max_degree}")
            self.array[tuple(xi)] = c

    @property
    def degrees(self):
        """The |xi| table of the coefficient array (cached, read-only)."""
        return _degree_table(self.dim, self.max_degree)

    @property
    def coeffs(self):
        idx = np.argwhere(self.array)
        vals = self.array[tuple(idx.T)].tolist()
        return types.MappingProxyType(dict(zip(map(tuple, idx.tolist()), vals)))

    def prune(self, tol=0.0):
        self.array[np.abs(self.array) <= tol] = 0.0
        return self

    def scaled(self, a):
        return SpectralFunction(self.dim, self.max_degree, a * self.array)

    def _padded(self, K):
        if K == self.max_degree:
            return self.array
        out = np.zeros((K + 1,) * self.dim, dtype=complex)
        out[(slice(0, self.max_degree + 1),) * self.dim] = self.array
        return out

    def add(self, other):
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        K = max(self.max_degree, other.max_degree)
        return SpectralFunction(self.dim, K, self._padded(K) + other._padded(K))

    def sub(self, other):
        return self.add(other.scaled(-1.0))

    def norm2(self):
        """Exact L^2 norm via Parseval, summed in lexicographic order."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.array[np.nonzero(self.array)].tolist()))

    def inner(self, other):
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        K = max(self.max_degree, other.max_degree)
        return complex(np.sum(self._padded(K) * np.conj(other._padded(K))))

    def is_real(self, tol=1e-12):
        return bool(np.all(np.abs(self.array.imag) <= tol))

    def _present_degrees(self):
        return np.unique(self.degrees[self.array != 0]).tolist()

    def degree_slices(self):
        """The nonzero degree parts P_k f: dict k -> SpectralFunction, increasing k."""
        return {k: SpectralFunction(self.dim, self.max_degree,
                                    np.where(self.degrees == k, self.array, 0))
                for k in self._present_degrees()}

    # -- evaluation --------------------------------------------------------

    def eval_grid(self, axes):
        """Evaluate on a tensor grid (list of per-axis sorted 1D arrays)."""
        if len(axes) != self.dim:
            raise ValueError("grid dimension mismatch")
        T = self.array
        for ax in axes:
            H = hermite_functions(self.max_degree, np.asarray(ax, dtype=float))
            T = np.tensordot(T, H, axes=([0], [0]))
        return T

    def _points(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError("point dimension mismatch")
        return pts

    def eval_points(self, pts, tables=None):
        """Evaluate at scattered points, array of shape (m, dim).

        tables: per-axis Hermite tables at the points (see axis_tables) of
        degree >= max_degree, when the caller already has them.
        """
        pts = self._points(pts)
        if tables is None:
            tables = axis_tables(self.max_degree, pts)
        K1 = self.max_degree + 1

        def contract(a):
            T = a @ tables[-1][:K1]
            for H in tables[-2::-1]:
                T = np.einsum("...am,am->...m", T, H[:K1])
            return T

        val = contract(self.array.real).astype(complex)
        if self.array.imag.any():
            val += 1j * contract(self.array.imag)
        return val

    def eval_degrees(self, pts):
        """Yield (k, (P_k f)(pts)) over the degrees k of the nonzero coefficients, increasing.

        Each value sums c_xi h_xi(pts) over |xi| = k in lexicographic order,
        one point vector at a time, so memory stays at the Hermite tables.
        """
        pts = self._points(pts)
        tables = axis_tables(self.max_degree, pts)
        for k in self._present_degrees():
            acc = np.zeros(pts.shape[0], dtype=complex)
            for xi in np.argwhere((self.degrees == k) & (self.array != 0)).tolist():
                term = np.full(pts.shape[0], self.array[tuple(xi)])
                for H, v in zip(tables, xi):
                    term = term * H[v]
                acc += term
            yield k, acc

    def moment(self, center, gamma):
        """integral of (y - center)^gamma Re f(y) dy, exact by the lifted
        Gauss-Hermite rule with (max_degree + |gamma|)//2 + 7 nodes per axis."""
        q = (self.max_degree + sum(gamma)) // 2 + 7
        return float(lifted_gauss_hermite(
            lambda y: np.real(self.eval_grid([y] * self.dim)), q, self.dim, s=2.0,
            axis_factor=lambda d, y: (y - center[d]) ** gamma[d]))

    # -- ladder operators --------------------------------------------------

    def apply_creation_axis(self, i):
        """A_i = -d/dx_i + x_i: c_xi -> sqrt(2 xi_i + 2) shifted up."""
        K = self.max_degree
        out = np.zeros((K + 2,) * self.dim, dtype=complex)
        dst = [slice(0, K + 1)] * self.dim
        dst[i] = slice(1, K + 2)
        out[tuple(dst)] = _axis_vector(np.sqrt(2.0 * np.arange(K + 1) + 2.0), i, self.dim) \
            * self.array
        return SpectralFunction(self.dim, K + 1, out)

    def apply_annihilation_axis(self, i):
        """B_i = d/dx_i + x_i: c_xi -> sqrt(2 xi_i) shifted down."""
        K = self.max_degree
        out = np.zeros_like(self.array)
        dst = [slice(None)] * self.dim
        src = [slice(None)] * self.dim
        dst[i], src[i] = slice(0, K), slice(1, K + 1)
        out[tuple(dst)] = _axis_vector(np.sqrt(2.0 * np.arange(1, K + 1)), i, self.dim) \
            * self.array[tuple(src)]
        return SpectralFunction(self.dim, K, out)

    def derivative(self, i):
        """d/dx_i = (B_i - A_i)/2, exact on the coefficients."""
        return self.apply_annihilation_axis(i).sub(self.apply_creation_axis(i)).scaled(0.5)

    def derivative_multi(self, gamma):
        out = self
        for i, g in enumerate(gamma):
            for _ in range(g):
                out = out.derivative(i)
        return out

    def apply_hermite_operator(self):
        """(-Laplacian + |x|^2) f, diagonal: c_xi -> (2|xi| + dim) c_xi."""
        return SpectralFunction(self.dim, self.max_degree,
                                (2 * self.degrees + self.dim) * self.array)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "max_degree": self.max_degree,
            "coeffs": [
                {"xi": list(xi), "re": float(np.real(c)), "im": float(np.imag(c))}
                for xi, c in self.coeffs.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        coeffs = {}
        for e in json_array(d, "coeffs", "function"):
            xi = tuple(json_int(v, "xi") for v in json_array(e, "xi", "coefficient"))
            c = complex(json_float(json_field(e, "re", "coefficient"), "re"),
                        json_float(e.get("im", 0.0), "im"))
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient at xi = {list(xi)}")
            coeffs[xi] = c
        return cls(json_int(json_field(d, "dim", "function"), "dim"),
                   json_int(json_field(d, "max_degree", "function"), "max_degree"), coeffs)

    def write(self, fh):
        json.dump(self.to_json_dict(), fh, indent=1)

    def save(self, path):
        with open(path, "w") as fh:
            self.write(fh)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def json_field(d, key, what):
    """d[key] of a decoded JSON object; ValueError when d is no object or lacks the key."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{what} has no {key!r} field")
    return d[key]


def json_int(v, what):
    """A decoded JSON number as an int; ValueError unless it is integral."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return int(v)


def json_float(v, what):
    """A decoded JSON number as a float; ValueError for any other value."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{what} {v} is out of range") from None


def json_array(d, key, what):
    """json_field(d, key, what), which must be a JSON array; ValueError otherwise."""
    v = json_field(d, key, what)
    if not isinstance(v, list):
        raise ValueError(f"{what} field {key!r} must be a JSON array, got {v!r}")
    return v


def _axis_vector(v, i, dim):
    """v shaped to broadcast along axis i of a dim-dimensional array."""
    return v.reshape((-1,) + (1,) * (dim - 1 - i))


def kernel_expansion(w, x):
    """sum_{|xi| <= K} w[|xi|] h_xi(x) h_xi with K = len(w) - 1.

    Each coefficient is w[|xi|] h_{xi_1}(x_1) h_{xi_2}(x_2) ..., multiplied
    in that order.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    K = len(w) - 1
    arr = degree_array(np.asarray(w, dtype=float), n)
    for i, xd in enumerate(x):
        arr = arr * _axis_vector(hermite_functions(K, float(xd)), i, n)
    return SpectralFunction(n, K, arr)


def apply_creation(alpha, f):
    """A^alpha f with the exact product factors; raises max_degree by |alpha|."""
    out = f
    for i, a in enumerate(alpha):
        for _ in range(int(a)):
            out = out.apply_creation_axis(i)
    return out


def basis_function(xi):
    xi = tuple(int(v) for v in xi)
    return SpectralFunction(len(xi), sum(xi), {xi: 1.0})


def random_spectral(dim, max_degree, rng, real=False):
    """Random element of V_K with unit-scale Gaussian coefficients.

    Drawn in lexicographic order of xi; a complex coefficient takes its real
    and then its imaginary part.
    """
    idx = multi_indices(dim, max_degree)
    if real:
        vals = rng.standard_normal(len(idx))
    else:
        vals = rng.standard_normal((len(idx), 2)).view(complex).ravel()
    arr = np.zeros((max_degree + 1,) * dim, dtype=complex)
    arr[tuple(np.transpose(idx))] = vals
    return SpectralFunction(dim, max_degree, arr)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------


@dataclass
class GridFunction:
    """Samples of a function on a tensor grid; axes are sorted 1D arrays."""

    axes: list
    samples: np.ndarray

    def __post_init__(self):
        self.axes = [np.asarray(a, dtype=float) for a in self.axes]
        self.samples = np.asarray(self.samples)
        shape = tuple(len(a) for a in self.axes)
        if self.samples.shape != shape:
            raise ValueError(f"samples shape {self.samples.shape} != grid shape {shape}")
        for a in self.axes:
            if a.size > 1 and not np.all(np.diff(a) > 0):
                raise ValueError("axis points must be strictly increasing")

    @property
    def dim(self):
        return len(self.axes)

    def write_csv(self, fh):
        pts = tensor_points(self.axes)
        flat = self.samples.ravel()
        cols = [f"x{i + 1}" for i in range(self.dim)]
        fh.write(",".join(cols + ["re", "im"]) + "\n")
        for p, v in zip(pts, flat):
            coords = ",".join("%.17g" % c for c in p)
            fh.write(f"{coords},{'%.17g' % np.real(v)},{'%.17g' % np.imag(v)}\n")
