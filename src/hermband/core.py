"""Hermite functions, projector kernels, quadrature and ladder operators.

All functions are orthonormal in L^2(R): h_k(t) = (2^k k! sqrt(pi))^{-1/2}
H_k(t) exp(-t^2/2).  Evaluation uses the three-term recurrence, carried in
(mantissa, base-2 exponent) form when a point lies past UNSCALED_MAX, so that
values deep in the Gaussian tail stay finite instead of underflowing
mid-recurrence.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import types
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)
_RESCALE = 2.0 ** 500
_RESCALE_INV = 2.0 ** -500
# h_0(t) >= 2^-451 for |t| <= 25, so the recurrence there never rescales.  When
# every point is also 0 or at least 2^-500 in magnitude, no value or product in it
# is subnormal, the scaled route's power-of-two shifts are exact, and the
# unscaled route gives the same bits
UNSCALED_MAX = 25.0


# decay rate of the tail envelope e_function; not pinned down analytically, the
# value 1/4 is calibrated from the diagonal-kernel decay (verify_qq reports the
# fitted rate beside it)
VARTHETA = 0.25


def _clipped_exponent(e):
    """The base-2 exponents e as int64, clipped to where ldexp saturates (no overflow surprises)."""
    return np.clip(e, -2098, 2098).astype(np.int64)


def _hermite_rows(k_max, t):
    """Yield h_0(t), ..., h_{k_max}(t), each of shape(t), one row at a time.

    When every |t| <= UNSCALED_MAX (and none is below 2^-500 but 0) the rows
    run unscaled from the first row, with the same bits as the scaled route.
    Otherwise a row is mantissa * 2**e, formed by ldexp with graceful underflow
    to 0; the integer exponent is recomputed only in the steps that rescale.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite evaluation point")
    t_max = np.max(np.abs(t), initial=0.0)
    # |h_k(t)| <= (2|t|)^k e^{-t^2/2} for |t| >= 1, so every row rounds to 0
    # where t^2/2 - k_max ln(1 + 2|t|) > 746 (never for |t| <= 38): run those
    # points at a stand-in beyond the zeros, sign(t) sqrt(2 k_max + 2), with
    # exponent -inf, which flushes each row to a zero of the sign of h_k(t).
    # The other points are small enough for an exact seed mantissa and a
    # finite t * 2^500.
    gone = False
    if t_max > 38.0:
        a = np.minimum(np.abs(t), _RESCALE)
        gone = 0.5 * a * a - k_max * np.log1p(2.0 * a) > 746.0
        t = np.where(gone, np.copysign(math.sqrt(2.0 * k_max + 2.0), t), t)
    # seed h_0 = pi^{-1/4} exp(-t^2/2) in scaled form
    log_h0 = -0.25 * math.log(math.pi) - 0.5 * t * t
    e = np.floor(log_h0 / _LN2)
    mant = np.exp(log_h0 - e * _LN2)
    e = np.where(gone, -np.inf, e)
    ei = _clipped_exponent(e)
    row = np.ldexp(mant, ei)
    yield row
    if t_max <= UNSCALED_MAX and not np.any((t != 0.0) & (np.abs(t) < _RESCALE_INV)):
        prev, cur = np.zeros_like(mant), row
        for k in range(k_max):
            prev, cur = cur, t * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1.0)) * prev
            yield cur
        return
    prev, cur = np.zeros_like(mant), mant
    acur = np.abs(cur)
    for k in range(k_max):
        a = math.sqrt(2.0 / (k + 1))
        b = math.sqrt(k / (k + 1.0))
        prev, cur = cur, t * a * cur - b * prev
        aprev, acur = acur, np.abs(cur)
        amax = np.maximum(aprev, acur)
        rescaled = False
        if amax.min(initial=np.inf) < _RESCALE_INV:
            small = (amax > 0) & (amax < _RESCALE_INV)
            if small.any():
                prev = np.where(small, prev * _RESCALE, prev)
                cur = np.where(small, cur * _RESCALE, cur)
                e = np.where(small, e - 500, e)
                rescaled = True
        if amax.max(initial=0.0) > _RESCALE:
            big = amax > _RESCALE
            prev = np.where(big, prev * _RESCALE_INV, prev)
            cur = np.where(big, cur * _RESCALE_INV, cur)
            e = np.where(big, e + 500, e)
            rescaled = True
        if rescaled:
            ei = _clipped_exponent(e)
            acur = np.abs(cur)
        yield np.ldexp(cur, ei)


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


def christoffel(N, t):
    """1 / sum_{k<=N} h_k(t)^2 (one-dimensional), elementwise over t, in O(len t) memory.

    The points within UNSCALED_MAX and those past it are summed apart, so the
    inner ones take the unscaled route; each point's sum is the same either way."""
    t = np.asarray(t, dtype=float)
    inner = np.abs(t) <= UNSCALED_MAX
    if inner.all() or not inner.any():
        return 1.0 / sum(row * row for row in _hermite_rows(N, t))
    out = np.empty(t.shape)
    out[inner], out[~inner] = christoffel(N, t[inner]), christoffel(N, t[~inner])
    return out


def finite_difference(seq, order):
    """Iterated forward differences of an integer-indexed sequence, along the last axis."""
    seq = np.asarray(seq)
    if order < 0:
        raise ValueError("order must be >= 0")
    if seq.shape[-1] <= order and order > 0:
        raise ValueError("sequence too short for requested difference order")
    return np.diff(seq, n=order) if order else seq.copy()


def e_function(N, x):
    """Tail envelope: 1 for |x| < sqrt(N), exp(-VARTHETA |x|^2) beyond."""
    if N <= 0:
        raise ValueError("scale must be positive")
    x = np.asarray(x, dtype=float)
    # scalars and 1-d arrays are radii (elementwise); 2-d arrays are points
    # with coordinates along the last axis
    r2 = x * x if x.ndim <= 1 else np.sum(x ** 2, axis=-1)
    r2 = np.asarray(r2, dtype=float)
    return np.where(r2 < N, 1.0, np.exp(-VARTHETA * r2))


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


def distinct_coordinates(col):
    """The distinct float64 bit patterns of a 1-D array, increasing as floats with -0.0
    before 0.0, and each entry's index among them: a sort of keys that order the bits as
    floats (a negative's other bits flipped, an involution), a neighbour test, a search."""
    low = np.int64(2 ** 63 - 1)
    bits = np.ascontiguousarray(col, dtype=float).view(np.int64)
    key = bits ^ ((bits >> 63) & low)
    ordered = np.sort(key)
    new = np.ones(key.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    keys = ordered[new]
    return (keys ^ ((keys >> 63) & low)).view(np.float64), np.searchsorted(keys, key)


def grid_tables(k_max, axes):
    """Per-axis tables [h_0..h_{k_max}] on the axes of a tensor grid, one built per
    distinct axis object, so [ax] * dim costs one table."""
    built = {}
    for ax in axes:
        if id(ax) not in built:
            built[id(ax)] = hermite_functions(k_max, np.asarray(ax, dtype=float))
    return [built[id(ax)] for ax in axes]


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

    The coefficients live in ``array``, a complex array of shape (K+1,)*dim that is
    zero where |xi| > K, and everywhere when no array is given; the ``coeffs``
    attribute is a read-only {xi: c} view of the nonzero entries in lexicographic order.
    """

    def __init__(self, dim, max_degree, array=None):
        self.dim = int(dim)
        self.max_degree = int(max_degree)
        if self.dim < 1 or self.max_degree < 0:
            raise ValueError("need dim >= 1 and max_degree >= 0")
        shape = (self.max_degree + 1,) * self.dim
        if array is None:
            self.array = np.zeros(shape, dtype=complex)
            return
        if array.shape != shape:
            raise ValueError(f"coefficient array shape {array.shape} != {shape}")
        self.array = np.where(self.degrees <= self.max_degree, array, 0).astype(complex, copy=False)

    @property
    def degrees(self):
        """The |xi| table of the coefficient array (cached, read-only)."""
        return _degree_table(self.dim, self.max_degree)

    @property
    def coeffs(self):
        idx = np.argwhere(self.array)
        vals = self.array[tuple(idx.T)].tolist()
        return types.MappingProxyType(dict(zip(map(tuple, idx.tolist()), vals)))

    def prune(self, tol):
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

    def is_real(self, tol):
        return bool(np.all(np.abs(self.array.imag) <= tol))

    # -- evaluation --------------------------------------------------------

    def eval_grid(self, axes, tables=None):
        """Evaluate on a tensor grid (list of per-axis 1D arrays).

        tables: per-axis Hermite tables on the axes (see grid_tables) of
        degree >= max_degree, when the caller already has them.
        """
        if len(axes) != self.dim:
            raise ValueError("grid dimension mismatch")
        if tables is None:
            tables = grid_tables(self.max_degree, axes)
        T = self.array
        for H in tables:
            T = np.tensordot(T, H[:self.max_degree + 1], axes=([0], [0]))
        return T

    def eval_points(self, pts):
        """Evaluate at scattered points, array of shape (m, dim).

        For dim >= 2, points whose distinct coordinates span a tensor grid of at
        most m points are read off eval_grid on that grid; other points are
        contracted one by one with the Hermite table of each column.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError("point dimension mismatch")
        if self.dim > 1:
            axes, index = zip(*map(distinct_coordinates, pts.T))
            if math.prod(ax.size for ax in axes) <= pts.shape[0]:
                return self.eval_grid(list(axes))[index]
        tables = [hermite_functions(self.max_degree, col) for col in pts.T]

        def contract(a):
            T = a @ tables[-1]
            for H in tables[-2::-1]:
                T = np.einsum("...am,am->...m", T, H)
            return T

        val = contract(self.array.real).astype(complex)
        if self.array.imag.any():
            val += 1j * contract(self.array.imag)
        return val

    def moment(self, center, gamma):
        """integral of (y - center)^gamma Re f(y) dy, exact by the lifted
        Gauss-Hermite rule with (max_degree + |gamma|)//2 + 7 nodes per axis."""
        q = (self.max_degree + sum(gamma)) // 2 + 7
        return float(lifted_gauss_hermite(
            lambda y: np.real(self.eval_grid([y] * self.dim)), q, self.dim, s=2.0,
            axis_factor=lambda d, y: (y - center[d]) ** gamma[d]))

    # -- ladder operators --------------------------------------------------

    def derivative(self, i):
        """d/dx_i = (B_i - A_i)/2, exact on the coefficients: B_i = d/dx_i + x_i
        takes c_xi to sqrt(2 xi_i) c_xi one step down axis i, A_i = -d/dx_i + x_i
        to sqrt(2 xi_i + 2) c_xi one step up; the degree rises by one."""
        K, dim = self.max_degree, self.dim
        out = np.zeros((K + 2,) * dim, dtype=complex)
        down, src, up = [slice(0, K + 1)] * dim, [slice(None)] * dim, [slice(0, K + 1)] * dim
        down[i], src[i], up[i] = slice(0, K), slice(1, K + 1), slice(1, K + 2)
        out[tuple(down)] = _axis_vector(np.sqrt(2.0 * np.arange(1, K + 1)), i, dim) \
            * self.array[tuple(src)]
        out[tuple(up)] -= _axis_vector(np.sqrt(2.0 * np.arange(K + 1) + 2.0), i, dim) * self.array
        out *= 0.5
        return SpectralFunction(dim, K + 1, out)

    def derivative_multi(self, gamma):
        out = self
        for i, g in enumerate(gamma):
            for _ in range(g):
                out = out.derivative(i)
        return out

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
        dim = json_int(json_field(d, "dim", "function"), "dim")
        K = json_int(json_field(d, "max_degree", "function"), "max_degree")
        if dim > 64 or dim >= 1 and K >= 0 and 16 * (K + 1) ** dim >= 2 ** 63:
            raise ValueError(f"dim {shown(d['dim'])} and max_degree {shown(d['max_degree'])}: a "
                             "(max_degree + 1)^dim array is past what NumPy can index (64 axes, 2^63 bytes)")
        f, seen = cls(dim, K), set()
        for e in json_array(d, "coeffs", "function"):
            xi = tuple(json_int(v, "xi") for v in json_array(e, "xi", "coefficient"))
            if len(xi) != dim or any(v < 0 for v in xi) or sum(xi) > K:
                raise ValueError(f"bad multi-index {shown(list(xi))}: need {dim} entries >= 0 with "
                                 f"sum <= max_degree {K}")
            c = complex(json_float(json_field(e, "re", "coefficient"), "re"),
                        json_float(e.get("im", 0.0), "im"))
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient at xi = {list(xi)}")
            if xi in seen:
                raise ValueError(f"xi = {list(xi)} appears more than once")
            seen.add(xi)
            f.array[xi] = c
        return f


def shown(v):
    """repr(v) for an error line, cut to its first 40 characters."""
    r = repr(v)
    return r if len(r) <= 40 else r[:40] + "..."


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
        raise ValueError(f"{what} must be an integer, got {shown(v)}")
    return int(v)


def json_float(v, what):
    """A decoded JSON number as a float; ValueError for any other value."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be a number, got {shown(v)}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{what} {shown(v)} is out of range") from None


def json_array(d, key, what):
    """json_field(d, key, what), which must be a JSON array; ValueError otherwise."""
    v = json_field(d, key, what)
    if not isinstance(v, list):
        raise ValueError(f"{what} field {key!r} must be a JSON array, got {shown(v)}")
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


def random_spectral(dim, max_degree, rng, real=True):
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
