"""Hermite evaluation, quadrature, kernels and spectral-function algebra."""

import json
import math

import numpy as np
import pytest

from hermband.core import (
    UNSCALED_MAX,
    VARTHETA,
    SpectralFunction,
    _hermite_zeros,
    christoffel,
    distinct_coordinates,
    e_function,
    finite_difference,
    gauss_hermite,
    grid_tables,
    hermite_functions,
    lifted_gauss_hermite,
    projector_kernel_sequence,
    random_spectral,
    tensor_points,
)
from hermband.estimates import _envelope_epsilon
from hermband.tiles import TileConfig, level_degree

from oracles import (apply_creation, apply_hermite_operator, basis_function,
                     hermite_derivative_1d, hermite_inner_products, ladder_derivative)


def test_h0_at_zero():
    assert list(hermite_functions(0, 0.0)) == pytest.approx([0.7511255444649425], abs=1e-15)


def test_h1_closed_form():
    t = 1.0
    expect = math.sqrt(2.0) * t * math.exp(-t * t / 2.0) * math.pi ** -0.25
    assert hermite_functions(1, t)[1] == pytest.approx(expect, abs=1e-14)


def test_h2_at_zero():
    assert hermite_functions(2, 0.0)[2] == pytest.approx(
        -1.0 / (math.sqrt(2.0) * math.pi ** 0.25), abs=1e-14)


def test_recurrence_against_direct_polynomials():
    # scaled-recurrence values against the weighted-polynomial evaluation
    t = np.linspace(-8.0, 8.0, 31)
    vals = hermite_functions(40, t)
    polys = _poly_oracle(40, t)
    assert np.max(np.abs(vals - polys)) < 1e-11


def hermite_polys_orthonormal(k_max, t):
    """Orthonormal polynomials for the weight e^{-t^2}: h_k without the Gaussian."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((k_max + 1,) + t.shape)
    out[0] = math.pi ** -0.25
    if k_max >= 1:
        out[1] = math.sqrt(2.0) * t * out[0]
    for k in range(1, k_max):
        out[k + 1] = t * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def _poly_oracle(k_max, t):
    return hermite_polys_orthonormal(k_max, t) * np.exp(-t * t / 2.0)


def test_deep_tail_no_overflow():
    # far beyond the classical turning point every value underflows cleanly
    vals = hermite_functions(2000, np.array([79.0, 80.0]))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1e-100


@pytest.mark.parametrize("k_max", [5, 200])
def test_hermite_functions_finite_over_the_whole_float_range(k_max):
    with np.errstate(over="ignore"):        # geomspace's own intermediate powers
        t = np.geomspace(1.0, np.finfo(float).max, 4001)
    h = hermite_functions(k_max, t)
    assert np.all(np.isfinite(h))
    # past the turning point each |h_k| decreases, to exact zeros at the far end
    tail = t > math.sqrt(2.0 * k_max + 1.0)
    assert np.all(np.diff(np.abs(h[:, tail]), axis=1) <= 0.0)
    assert np.all(h[:, -200:] == 0.0)
    # h_k(-t) = (-1)^k h_k(t), the sign of the zeros included
    parity = (-1.0) ** np.arange(k_max + 1)[:, None]
    assert _same_bits(hermite_functions(k_max, -t), parity * h)
    # a far point does not disturb the others in the same call
    for i in range(0, t.size, 250):
        assert _same_bits(hermite_functions(k_max, t[i]), h[:, i])
    with np.errstate(divide="ignore"):
        assert not np.any(np.isnan(christoffel(k_max, t)))
        assert not np.isnan(christoffel(3, 1e152))


def test_eval_hermite_nd_product_structure():
    def h(xi, x):
        return basis_function(xi).eval_points([x])[0]

    assert h((0, 0), (0.0, 0.0)) == pytest.approx(math.pi ** -0.5, abs=1e-14)
    for y in (-1.3, 0.0, 2.2):
        assert h((1, 0), (0.0, y)) == 0.0
    expect = hermite_functions(2, 0.3)[2] * hermite_functions(1, -0.7)[1]
    assert h((2, 1), (0.3, -0.7)) == pytest.approx(expect, abs=1e-14)


def test_projector_kernel_1d_factorization():
    assert projector_kernel_sequence(0, 0.0, 0.0)[0] == pytest.approx(math.pi ** -0.5, abs=1e-14)
    expect = hermite_functions(3, 0.5)[3] * hermite_functions(3, -0.2)[3]
    assert projector_kernel_sequence(3, 0.5, -0.2)[3] == pytest.approx(expect, abs=1e-13)


def test_projector_kernel_2d_odd_vanishing():
    assert projector_kernel_sequence(1, (0.0, 0.0), (1.0, 1.0))[1] == pytest.approx(0.0, abs=1e-15)


def test_projector_kernel_2d_sum_over_multiindices():
    x, y = (0.4, -0.3), (0.1, 0.9)
    k = 3
    acc = 0.0
    for a in range(k + 1):
        b = k - a
        acc += (hermite_functions(a, x[0])[a] * hermite_functions(b, x[1])[b]
                * hermite_functions(a, y[0])[a] * hermite_functions(b, y[1])[b])
    assert projector_kernel_sequence(k, x, y)[k] == pytest.approx(acc, abs=1e-13)


def _reference_hermite_rows(k_max, t):
    """Oracle for core._hermite_rows: the same scaled recurrence, clipping and
    casting the exponent and testing both rescale masks on every row."""
    def ldexp_clipped(mant, e):
        return np.ldexp(mant, np.clip(e, -2098, 2098).astype(np.int64))

    t = np.asarray(t, dtype=float)
    log_h0 = -0.25 * math.log(math.pi) - 0.5 * t * t
    e = np.floor(log_h0 / math.log(2.0))
    mant = np.exp(log_h0 - e * math.log(2.0))
    yield ldexp_clipped(mant, e)
    prev, cur = np.zeros_like(mant), mant
    for k in range(k_max):
        prev, cur = cur, t * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1.0)) * prev
        amax = np.maximum(np.abs(prev), np.abs(cur))
        small = (amax > 0) & (amax < 2.0 ** -500)
        if small.any():
            prev = np.where(small, prev * 2.0 ** 500, prev)
            cur = np.where(small, cur * 2.0 ** 500, cur)
            e = np.where(small, e - 500, e)
        big = amax > 2.0 ** 500
        if big.any():
            prev = np.where(big, prev * 2.0 ** -500, prev)
            cur = np.where(big, cur * 2.0 ** -500, cur)
            e = np.where(big, e + 500, e)
        yield ldexp_clipped(cur, e)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("K", [0, 1, 2, 40, 300, 1500])
def test_hermite_rows_match_the_per_row_reference(K):
    # at +-200, h_0 is 2^-28854, and at K = 1500 the big-value rescale runs in
    # 1411 steps
    for t in (np.linspace(-200.0, 200.0, 3001), 0.0, -0.0):
        table, squares = hermite_functions(K, t), 0.0
        for k, ref in enumerate(_reference_hermite_rows(K, t)):
            assert _same_bits(table[k], ref), k
            squares = squares + ref * ref
        with np.errstate(divide="ignore", over="ignore"):
            assert _same_bits(christoffel(K, t), 1.0 / squares)


@pytest.mark.parametrize("K", [0, 1, 2, 24, 300, 1000])
def test_unscaled_route_gives_the_scaled_route_bits(K):
    # one point past UNSCALED_MAX appended sends the same points through the scaled
    # route; a subnormal point keeps a set on the scaled route
    T, rng = UNSCALED_MAX, np.random.default_rng(K)
    for t in (np.linspace(-T, T, 1001), rng.uniform(-T, T, 200),
              np.array([0.0, -0.0, T, -T, 1e-300, 2.0 ** -500]), np.array([5e-324, -1e-310, 1.0]),
              _hermite_zeros(64), _hermite_zeros(301), 3.7, rng.uniform(-T, T, (6, 7))):
        unscaled = hermite_functions(K, t)
        scaled = hermite_functions(K, np.append(t, 2.0 * T))[:, :-1].reshape(unscaled.shape)
        assert np.array_equal(unscaled.view(np.int64), scaled.view(np.int64))


def test_christoffel_split_at_unscaled_max_keeps_the_bits():
    t = np.concatenate([np.linspace(-60.0, 60.0, 241), _hermite_zeros(64)])
    for N in (5, 63, 400):
        with np.errstate(divide="ignore", over="ignore"):
            unsplit = 1.0 / sum(row * row for row in hermite_functions(N, t))
            assert np.array_equal(christoffel(N, t).view(np.int64), unsplit.view(np.int64))


def test_eval_grid_from_shared_tables_is_byte_equal():
    rng = np.random.default_rng(3)
    x, y = np.linspace(-6.0, 6.0, 41), np.linspace(-5.0, 7.0, 37)
    for axes in ([x], [x, x], [x, y]):
        f = random_spectral(len(axes), 9, rng, real=False)
        for extra in (0, 1, 7):
            got = f.eval_grid(axes, grid_tables(9 + extra, axes))
            assert got.tobytes() == f.eval_grid(axes).tobytes()


def test_grid_tables_build_one_table_per_axis_object(monkeypatch):
    import hermband.core as core
    built = []
    real = core.hermite_functions

    def counted(k_max, t):
        built.append(np.shape(t))
        return real(k_max, t)

    monkeypatch.setattr(core, "hermite_functions", counted)
    x = np.linspace(-3.0, 3.0, 11)
    tables = grid_tables(4, [x] * 3)
    assert built == [(11,)] and tables[0] is tables[2]
    grid_tables(4, [x, x.copy()])
    assert len(built) == 3


def per_point_tables(k_max, pts):
    """The Hermite table on every point of each column of an (m, dim) point array."""
    return [hermite_functions(k_max, pts[:, d]) for d in range(pts.shape[1])]


def per_point_values(f, pts):
    """f at each point, sum_xi c_xi prod_d h_{xi_d}(x_d), from the per-point tables."""
    idx = "abcdefgh"[:f.dim]
    spec = idx + "," + ",".join(i + "m" for i in idx) + "->m"
    return np.einsum(spec, f.array, *per_point_tables(f.max_degree, pts))


def _close(got, want):
    return np.max(np.abs(got - want), initial=0.0) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def _recording_tables(monkeypatch):
    """Record (t, table) for each Hermite table built in core while the patch holds."""
    import hermband.core as core
    built, real = [], core.hermite_functions

    def recorded(k_max, t):
        built.append((np.array(t, dtype=float), real(k_max, t)))
        return built[-1][1]

    monkeypatch.setattr(core, "hermite_functions", recorded)
    return built


# (m, dim) point sets: repeats in a column, unsorted columns, 0.0 next to -0.0,
# far-tail points that take the stand-in path, and columns without repeats
AXIS_TABLE_POINTS = {
    "tensor": tensor_points([np.linspace(-4.0, 4.0, 17), np.linspace(-3.0, 5.0, 9)]),
    "unsorted": np.random.default_rng(5).choice(np.linspace(-6.0, 6.0, 13), (200, 3)),
    "signed-zeros": np.array([[0.0, -0.0], [-0.0, 1.5], [0.0, -0.0], [-0.0, 0.0], [2.0, 1.5]]),
    "far-tail": np.array([[50.0, -3e9], [-3e9, 0.5], [50.0, 50.0], [0.5, -3e9], [-50.0, 50.0]]),
    "no-repeats": np.random.default_rng(6).standard_normal((40, 2)) * 5.0,
    "mixed": np.column_stack([np.linspace(-5.0, 5.0, 30), np.repeat([-1.0, -0.0, 2.0], 10)]),
}


@pytest.mark.parametrize("name", list(AXIS_TABLE_POINTS))
@pytest.mark.parametrize("K", [0, 24])
def test_axis_tables_are_the_per_point_tables_bit_for_bit(monkeypatch, name, K):
    # the per-axis tables eval_points contracts, built on a column's distinct
    # coordinates (a grid) or on the column itself, hold each point's own table
    pts = AXIS_TABLE_POINTS[name]
    f = random_spectral(pts.shape[1], K, np.random.default_rng(K), real=False)
    built = _recording_tables(monkeypatch)
    got = f.eval_points(pts)
    assert len(built) == pts.shape[1]
    for (t, table), want, col in zip(built, per_point_tables(K, pts), pts.T):
        where = {b: i for i, b in enumerate(t.view(np.int64).tolist())}
        at = [where[b] for b in np.ascontiguousarray(col).view(np.int64).tolist()]
        assert _same_bits(table[:, at], want) and table.flags.c_contiguous
    assert _close(got, per_point_values(f, pts))


def test_eval_points_on_a_tensor_grid_match_the_oracle_tables():
    # the norm box of a 2-D f at K = 24: 241^2 points, read off eval_grid on its axes
    axes = [np.linspace(-12.0, 12.0, 241)] * 2
    pts = tensor_points(axes)
    f = random_spectral(2, 24, np.random.default_rng(7), real=False)
    got = f.eval_points(pts)
    assert got.tobytes() == f.eval_grid(axes).ravel().tobytes()
    assert _close(got, per_point_values(f, pts))


@pytest.mark.parametrize("dim", [2, 3])
def test_eval_points_at_scattered_points_contract_them_one_by_one(monkeypatch, dim):
    # distinct coordinates spanning a grid of more than m points: no eval_grid
    pts = np.random.default_rng(10 + dim).standard_normal((300, dim)) * 3.0
    f = random_spectral(dim, 9, np.random.default_rng(dim), real=False)
    monkeypatch.setattr(SpectralFunction, "eval_grid", None)
    assert _close(f.eval_points(pts), per_point_values(f, pts))


def test_distinct_coordinates_keep_signed_zeros_apart():
    col = np.array([1.0, 0.0, -0.0, -2.0, 0.0, 1.0, -0.0])
    ax, inv = distinct_coordinates(col)
    assert ax.tolist() == [-2.0, 0.0, 0.0, 1.0] and np.signbit(ax).tolist() == [True, True, False, False]
    assert _same_bits(ax[inv], col)


def test_eval_points_on_a_grid_with_signed_zeros_keep_the_sign_of_odd_h_k(monkeypatch):
    import hermband.core as core
    built = []
    real = core.hermite_functions

    def recorded(k_max, t):
        built.append(real(k_max, t))
        return built[-1]

    x = np.array([-1.0, -0.0, 0.0, 1.0])
    pts = tensor_points([x, np.array([0.5, -0.0])])[::-1]
    f = basis_function((3, 1)).add(basis_function((1, 0)))
    monkeypatch.setattr(core, "hermite_functions", recorded)
    got = f.eval_points(pts)
    # the grid's x axis keeps both zeros, so its table holds h_1(-0.0) = -0.0 and h_1(0.0) = 0.0
    assert [t.shape for t in built] == [(5, 4), (5, 2)]
    assert np.signbit(built[0][1]).tolist() == [True, True, False, False]
    assert got.tobytes() == f.eval_grid([x, np.array([-0.0, 0.5])])[::-1].ravel().tobytes()
    assert np.max(np.abs(got - per_point_values(f, pts))) < 1e-15


def test_eval_points_on_a_gauss_hermite_grid_allocate_no_per_point_tables():
    import tracemalloc
    u, _ = gauss_hermite(40)
    pts = tensor_points([u] * 3)
    f = random_spectral(3, 12, np.random.default_rng(12))
    tracemalloc.start()
    vals = f.eval_points(pts)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # per point a 13 x 13 complex intermediate would be 86 MB
    assert vals.shape == (64_000,) and peak < 8e6, peak


def test_hermite_functions_on_no_points():
    assert hermite_functions(3, np.array([])).shape == (4, 0)
    assert hermite_functions(3, np.zeros((0, 2))).shape == (4, 0, 2)


def test_christoffel_on_no_points():
    assert christoffel(3, np.array([])).shape == (0,)


def test_eval_points_on_no_points(monkeypatch):
    f = random_spectral(2, 5, np.random.default_rng(8), real=False)
    built = _recording_tables(monkeypatch)
    vals = f.eval_points(np.zeros((0, 2)))
    assert vals.shape == (0,) and vals.dtype == complex
    assert [table.shape for _, table in built] == [(6, 0), (6, 0)]


@pytest.mark.parametrize("dim", [1, 3])
def test_eval_points_on_no_points_in_1d_and_3d(dim):
    vals = random_spectral(dim, 4, np.random.default_rng(dim)).eval_points(np.zeros((0, dim)))
    assert vals.shape == (0,) and vals.dtype == complex


def test_eval_grid_with_an_empty_axis():
    f = random_spectral(2, 5, np.random.default_rng(9), real=False)
    x = np.linspace(-2.0, 2.0, 7)
    assert f.eval_grid([np.array([]), x]).shape == (0, 7)
    assert f.eval_grid([x, np.array([])]).shape == (7, 0)


def test_christoffel_at_zero():
    assert christoffel(0, 0.0) == pytest.approx(math.sqrt(math.pi), abs=1e-13)


def test_qq_kernel_monotone_in_degree():
    for x in (0.0, 0.7, 2.5):
        prev = -1.0
        for N in range(0, 30, 3):
            cur = projector_kernel_sequence(N, x, x).sum()
            assert cur >= prev - 1e-15
            prev = cur


def test_christoffel_many_matches_scalar():
    ts = np.array([-2.0, 0.0, 1.5])
    many = christoffel(9, ts)
    for t, v in zip(ts, many):
        assert v == pytest.approx(christoffel(9, float(t)), rel=1e-13)


def test_christoffel_streamed_sum_is_the_table_sum():
    # oracle: the whole (N+1, len t) Hermite table, summed over k by einsum
    def oracle(N, t):
        h = hermite_functions(N, t)
        return 1.0 / np.einsum("k...,k...->...", h, h)

    for j in range(5):
        m = 2 * level_degree(j, TileConfig.delta_star)
        x = gauss_hermite(m)[0]
        assert np.array_equal(christoffel(m - 1, x), oracle(m - 1, x))
    xs = np.linspace(-1.5, 1.5, 801) * math.sqrt(4.0 * 64 + 2.0)   # the verify qq grid
    assert np.array_equal(christoffel(64, xs), oracle(64, xs))


def test_gauss_hermite_small_rules():
    # lifted weights tau_i = w_i e^{x_i^2}
    nodes, weights = gauss_hermite(1)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    nodes, weights = gauss_hermite(2)
    assert sorted(nodes) == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], rel=1e-13)
    assert list(weights) == pytest.approx([math.sqrt(math.pi) / 2.0 * math.exp(0.5)] * 2,
                                          rel=1e-13)


# the rule sizes 2 N_j of the 1-D levels j <= 5 (10 ... 4238), and small odd rules
RULE_SIZES = [2 * level_degree(j, TileConfig.delta_star) for j in range(6)] + [1, 3, 5, 11]


def _fresh_rule(q):
    """gauss_hermite(q) computed now, past the cache, so that its warnings show."""
    return gauss_hermite.__wrapped__(q)


def _newton_correction(q, x, dtype=np.longdouble):
    """h_q(x) / h_q'(x) in dtype at the double points x != 0: how far each x
    is from the zero of H_q that Newton would move it to."""
    x = np.asarray(x, dtype=dtype)
    two = dtype(2)
    r = np.sqrt(two) * x
    for k in range(2, q + 1):
        r = np.sqrt(two / k) * x - np.sqrt(dtype(k - 1) / k) / r
    return (r / (np.sqrt(two * q) - x * r)).astype(float)


def _zero_error(q, x, dtype=np.longdouble):
    """max over the nonzero nodes of |Newton correction| / max(1, |x|)."""
    x = x[x != 0]
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(_newton_correction(q, x, dtype)) / np.maximum(1.0, np.abs(x))))


_NO_WIDE_LONGDOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17,
                                         reason="long double is no wider than double here")


@_NO_WIDE_LONGDOUBLE
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", RULE_SIZES)
def test_gauss_hermite_nodes_are_zeros_to_round_off(q):
    nodes = _fresh_rule(q)[0]
    assert np.all(np.diff(nodes) > 0) and np.array_equal(nodes, -nodes[::-1])
    if q % 2:
        assert nodes[q // 2] == 0.0
    assert _zero_error(q, nodes) <= 4e-16


@_NO_WIDE_LONGDOUBLE
@pytest.mark.filterwarnings("error")
def test_scipy_asymptotic_nodes_fail_the_round_off_bound():
    # negative control: the bound above tells a few-ulp rule from a 1e-14 one
    from scipy.special import roots_hermite
    assert _zero_error(1064, roots_hermite(1064)[0]) > 4e-16


@pytest.mark.filterwarnings("error")
def test_gauss_hermite_against_scipy():
    from scipy.special import roots_hermite
    for q in RULE_SIZES + [16, 64, 128]:
        nodes, tau = _fresh_rule(q)
        want, w = roots_hermite(q)
        assert np.all(np.abs(nodes - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        if q <= 128:    # beyond, SciPy's Gauss weights underflow
            assert np.max(np.abs(tau * np.exp(-nodes ** 2) - w) / w) < 1e-10


@pytest.mark.filterwarnings("error")
def test_hermite_zeros_sweep_against_scipy():
    from scipy.special import roots_hermite
    for q in range(1, 301):
        nodes = _hermite_zeros(q)
        want = roots_hermite(q)[0]
        assert np.all(np.diff(nodes) > 0)
        assert np.all(np.abs(nodes - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.filterwarnings("error")
def test_hermite_zeros_level_6_size_finds_every_zero():
    # the 1-D level-6 rule, far past the sizes SciPy's nodes are compared at:
    # q distinct nodes, each a zero of H_q to far below the node spacing
    # (> 1e-2 here), so none went to a neighbouring zero and all q are found
    q = 2 * level_degree(6, TileConfig.delta_star)
    nodes = _hermite_zeros(q)
    assert nodes.size == q and np.all(np.diff(nodes) > 0)
    assert np.array_equal(nodes, -nodes[::-1])
    assert _zero_error(q, nodes, np.float64) <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [10, 72, 270])
def test_gauss_hermite_exact_to_degree_2q_minus_1(q):
    nodes, tau = _fresh_rule(q)
    h = hermite_functions(q, nodes)
    gram = (h * tau) @ h.T
    a, b = np.indices(gram.shape)
    inside = a + b <= 2 * q - 1
    assert np.max(np.abs(gram - np.eye(q + 1))[inside]) <= 1e-13
    # negative control: one degree past exactness, h_q vanishes at every node
    assert abs(gram[q, q]) <= 1e-13


@pytest.mark.parametrize("q", [400, 600])
def test_lifted_gauss_hermite_large_rules(q):
    # the raw Gauss weights underflow here, so only the lifted weights are finite
    val = lifted_gauss_hermite(lambda y: hermite_functions(0, y)[0] ** 2, q, 1)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_orthonormality_degree_100():
    gram = hermite_inner_products(100)
    err = np.max(np.abs(gram - np.eye(101)))
    assert err < 1e-10


def test_creation_operator_on_ground_state():
    f = basis_function((0,))
    g = apply_creation((1,), f)
    assert set(g.coeffs) == {(1,)}
    assert g.coeffs[(1,)] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_creation_zero_multiindex_is_identity():
    rng = np.random.default_rng(3)
    f = random_spectral(2, 5, rng, real=False)
    g = apply_creation((0, 0), f)
    assert g.sub(f).norm2() == 0.0


def test_creation_iterated_factor():
    # (A)^m h_0 = prod_r sqrt(2r+2) h_m
    m = 4
    f = basis_function((0,))
    g = apply_creation((m,), f)
    expect = math.prod(math.sqrt(2.0 * r + 2.0) for r in range(m))
    assert g.coeffs[(4,)] == pytest.approx(expect, rel=1e-14)


def test_hermite_derivative_identity():
    t = 0.7
    h = hermite_functions(2, t)
    expect = (math.sqrt(2.0) * h[0] - 2.0 * h[2]) / 2.0
    assert hermite_derivative_1d(1, t) == pytest.approx(expect, rel=1e-13)


def test_hermite_derivative_finite_difference():
    h = 1e-6
    for k in (0, 3, 10):
        for t in (-1.2, 0.4, 2.0):
            fd = (hermite_functions(k, t + h)[k] - hermite_functions(k, t - h)[k]) / (2.0 * h)
            assert hermite_derivative_1d(k, t) == pytest.approx(fd, abs=5e-8)


def test_finite_difference_basics():
    assert np.allclose(finite_difference(np.ones(6), 1), 0.0)
    k = np.arange(6, dtype=float)
    assert finite_difference(k * k, 2)[0] == pytest.approx(2.0)


def test_finite_difference_checks_the_differenced_axis():
    # differences run along the last axis, so its length must exceed the order
    with pytest.raises(ValueError):
        finite_difference(np.ones((3, 2)), 2)
    assert finite_difference(np.ones((2, 3)), 2).shape == (2, 1)


def test_finite_difference_leibniz():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(10)
    g = rng.standard_normal(10)
    lhs = finite_difference(f * g, 3)
    # Leibniz: D^3(fg)(k) = sum_r C(3,r) D^r f(k) D^{3-r} g(k+r)
    rhs = np.zeros(len(lhs))
    for i in range(len(lhs)):
        acc = 0.0
        for r in range(4):
            df = finite_difference(f, r)
            dg = finite_difference(g, 3 - r)
            acc += math.comb(3, r) * df[i] * dg[i + r]
        rhs[i] = acc
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_e_function_values():
    assert e_function(4.0, 0.0) == 1.0
    assert e_function(4.0, 3.0) == pytest.approx(math.exp(-9.0 * VARTHETA), rel=1e-14)


def test_e_function_polynomial_domination():
    # e_{eps 4^j}(x) <= C_beta (1+|x|/2^j)^{-beta} on a grid, per (j, beta)
    eps = _envelope_epsilon(TileConfig())
    xs = np.linspace(-30.0, 30.0, 1201)
    for j in range(0, 5):
        env = e_function(eps * 4.0 ** j, xs)
        for beta in (1.0, 3.0):
            bound = (1.0 + np.abs(xs) / 2.0 ** j) ** -beta
            assert np.max(env / bound) < 1e3
            assert math.isfinite(float(np.max(env / bound)))


def test_spectral_function_parseval_and_eval():
    rng = np.random.default_rng(7)
    f = random_spectral(1, 12, rng, real=True)
    # Parseval norm against quadrature
    nodes, weights = gauss_hermite(40)
    vals = np.real(f.eval_points(nodes[:, None]))
    quad = math.sqrt(float(np.sum(weights * vals ** 2)))
    assert f.norm2() == pytest.approx(quad, rel=1e-12)


def test_spectral_function_json_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    f = random_spectral(2, 4, rng, real=False)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json_dict(), indent=1))
    g = SpectralFunction.from_json_dict(json.loads(path.read_text()))
    assert g.dim == f.dim
    assert g.sub(f).norm2() == 0.0


def test_derivative_is_spectrally_exact():
    # d/dx h_k = (B - A)/2 applied through the ladder maps
    rng = np.random.default_rng(5)
    f = random_spectral(1, 8, rng, real=True)
    df = f.derivative(0)
    ts = np.linspace(-3.0, 3.0, 11)
    h = 1e-6
    approx = (np.real(f.eval_points((ts + h)[:, None]))
              - np.real(f.eval_points((ts - h)[:, None]))) / (2.0 * h)
    exact = np.real(df.eval_points(ts[:, None]))
    assert np.max(np.abs(exact - approx)) < 1e-8


@pytest.mark.parametrize("dim,K", [(1, 0), (1, 9), (2, 6), (3, 4)])
@pytest.mark.parametrize("real", [True, False])
def test_derivative_has_the_bits_of_the_ladder_form(dim, K, real):
    # the one-array derivative against (B_i f - A_i f)/2 built from the two ladder
    # maps, bit for bit, on every axis and twice over
    f = random_spectral(dim, K, np.random.default_rng(dim * 100 + K), real=real)
    for i in range(dim):
        got, want = f.derivative(i), ladder_derivative(f, i)
        assert got.max_degree == want.max_degree == K + 1
        assert np.array_equal(got.array.view(np.int64), want.array.view(np.int64))
        got, want = got.derivative(i), ladder_derivative(want, i)
        assert np.array_equal(got.array.view(np.int64), want.array.view(np.int64))


def test_hermite_operator_eigen_action():
    # (-Lap + |x|^2) h_xi = (2|xi| + n) h_xi via the ladder identities
    for xi in ((0,), (3,), (7,)):
        f = basis_function(xi)
        g = apply_hermite_operator(f)
        lam = 2 * sum(xi) + 1
        assert g.sub(f.scaled(lam)).norm2() < 1e-9


def test_hermite_operator_eigen_action_2d():
    f = basis_function((2, 3))
    g = apply_hermite_operator(f)
    assert g.sub(f.scaled(2 * 5 + 2)).norm2() < 1e-9
