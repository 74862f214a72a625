"""Hermite evaluation, quadrature, kernels and spectral-function algebra."""

import math

import numpy as np
import pytest

from hermband.core import (
    Constants,
    SpectralFunction,
    _hermite_zeros,
    apply_creation,
    basis_function,
    christoffel,
    e_function,
    finite_difference,
    gauss_hermite,
    hermite_derivative_1d,
    hermite_functions,
    hermite_inner_products,
    lifted_gauss_hermite,
    projector_kernel,
    qq_kernel,
    random_spectral,
)
from hermband.tiles import level_degree


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


def test_eval_hermite_nd_product_structure():
    def h(xi, x):
        return basis_function(xi).eval_points([x])[0]

    assert h((0, 0), (0.0, 0.0)) == pytest.approx(math.pi ** -0.5, abs=1e-14)
    for y in (-1.3, 0.0, 2.2):
        assert h((1, 0), (0.0, y)) == 0.0
    expect = hermite_functions(2, 0.3)[2] * hermite_functions(1, -0.7)[1]
    assert h((2, 1), (0.3, -0.7)) == pytest.approx(expect, abs=1e-14)


def test_projector_kernel_1d_factorization():
    assert projector_kernel(0, 0.0, 0.0, 1) == pytest.approx(math.pi ** -0.5, abs=1e-14)
    expect = hermite_functions(3, 0.5)[3] * hermite_functions(3, -0.2)[3]
    assert projector_kernel(3, 0.5, -0.2, 1) == pytest.approx(expect, abs=1e-13)


def test_projector_kernel_2d_odd_vanishing():
    assert projector_kernel(1, (0.0, 0.0), (1.0, 1.0), 2) == pytest.approx(0.0, abs=1e-15)


def test_projector_kernel_2d_sum_over_multiindices():
    x, y = (0.4, -0.3), (0.1, 0.9)
    k = 3
    acc = 0.0
    for a in range(k + 1):
        b = k - a
        acc += (hermite_functions(a, x[0])[a] * hermite_functions(b, x[1])[b]
                * hermite_functions(a, y[0])[a] * hermite_functions(b, y[1])[b])
    assert projector_kernel(k, x, y, 2) == pytest.approx(acc, abs=1e-13)


def test_christoffel_at_zero():
    assert christoffel(0, 0.0) == pytest.approx(math.sqrt(math.pi), abs=1e-13)


def test_qq_kernel_monotone_in_degree():
    for x in (0.0, 0.7, 2.5):
        prev = -1.0
        for N in range(0, 30, 3):
            cur = qq_kernel(N, x, x, 1)
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
        m = 2 * level_degree(j)
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
RULE_SIZES = [2 * level_degree(j) for j in range(6)] + [1, 3, 5, 11]


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
    q = 2 * level_degree(6)
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
    f = random_spectral(2, 5, rng)
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
    c = Constants(vartheta=1.0)
    assert e_function(4.0, 3.0, c) == pytest.approx(math.exp(-9.0), rel=1e-14)


def test_e_function_polynomial_domination():
    # e_{eps 4^j}(x) <= C_beta (1+|x|/2^j)^{-beta} on a grid, per (j, beta)
    c = Constants()
    xs = np.linspace(-30.0, 30.0, 1201)
    for j in range(0, 5):
        env = e_function(c.epsilon * 4.0 ** j, xs, c)
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
    f = random_spectral(2, 4, rng)
    path = tmp_path / "f.json"
    f.save(path)
    g = SpectralFunction.load(path)
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


def test_hermite_operator_eigen_action():
    # (-Lap + |x|^2) h_xi = (2|xi| + n) h_xi via the ladder identities
    for xi in ((0,), (3,), (7,)):
        f = basis_function(xi)
        g = f.apply_hermite_operator()
        lam = 2 * sum(xi) + 1
        assert g.sub(f.scaled(lam)).norm2() < 1e-9


def test_hermite_operator_eigen_action_2d():
    f = basis_function((2, 3))
    g = f.apply_hermite_operator()
    assert g.sub(f.scaled(2 * 5 + 2)).norm2() < 1e-9
