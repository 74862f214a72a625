"""Hermite evaluation, quadrature, kernels and spectral-function algebra."""

import math

import numpy as np
import pytest

from hermband.core import (
    Constants,
    SpectralFunction,
    apply_creation,
    basis_function,
    christoffel,
    christoffel_many,
    e_function,
    finite_difference,
    gauss_hermite,
    hermite_derivative_1d,
    hermite_functions,
    hermite_inner_products,
    projector_kernel,
    qq_kernel,
    random_spectral,
)


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


def _poly_oracle(k_max, t):
    from hermband.core import hermite_polys_orthonormal
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
    many = christoffel_many(9, ts)
    for t, v in zip(ts, many):
        assert v == pytest.approx(christoffel(9, float(t)), rel=1e-13)


def test_gauss_hermite_small_rules():
    nodes, weights = gauss_hermite(1)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    nodes, weights = gauss_hermite(2)
    assert sorted(nodes) == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], rel=1e-13)
    assert list(weights) == pytest.approx([math.sqrt(math.pi) / 2.0] * 2, rel=1e-13)


def test_gauss_hermite_against_scipy():
    from scipy.special import roots_hermite
    for q in (16, 64, 128):
        n1, w1 = gauss_hermite(q)
        n2, w2 = roots_hermite(q)
        order = np.argsort(n1)
        assert np.max(np.abs(np.sort(n1) - n2)) < 1e-11
        assert np.max(np.abs(w1[order] - w2) / w2) < 1e-10


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
    quad = math.sqrt(float(np.sum(weights * np.exp(nodes ** 2) * vals ** 2)))
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
