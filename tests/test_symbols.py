"""Pseudo-multiplier symbols: application, projection, class checkers."""

import json
import math
from functools import partial

import numpy as np
import pytest

from hermband import symbols
from hermband.core import SpectralFunction, multi_indices, random_spectral, tensor_points
from hermband.frames import needlet
from hermband.lp import apply_lp
from hermband.symbols import (
    annulus_symbol,
    apply_pseudomultiplier,
    band_sum_symbol,
    compile_expression,
    hermite_multiplier,
    linearize_nonlinearity,
    nonlinearity_power,
    pointwise_symbol,
    reproject,
    separable_symbol,
    symbol_from_descriptor,
)

from hermband.tiles import build_level

from oracles import (apply_by_degree, basis_function, check_cancellation_class,
                     check_symbol_class, one_point_grids, oscillating_symbol,
                     richardson_x_derivative, spectral_function, symbol_table, x_derivative)


def test_identity_symbol_is_identity():
    rng = np.random.default_rng(0)
    f = random_spectral(1, 10, rng, real=True)
    x = np.linspace(-4, 4, 21)
    pts = x[:, None]
    out = apply_pseudomultiplier(hermite_multiplier(lambda xi: 1.0, 1), f, [x]).samples
    assert np.max(np.abs(out - f.eval_points(pts))) < 1e-12


def test_eigenvalue_multiplier_applies_operator():
    # sigma(x, xi) = xi acts as the operator on eigenfunctions
    sig = hermite_multiplier(lambda xi: xi, 1)
    f = basis_function((0,))
    x = np.linspace(-3, 3, 13)
    pts = x[:, None]
    out = apply_pseudomultiplier(sig, f, [x]).samples
    assert np.max(np.abs(out - 1.0 * f.eval_points(pts))) < 1e-13


def test_band_multiplier_matches_projection(sys):
    rng = np.random.default_rng(1)
    f = random_spectral(1, 15, rng, real=True)
    j = 2
    sig = hermite_multiplier(lambda xi: float(sys.window(j, math.sqrt(xi))), 1)
    x = np.linspace(-5, 5, 41)
    pts = x[:, None]
    out = apply_pseudomultiplier(sig, f, [x]).samples
    expect = apply_lp(sys, j, f).eval_points(pts)
    assert np.max(np.abs(out - expect)) < 1e-10


def test_apply_on_grid_returns_grid_function():
    axes = [np.linspace(-3, 3, 17)]
    sig = hermite_multiplier(lambda xi: 1.0, 1)
    g = apply_pseudomultiplier(sig, basis_function((0,)), axes=axes)
    vals = basis_function((0,)).eval_points(axes[0][:, None])
    assert np.max(np.abs(g.samples - vals)) < 1e-13


@pytest.mark.parametrize("gamma", [(1, 0), (0, 1)])
def test_apply_derivative_matches_central_differences_2d(sys, gamma):
    # the Leibniz path: an x-dependent symbol (exact x-derivatives) and a
    # complex f, against central differences of T_sigma f
    rng = np.random.default_rng(6)
    f = random_spectral(2, 6, rng, real=False)
    sig = band_sum_symbol(sys, 2)
    axes = [np.linspace(-2.0, 2.0, 9), np.linspace(-1.5, 2.5, 7)]
    got = apply_pseudomultiplier(sig, f, axes, gamma).samples
    h = 1e-5

    def shifted(step):
        return apply_pseudomultiplier(sig, f, [a + step * g for a, g in zip(axes, gamma)]).samples

    fd = (shifted(h) - shifted(-h)) / (2.0 * h)
    assert np.max(np.abs(got - fd)) < 1e-7 * np.max(np.abs(got))


def test_reproject_recovers_eigenfunction():
    h5 = basis_function((5,))
    fK, resid = reproject(h5.eval_grid, 1, 10)
    # the residual estimate subtracts two near-equal sums, so its floor is
    # about sqrt(machine epsilon)
    assert resid < 1e-6
    assert fK.sub(h5).norm2() < 1e-10


def test_reproject_multiplier_output_exact():
    rng = np.random.default_rng(2)
    f = random_spectral(1, 8, rng, real=True)
    sig = hermite_multiplier(lambda xi: 1.0 / (1.0 + xi), 1)
    fK, resid = reproject(lambda axes: apply_pseudomultiplier(sig, f, axes).samples, 1, 8)
    assert resid < 1e-6
    expect_coeffs = {xi: c / (1.0 + (2 * xi[0] + 1)) for xi, c in f.coeffs.items()}
    expect = spectral_function(1, 8, expect_coeffs)
    assert fK.sub(expect).norm2() < 1e-10


@pytest.mark.parametrize("eps", [1e-6, 1e-7])
def test_reproject_residual_of_a_small_tail(eps):
    # g = h_0 + eps h_9 on V_8 leaves eps h_9: relative residual eps / sqrt(1 + eps^2)
    coeffs = np.zeros(10)
    coeffs[0], coeffs[9] = 1.0, eps
    g = SpectralFunction(1, 9, coeffs)
    fK, resid = reproject(g.eval_grid, 1, 8)
    assert resid == pytest.approx(eps / math.sqrt(1.0 + eps * eps), rel=1e-9)


def test_reproject_zero():
    fK, resid = reproject(lambda axes: np.zeros(len(axes[0])), 1, 6)
    assert resid == 0.0
    assert fK.norm2() == 0.0


def test_symbol_class_identity_flat():
    sig = hermite_multiplier(lambda xi: 1.0, 1)
    x = np.linspace(-6, 6, 41)[None, :].T
    consts = check_symbol_class(sig, 0.0, 1.0, 0.0, K_fd=2, N_der=2, x_grid=x)
    # sup |sigma| = 1, every derivative and difference vanishes
    assert consts[((0,), 0)] == pytest.approx(1.0, abs=1e-12)
    for key, c in consts.items():
        if key != ((0,), 0):
            assert c < 1e-8


def test_symbol_class_separable_finite():
    sig = separable_symbol(1)
    x = np.linspace(-4, 4, 33)[:, None]
    consts = check_symbol_class(sig, 0.0, 1.0, 0.0, K_fd=2, N_der=2, x_grid=x)
    for c in consts.values():
        assert math.isfinite(c)


def test_symbol_class_oscillation_grows():
    # e^{i v x}: first x-derivative constant scales with |v|
    x = np.linspace(-3, 3, 25)[:, None]
    c_slow = check_symbol_class(oscillating_symbol(2.0), 0.0, 1.0, 0.0, 1, 1, x)
    c_fast = check_symbol_class(oscillating_symbol(40.0), 0.0, 1.0, 0.0, 1, 1, x)
    assert c_fast[((1,), 0)] > 10.0 * c_slow[((1,), 0)]


def test_symbol_class_growth_weight(sys):
    # band-sum with beta = 1 grows like 1 + |x| / (1 + sqrt(xi)): weighted by that
    # growth its size constant stays 1 as the x-range widens, unweighted it grows with it
    sig = band_sum_symbol(sys, 1, beta=1.0)

    def growth(pts, xi):
        return 1.0 + np.divide.outer(np.abs(pts[:, 0]), 1.0 + np.sqrt(xi))

    for R in (8.0, 64.0):
        x = np.linspace(-R, R, 41)[:, None]
        weighted = check_symbol_class(sig, 0.0, 1.0, 0.0, 0, 0, x, growth)[((0,), 0)]
        assert weighted == pytest.approx(1.0, rel=1e-2)
        assert check_symbol_class(sig, 0.0, 1.0, 0.0, 0, 0, x)[((0,), 0)] > 0.9 * R


def test_cancellation_x_independent():
    sig = hermite_multiplier(lambda xi: 2.0, 1)
    pts = np.array([[0.0], [1.0], [-2.0]])
    consts = check_cancellation_class(sig, 0.0, 2, pts)
    assert consts[(0,)] == pytest.approx(2.0, rel=1e-10)
    for gamma, c in consts.items():
        if sum(gamma) > 0:
            assert c < 1e-6


def test_cancellation_annulus_finite():
    sig = annulus_symbol(1, 6)
    pts = np.array([[0.0], [2.0]])
    consts = check_cancellation_class(sig, 0.0, 1, pts, xi_samples=(0, 1, 4))
    for c in consts.values():
        assert math.isfinite(c)


def test_contraction_multiplier_bounded():
    # |sigma| <= 1 implies ||T f||_2 <= ||f||_2 (Parseval)
    rng = np.random.default_rng(3)
    f = random_spectral(1, 12, rng, real=True)
    sig = hermite_multiplier(lambda xi: xi / (1.0 + xi), 1)
    fK, resid = reproject(lambda axes: apply_pseudomultiplier(sig, f, axes).samples, 1, 12)
    assert resid < 1e-6
    assert fK.norm2() <= f.norm2() * (1.0 + 1e-12)


def test_linearize_identity_nonlinearity(sys):
    rng = np.random.default_rng(4)
    f = random_spectral(1, 8, rng, real=True)
    H = nonlinearity_power(1)
    J = sys.coverage_level(2.0 * 8 + 1)
    sig = linearize_nonlinearity(H, f, sys, J)
    x = np.linspace(-4, 4, 21)
    pts = x[:, None]
    out = apply_pseudomultiplier(sig, f, [x]).samples
    assert np.max(np.abs(out - f.eval_points(pts))) < 1e-12


def test_linearize_square_reproduces_h_of_f(sys):
    rng = np.random.default_rng(5)
    f = random_spectral(1, 6, rng, real=True)
    H = nonlinearity_power(2)
    J = sys.coverage_level(2.0 * 6 + 1)
    sig = linearize_nonlinearity(H, f, sys, J)
    x = np.linspace(-4, 4, 33)
    pts = x[:, None]
    out = np.real(apply_pseudomultiplier(sig, f, [x]).samples)
    expect = np.real(f.eval_points(pts)) ** 2
    assert np.max(np.abs(out - expect)) < 1e-6


def test_linearize_rejects_nonvanishing_at_zero(sys):
    from hermband.symbols import Nonlinearity
    H = Nonlinearity(lambda u: u + 1.0, lambda u: np.ones_like(u), lambda u: np.zeros_like(u))
    f = basis_function((0,))
    with pytest.raises(ValueError):
        linearize_nonlinearity(H, f, sys, 3)


def test_linearize_rejects_negative_levels(sys):
    with pytest.raises(ValueError):
        linearize_nonlinearity(nonlinearity_power(2), basis_function((1,)), sys, -1)


def test_linearize_rejects_complex(sys):
    rng = np.random.default_rng(6)
    f = random_spectral(1, 4, rng, real=False)
    with pytest.raises(ValueError):
        linearize_nonlinearity(nonlinearity_power(2), f, sys, 3)


def test_compile_expression_basic():
    ev = compile_expression("exp(-xi) * (1 + x1**2)", 1)
    pts = np.array([[2.0], [0.0]])
    xi = np.array([1.0, 3.0])
    expect = np.outer([5.0, 1.0], np.exp(-xi))
    table = np.concatenate([ev(axes, xi) for axes in one_point_grids(pts)])
    assert table.shape == (2, 2)
    assert np.allclose(table, expect, rtol=1e-14, atol=0.0)


def test_compile_expression_rejects_calls():
    [origin] = one_point_grids(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        compile_expression("__import__('os')", 1)(origin, 0.0)
    with pytest.raises(ValueError):
        compile_expression("open('x')", 1)(origin, 0.0)


def test_symbol_descriptor_roundtrip(sys):
    d = {"kind": "custom-expression", "dim": 1, "expression": "exp(-xi/8) * cos(x1)"}
    sig = symbol_from_descriptor(json.loads(json.dumps(d)), sys)
    pts = np.array([[0.5]])
    direct = math.exp(-2.0 / 8.0) * math.cos(0.5)
    assert complex(symbol_table(sig, pts, np.array([2.0]), (0,))[0, 0]) \
        == pytest.approx(direct, rel=1e-14)


def test_symbol_descriptor_kinds(sys):
    for d in ({"kind": "separable"}, {"kind": "annulus"},
              {"kind": "band-sum"}, {"kind": "multiplier", "expression": "1/(1+xi)"}):
        sig = symbol_from_descriptor(d, sys)
        val = symbol_table(sig, np.zeros((1, 1)), np.array([3.0]), (0,))
        assert np.all(np.isfinite(np.abs(val)))
    with pytest.raises(ValueError):
        symbol_from_descriptor({"kind": "nope"})


def test_numeric_x_derivative_matches_analytic():
    # sin(x) e^{-xi}: compare the oracle's Richardson FD against the exact derivative
    sig = pointwise_symbol(lambda axes, xi: np.sin(axes[0])[:, None] * np.exp(-xi), 1)
    pts = np.array([[0.3], [1.1]])
    xi = np.array([0.0, 2.0, 5.0])
    got = np.real(x_derivative(sig, pts, xi, (1,)))
    expect = np.cos(pts) * np.exp(-xi)
    assert got.shape == (2, 3)
    assert np.max(np.abs(got - expect)) < 1e-8


SYMBOL_KINDS = {
    "multiplier": lambda sys: symbol_from_descriptor(
        {"kind": "multiplier", "expression": "1/(1+xi)"}),
    "separable": lambda sys: separable_symbol(1),
    "band-sum": lambda sys: band_sum_symbol(sys, 1),
    "annulus": lambda sys: annulus_symbol(1, 6),
    "oscillating": lambda sys: oscillating_symbol(3.0),
    "expression": lambda sys: symbol_from_descriptor(
        {"kind": "custom-expression", "expression": "exp(-xi/8)*cos(x1)"}),
    "linearized": lambda sys: linearize_nonlinearity(
        nonlinearity_power(2), random_spectral(1, 6, np.random.default_rng(7), real=True), sys,
        sys.coverage_level(13.0)),
}


@pytest.mark.parametrize("kind", list(SYMBOL_KINDS))
def test_symbol_table_columns_match_scalar_calls(sys, kind):
    # each column of the table is the one-column table of its xi alone; a
    # derivative the symbol does not supply comes from the oracle's differences
    sig = SYMBOL_KINDS[kind](sys)
    pts = np.linspace(-3.0, 3.0, 7)[:, None]
    lams = 2.0 * np.arange(12) + 1.0
    for nu in ((0,), (1,), (2,)):
        table = x_derivative(sig, pts, lams, nu)
        assert table.shape == (7, 12)
        for i in range(lams.size):
            assert np.array_equal(table[:, i:i + 1], x_derivative(sig, pts, lams[i:i + 1], nu))
    table = symbol_table(sig, pts, lams, (0,))
    for i in range(lams.size):
        assert np.array_equal(table[:, i:i + 1], symbol_table(sig, pts, lams[i:i + 1], (0,)))


RADIAL_SYMBOLS = {
    "band-sum-beta-1": lambda sys, dim: band_sum_symbol(sys, dim, beta=-1.0),
    "band-sum-beta+1": lambda sys, dim: band_sum_symbol(sys, dim, beta=1.0),
    "separable": lambda sys, dim: separable_symbol(dim),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", list(RADIAL_SYMBOLS))
def test_exact_x_derivatives_match_richardson(sys, kind, dim):
    # every nu with 0 < |nu| <= 2 is supplied (symbol_table raises no ValueError),
    # and each table is the oracle's Richardson difference of the exact table one
    # order lower
    sig = RADIAL_SYMBOLS[kind](sys, dim)
    rng = np.random.default_rng(dim)
    # inside and around the separable bump's support |x| < 2, and far out
    pts = np.concatenate([rng.uniform(-2.2, 2.2, (40, dim)), rng.uniform(-20.0, 20.0, (8, dim))])
    lams = 2.0 * np.arange(0, 40, 3) + dim
    for nu in multi_indices(dim, 2):
        if sum(nu) == 0:
            continue
        exact = np.real(symbol_table(sig, pts, lams, nu))
        fd = np.real(richardson_x_derivative(sig, pts, lams, nu))
        assert np.max(np.abs(exact)) > 0.0
        assert np.max(np.abs(exact - fd)) <= 1e-9 * np.max(np.abs(exact)), nu


def test_x_derivative_refuses_a_nu_the_symbol_does_not_supply():
    pts = np.zeros((1, 1))
    with pytest.raises(ValueError, match=r"\(1,\)"):
        symbol_table(annulus_symbol(1, 6), pts, np.array([1.0]), (1,))


@pytest.mark.parametrize("kind", list(SYMBOL_KINDS))
def test_apply_matches_the_per_degree_reference_1d(sys, kind):
    # the one apply path against the per-degree loop on the symbol's table, for
    # each gamma <= 2 whose d^beta the symbol supplies; a pointwise symbol's
    # terms are the degree parts themselves, so it agrees bit for bit
    sig = SYMBOL_KINDS[kind](sys)
    f = random_spectral(1, 10, np.random.default_rng(8), real=False)
    axes = [np.linspace(-4.0, 4.0, 33)]
    for gamma in ((0,), (1,), (2,)):
        try:
            got = apply_pseudomultiplier(sig, f, axes, gamma).samples
        except ValueError:
            with pytest.raises(ValueError):
                apply_by_degree(partial(symbol_table, sig), f, axes, gamma)
            continue
        ref = apply_by_degree(partial(symbol_table, sig), f, axes, gamma).samples
        if kind in ("expression", "oscillating"):
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), gamma


SYMBOL_KINDS_2D = {
    "band-sum": lambda sys: band_sum_symbol(sys, 2),
    "separable": lambda sys: separable_symbol(2),
    "multiplier": lambda sys: symbol_from_descriptor(
        {"kind": "multiplier", "dim": 2, "expression": "1/(1+xi)"}),
    "annulus": lambda sys: annulus_symbol(2, 6),
    "expression": lambda sys: symbol_from_descriptor(
        {"kind": "custom-expression", "dim": 2, "expression": "exp(-xi/8)*cos(x1-absx*x2)"}),
    "linearized": lambda sys: linearize_nonlinearity(
        nonlinearity_power(2), random_spectral(2, 4, np.random.default_rng(10), real=True), sys,
        sys.coverage_level(10.0)),
}


@pytest.mark.parametrize("kind", list(SYMBOL_KINDS_2D))
def test_apply_matches_the_per_degree_reference_2d(sys, kind):
    # as in 1-D: every |gamma| <= 2 whose d^beta the symbol supplies, both paths
    # raising ValueError otherwise
    sig = SYMBOL_KINDS_2D[kind](sys)
    f = random_spectral(2, 6, np.random.default_rng(9), real=False)
    axes = [np.linspace(-3.0, 3.0, 13), np.linspace(-2.5, 3.5, 11)]
    for gamma in multi_indices(2, 2):
        try:
            got = apply_pseudomultiplier(sig, f, axes, gamma).samples
        except ValueError:
            with pytest.raises(ValueError):
                apply_by_degree(partial(symbol_table, sig), f, axes, gamma)
            continue
        ref = apply_by_degree(partial(symbol_table, sig), f, axes, gamma).samples
        if kind == "expression":
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), gamma


GRID_FACTOR_CASES = [("kinds", kind, 1) for kind in SYMBOL_KINDS] \
    + [("radial", kind, dim) for kind in RADIAL_SYMBOLS for dim in (1, 2, 3)]


@pytest.mark.parametrize("family,kind,dim", GRID_FACTOR_CASES,
                         ids=["-".join(map(str, c)) for c in GRID_FACTOR_CASES])
def test_grid_factors_are_the_one_point_factors_bit_for_bit(sys, family, kind, dim):
    # each x-factor on a grid, read at a grid point, is the factor of that point
    # as a one-point grid, for every nu with |nu| <= 2 the symbol supplies; the
    # windows do not depend on the points
    sig = SYMBOL_KINDS[kind](sys) if family == "kinds" else RADIAL_SYMBOLS[kind](sys, dim)
    axes = [np.array([-20.0, -1.5, -0.0, 0.7, 1.9, 3.0])[d:] for d in range(dim)]
    shape = tuple(a.size for a in axes)
    lams = 2.0 * np.arange(12) + dim
    W, factors = sig.evaluator(axes, lams)
    live = list(range(len(W)))
    supplied = {}
    for nu in multi_indices(dim, 2):
        try:
            supplied[nu] = [np.broadcast_to(g, shape).ravel() for g in factors(nu, live)]
        except ValueError:
            pass
    assert (0,) * dim in supplied
    for i, point in enumerate(one_point_grids(tensor_points(axes))):
        W1, factors1 = sig.evaluator(point, lams)
        assert np.array_equal(W1, W)
        for nu, grid in supplied.items():
            one = [np.ravel(g)[0] for g in factors1(nu, live)]
            assert np.array_equal([g[i] for g in grid], one), (nu, i)


def test_apply_skips_the_terms_whose_window_vanishes(sys, cfg, monkeypatch):
    # a level-2 needlet's degrees meet only the windows phi_j with j near 2: the
    # band-sum profile is evaluated for those j alone, not for all nine
    radial = symbols.radial_symbol
    called = set()

    def spied(dim, profile, windows):
        def spy(t, r2, order):
            called.add(t)
            return profile(t, r2, order)
        return radial(dim, spy, windows)

    monkeypatch.setattr(symbols, "radial_symbol", spied)
    ts = build_level(2, cfg)
    phi_R = needlet(sys, ts.tile((ts.nodes_per_axis // 2,)))
    ks = np.unique(phi_R.degrees[phi_R.array != 0])
    u = np.sqrt(2.0 * ks + 1.0)
    nonzero = {j for j in range(9) if np.any(sys.window(j, u) != 0)}
    assert 0 < len(nonzero) < 9
    apply_pseudomultiplier(band_sum_symbol(sys, 1), phi_R, [np.linspace(-4.0, 4.0, 9)], (1,))
    assert called == nonzero
