"""Spectral windows: admissibility, partition, band projections, moments."""

import dataclasses
import math

import numpy as np
import pytest

from hermband.core import basis_function, hermite_functions, random_spectral
from hermband.frames import inner_product_quadrature
from hermband.lp import (
    SmoothProfile,
    apply_lp,
    bump_system,
    check_admissible,
    default_system,
    hoppe_check,
    lp_delta,
    lp_kernel,
    smoothstep,
    spectral_window,
    support_set,
)


@pytest.fixture(scope="module")
def sys():
    return default_system()


def test_smoothstep_endpoints():
    assert smoothstep(np.array([-1.0, 0.0]))[0] == 0.0
    assert smoothstep(np.array([1.0, 2.0]))[1] == 1.0
    mid = float(smoothstep(np.array([0.5]))[0])
    assert 0.0 < mid < 1.0


def test_phi0_plateau_and_support(sys):
    assert float(sys.phi0(np.array([0.25]))[0]) == pytest.approx(1.0, abs=1e-15)
    assert float(sys.phi0(np.array([0.8]))[0]) == pytest.approx(0.0, abs=1e-15)


def test_phi_plateau(sys):
    # phi = phi0(u) - phi0(2u) is 1 on [3/8, 1/2]
    assert float(sys.phi(np.array([0.45]))[0]) == pytest.approx(1.0, abs=1e-15)


def test_reproducing_pointwise(sys):
    lam = 7.3
    acc = sum(float(np.ravel(sys.window(j, math.sqrt(lam))
                             * sys.dual_window(j, math.sqrt(lam)))[0])
              for j in range(7))
    assert acc == pytest.approx(1.0, abs=1e-12)


def test_bump_system_validation():
    with pytest.raises(ValueError):
        bump_system(0.4, 0.75)          # plateau below 1/2
    with pytest.raises(ValueError):
        bump_system(0.5, 1.25)          # support beyond 1
    with pytest.raises(ValueError):
        bump_system(0.5, 1.01 * 2 * 0.5 + 0.01)


def test_check_admissible_default(sys):
    report = check_admissible(sys)
    assert report["pass"]
    assert report["reproducing"]["max_error"] < 1e-12


def test_check_admissible_bad_support(sys):
    # a band profile living on [0.1, 1] starts below the required 1/4
    bad_phi = SmoothProfile(
        lambda u: smoothstep((u - 0.1) / 0.2) * smoothstep((1.0 - u) / 0.2),
        support=(0.1, 1.0))
    bad = dataclasses.replace(sys, phi=bad_phi)
    report = check_admissible(bad)
    assert not report["phi_support"]["pass"]
    assert not report["pass"]


def test_check_admissible_not_flat_at_zero(sys):
    decay = SmoothProfile(
        lambda u: np.exp(-np.abs(u)) * (np.abs(u) <= 0.75),
        support=(0.0, 0.75))
    bad = dataclasses.replace(sys, phi0=decay)
    report = check_admissible(bad)
    assert not report["phi0_flat_at_zero"]["pass"]
    assert not report["pass"]


def test_spectral_window_j0_vanishes_above_support(sys):
    for k in range(1, 12):
        assert spectral_window(sys, 0, k, 1) == 0.0


def test_spectral_window_plateau_value(sys):
    # lambda = 4 at j = 2: phi(sqrt(4)/4) = phi(1/2) = 1
    n = 2
    k = 1           # lambda = 2*1 + 2 = 4
    assert spectral_window(sys, 2, k, n) == pytest.approx(1.0, abs=1e-15)


def test_window_sum_partition(sys):
    K = 40
    lam = 2.0 * np.arange(K + 1) + 1.0
    J = sys.coverage_level(lam[-1])
    total = sys.window_sum(np.sqrt(lam), J)
    assert np.max(np.abs(total - 1.0)) < 1e-13


def test_support_set_consistency(sys):
    for j in range(5):
        ks = support_set(sys, j, 1)
        inside = set(ks)
        for k in range(80):
            w = spectral_window(sys, j, k, 1)
            if abs(w) > 1e-13:
                assert k in inside


def test_lp_kernel_j0_closed_form(sys):
    x, y = 0.3, -0.8
    expect = float(sys.window(0, 1.0)) * hermite_functions(0, x)[0] * hermite_functions(0, y)[0]
    assert lp_kernel(sys, 0, x, y, 1) == pytest.approx(expect, abs=1e-14)


def test_lp_kernel_reproduces_windowed_basis(sys):
    # integral of lp_kernel(j, x, .) h_xi = phi_j(sqrt(lambda)) h_xi(x)
    x = 0.4
    for j in (1, 2):
        col = lp_delta(sys, j, np.array([x]), 1)
        for k in (0, 2, 5):
            val = inner_product_quadrature(col, basis_function((k,)))
            expect = spectral_window(sys, j, k, 1) * hermite_functions(k, x)[k]
            assert abs(val - expect) < 1e-9


def test_apply_lp_eigen_action(sys):
    f = basis_function((0,))
    g = apply_lp(sys, 0, f)
    w = spectral_window(sys, 0, 0, 1)
    assert g.sub(f.scaled(w)).norm2() < 1e-15


def test_apply_lp_partition_reconstructs(sys):
    rng = np.random.default_rng(2)
    f = random_spectral(1, 12, rng, real=True)
    J = sys.coverage_level(2.0 * 12 + 1)
    total = None
    for j in range(J + 1):
        part = apply_lp(sys, j, f)
        total = part if total is None else total.add(part)
    assert total.sub(f).norm2() < 1e-13


def test_apply_lp_zero(sys):
    from hermband.core import SpectralFunction
    z = SpectralFunction(1, 0, {})
    assert apply_lp(sys, 2, z).norm2() == 0.0


def lp_moment(sys, j, x, gamma, n):
    """integral of (x - y)^gamma phi_j(sqrt(L))(x, y) dy, as verify_kernel
    takes it: (-1)^|gamma| times the exact moment of the kernel column about x."""
    return (-1) ** sum(gamma) * lp_delta(sys, j, x, n).moment(x, gamma)


def test_lp_moment_odd_gamma_parity(sys):
    for j in (1, 2):
        assert abs(lp_moment(sys, j, np.zeros(1), (1,), 1)) < 1e-12
        assert abs(lp_moment(sys, j, np.zeros(1), (3,), 1)) < 1e-12


def test_lp_moment_against_quadrature_oracle(sys):
    from hermband.core import gauss_hermite
    j, x = 2, 0.7
    col = lp_delta(sys, j, np.array([x]), 1)
    u, tau = gauss_hermite(80)
    y = math.sqrt(2.0) * u
    vals = np.real(col.eval_points(y[:, None]))
    for gamma in ((0,), (1,), (2,)):
        oracle = math.sqrt(2.0) * float(np.sum(tau * (x - y) ** gamma[0] * vals))
        assert lp_moment(sys, j, np.array([x]), gamma, 1) == pytest.approx(oracle, abs=1e-10)


def test_hoppe_ratios_bounded(sys):
    worst = 0.0
    for j in (1, 2, 3):
        for ell in (1, 2):
            for k in support_set(sys, j, 1)[:4]:
                worst = max(worst, hoppe_check(sys, ell, ell + 1, j, k, 1))
    assert worst < 1.0


def test_dual_window_formula(sys):
    # psi(u) = phi(u) / D(2u) with D = sum of squared dilates
    u = 0.6
    dil = np.array([2.0 * u * 2.0 ** -j for j in range(-10, 11)])
    D = float(np.sum(sys.phi(dil) ** 2))
    expect = float(sys.phi(np.array([u]))[0]) / D
    assert float(sys.psi(np.array([u]))[0]) == pytest.approx(expect, rel=1e-10)
