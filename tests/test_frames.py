"""Frame elements, analysis/synthesis, round-trip, coefficient sequences."""

import math

import numpy as np
import pytest

from hermband.core import basis_function, hermite_functions, random_spectral
from hermband.frames import (
    CoefficientSequence,
    analyze,
    analyze_tile_quadrature,
    inner_product_quadrature,
    needlet,
    roundtrip_residual,
    synthesize,
)
from hermband.lp import default_system, spectral_window, support_set
from hermband.tiles import TileConfig, build_level


@pytest.fixture(scope="module")
def sys():
    return default_system()


@pytest.fixture(scope="module")
def cfg():
    return TileConfig()


def test_needlet_value_at_own_node(sys, cfg):
    from hermband.lp import lp_kernel
    ts = build_level(2, cfg)
    tile = ts.tile((7,))
    f = needlet(sys, tile)
    x = float(tile.node[0])
    val = float(np.real(f.eval_points(np.array([[x]]))[0]))
    expect = math.sqrt(tile.weight) * lp_kernel(sys, 2, x, x, 1)
    assert val == pytest.approx(expect, rel=1e-12)


def test_needlet_norm_parseval(sys, cfg):
    from hermband.core import projector_kernel
    ts = build_level(2, cfg)
    tile = ts.tile((5,))
    f = needlet(sys, tile)
    x = float(tile.node[0])
    expect = tile.weight * sum(
        spectral_window(sys, 2, k, 1) ** 2 * projector_kernel(k, x, x, 1)
        for k in support_set(sys, 2, 1))
    assert f.norm2() ** 2 == pytest.approx(expect, abs=1e-10)


def test_level0_needlet_single_term(sys, cfg):
    # for n=1 the level-0 band is phi0(sqrt(lambda_k)); with the default
    # plateau ending at 1/2 it vanishes at every eigenvalue, so the level-0
    # frame elements are identically zero
    ts = build_level(0, cfg)
    tile = ts.tile((3,))
    f = needlet(sys, tile)
    w = spectral_window(sys, 0, 0, 1)
    expect = math.sqrt(tile.weight) * w * hermite_functions(0, float(tile.node[0]))[0]
    got = f.coeffs.get((0,), 0.0)
    assert abs(got - expect) < 1e-14
    assert w == 0.0 and f.norm2() == 0.0


def test_analyze_zero(sys, cfg):
    from hermband.core import SpectralFunction
    s = analyze(sys, SpectralFunction(1, 0, {}), 3, cfg)
    for j in s.levels:
        assert np.all(s.levels[j] == 0.0)


def test_analyze_closed_form_ground_state(sys, cfg):
    f = basis_function((0,))
    s = analyze(sys, f, 3, cfg)
    for j in range(4):
        ts = build_level(j, cfg)
        w = spectral_window(sys, j, 0, 1)
        expect = np.sqrt(ts.tau1d) * w * np.array(
            [hermite_functions(0, float(t))[0] for t in ts.zeros])
        assert np.max(np.abs(s.levels[j] - expect)) < 1e-13


def test_analyze_matches_quadrature_oracle(sys, cfg):
    rng = np.random.default_rng(4)
    f = random_spectral(1, 20, rng, real=True)
    s = analyze(sys, f, 3, cfg)
    ts = build_level(2, cfg)
    for i in (0, 9, 20):
        oracle = analyze_tile_quadrature(sys, f, ts.tile((i,)))
        assert abs(s.levels[2][i] - oracle) < 1e-10


def test_synthesize_single_coefficient_gives_dual_needlet(sys, cfg):
    ts = build_level(2, cfg)
    s = CoefficientSequence(cfg, 2)
    arr = np.zeros(ts.count, dtype=complex)
    arr[11] = 1.0
    s.levels[2] = arr
    g = synthesize(sys, s)
    expect = needlet(sys, ts.tile((11,)), dual=True)
    assert g.sub(expect).norm2() < 1e-12


def test_synthesize_linearity(sys, cfg):
    rng = np.random.default_rng(9)
    f1 = random_spectral(1, 10, rng, real=True)
    f2 = random_spectral(1, 10, rng, real=True)
    s1 = analyze(sys, f1, 3, cfg)
    s2 = analyze(sys, f2, 3, cfg)
    lhs = synthesize(sys, s1.scaled(2.5).add(s2))
    rhs = synthesize(sys, s1).scaled(2.5).add(synthesize(sys, s2))
    assert lhs.sub(rhs).norm2() < 1e-12


def test_roundtrip_ground_state(sys, cfg):
    r, covered = roundtrip_residual(sys, basis_function((0,)), 2, cfg)
    assert covered
    assert r < 1e-9


def test_roundtrip_uncovered_flagged(sys, cfg):
    rng = np.random.default_rng(5)
    f = random_spectral(1, 30, rng, real=True)
    r, covered = roundtrip_residual(sys, f, 2, cfg)
    assert not covered
    assert r > 1e-3


def test_coefficient_sequence_json_roundtrip(sys, cfg, tmp_path):
    rng = np.random.default_rng(6)
    f = random_spectral(1, 10, rng, real=True)
    s = analyze(sys, f, 3, cfg)
    path = tmp_path / "s.json"
    s.save(path)
    s2 = CoefficientSequence.load(path, cfg)
    for j in s.levels:
        assert np.array_equal(s.levels[j], s2.levels[j])


def test_sequence_norm_parseval_consistency(sys, cfg):
    rng = np.random.default_rng(8)
    f = random_spectral(1, 10, rng, real=True)
    s = analyze(sys, f, 3, cfg)
    direct = math.sqrt(sum(float(np.sum(np.abs(a) ** 2)) for a in s.levels.values()))
    assert s.norm2() == pytest.approx(direct, rel=1e-14)


def test_inner_product_quadrature_orthonormality():
    for a, b in (((0,), (0,)), ((3,), (3,)), ((2,), (5,))):
        val = inner_product_quadrature(basis_function(a), basis_function(b))
        expect = 1.0 if a == b else 0.0
        assert abs(val - expect) < 1e-12
