"""Distribution-space norms: grid Lp, Besov / Triebel-Lizorkin, sequences."""

import math

import numpy as np
import pytest

from hermband import core
from hermband.core import GridFunction, SpectralFunction, random_spectral
from hermband.frames import CoefficientSequence
from hermband.lp import apply_lp
from hermband.norms import (
    QuadratureBox,
    SpaceParams,
    _f_sum,
    besov_norm,
    maximal,
    seq_besov_norm,
    seq_tl_norm,
    space_norm,
    tl_norm,
)
from hermband.tiles import build_level

from oracles import basis_function, lp_norm


def test_l2_norm_of_ground_state():
    assert lp_norm(basis_function((0,)), 2.0) == pytest.approx(1.0, rel=1e-12)


def test_l1_norm_of_ground_state():
    expect = math.pi ** 0.25 * math.sqrt(2.0)
    box = QuadratureBox(12.0, 20001)
    assert lp_norm(basis_function((0,)), 1.0, box) == pytest.approx(expect, rel=1e-6)


def test_lp_norm_zero():
    assert lp_norm(SpectralFunction(1, 0), 2.0) == 0.0


def test_sup_norm_of_ground_state():
    # sup of h0 is at 0: pi^{-1/4}
    assert lp_norm(basis_function((0,)), math.inf) == pytest.approx(math.pi ** -0.25, rel=1e-6)


def test_besov_norm_eigenfunction_closed_form(sys):
    f = basis_function((0,))
    params = SpaceParams("B", 0.5, 2.0, 2.0)
    val = besov_norm(sys, f, params)
    expect = 0.0
    for j in range(6):
        w = sys.window(j, 1.0)
        expect += (2.0 ** (j * params.alpha) * abs(w)) ** params.q
    expect = expect ** (1.0 / params.q)   # since the Lp factor is ||h0||_2 = 1
    assert val == pytest.approx(expect, rel=1e-6)


def test_homogeneity(sys):
    rng = np.random.default_rng(1)
    f = random_spectral(1, 8, rng, real=True)
    for params in (SpaceParams("B", 0.0, 2.0, 2.0), SpaceParams("F", 1.0, 1.5, 2.0)):
        a = space_norm(sys, f, params)
        b = space_norm(sys, f.scaled(2.0), params)
        assert b == pytest.approx(2.0 * a, rel=1e-10)


def test_f22_comparable_to_l2(sys):
    rng = np.random.default_rng(2)
    params = SpaceParams("F", 0.0, 2.0, 2.0)
    ratios = []
    for _ in range(5):
        f = random_spectral(1, 10, rng, real=True)
        ratios.append(tl_norm(sys, f, params) / f.norm2())
    assert 0.5 < min(ratios) and max(ratios) < 2.0


@pytest.mark.parametrize("dim", [1, 2])
def test_norms_build_one_hermite_table_per_call(sys, dim, monkeypatch):
    f = random_spectral(dim, 8, np.random.default_rng(dim), real=True)
    build, built = core.hermite_functions, []

    def counted(k_max, t):
        built.append(k_max)
        return build(k_max, t)

    monkeypatch.setattr(core, "hermite_functions", counted)
    tl_norm(sys, f, SpaceParams("F", 0.0, 1.0, 2.0))
    assert built == [8]
    besov_norm(sys, f, SpaceParams("B", -1.0, 0.5, 2.0))
    assert built == [8, 8]
    besov_norm(sys, f, SpaceParams("B", 0.0, 2.0, 2.0))     # Parseval: no table
    tl_norm(sys, f, SpaceParams("F", 0.5, 2.0, 2.0))
    assert built == [8, 8]


def grid_tl_norm(sys, f, params):
    """F-norm on the grid: every nonzero band sampled on f's quadrature box, then _f_sum."""
    axes = QuadratureBox.for_degree(f.max_degree, f.dim).axes(f.dim)
    tables = core.grid_tables(f.max_degree, axes)
    bands = (apply_lp(sys, j, f) for j in range(sys.coverage_level(2.0 * f.max_degree + f.dim) + 1))
    return _f_sum((2.0 ** (j * params.alpha) * np.abs(fj.eval_grid(axes, tables))
                   for j, fj in enumerate(bands) if fj.array.any()), axes, params)


@pytest.mark.parametrize("dim, K", [(1, 12), (2, 8), (3, 4)])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5])
def test_f22_by_parseval_matches_the_grid(sys, dim, K, alpha):
    f = random_spectral(dim, K, np.random.default_rng(10 * dim + K), real=True)
    params = SpaceParams("F", alpha, 2.0, 2.0)
    assert tl_norm(sys, f, params) == pytest.approx(grid_tl_norm(sys, f, params), rel=1e-13, abs=0)


@pytest.mark.parametrize("dim, K", [(1, 12), (2, 8), (3, 4)])
def test_f2q_off_q_2_stays_on_the_grid(sys, dim, K):
    # the Parseval shortcut holds only at q = 2: at q = 1.5, F differs from B
    f = random_spectral(dim, K, np.random.default_rng(10 * dim + K), real=True)
    F = tl_norm(sys, f, SpaceParams("F", 0.0, 2.0, 1.5))
    assert F == grid_tl_norm(sys, f, SpaceParams("F", 0.0, 2.0, 1.5))
    B = besov_norm(sys, f, SpaceParams("B", 0.0, 2.0, 1.5))
    assert abs(F - B) > 1e-3 * B


def test_seq_besov_single_entry(cfg):
    ts = build_level(2, cfg)
    s = CoefficientSequence(cfg)
    arr = np.zeros(ts.count, dtype=complex)
    arr[4] = 1.0
    s.levels = {2: arr}
    tile = ts.tile((4,))
    for alpha, p in ((0.0, 2.0), (1.0, 1.5)):
        params = SpaceParams("B", alpha, p, 2.0)
        expect = 2.0 ** (2 * alpha) * tile.measure ** (1.0 / p - 0.5)
        assert seq_besov_norm(s, params) == pytest.approx(expect, rel=1e-12)


def test_seq_tl_single_entry(cfg):
    ts = build_level(1, cfg)
    s = CoefficientSequence(cfg)
    arr = np.zeros(ts.count, dtype=complex)
    i = ts.nodes_per_axis // 2
    arr[i] = 1.0
    s.levels = {1: arr}
    tile = ts.tile((i,))
    params = SpaceParams("F", 0.0, 2.0, 2.0)
    expect = tile.measure ** -0.5 * tile.measure ** 0.5   # |R|^{-1/2} (int 1_R)^{1/2}
    box = QuadratureBox(8.0, 4001)
    assert seq_tl_norm(s, params, box) == pytest.approx(expect, rel=2e-2)


def _bands_from_the_measure_array(s, params, box):
    """seq_tl_norm's grid bands with |R| read off each level's whole measure_array()."""
    axes = box.axes(s.cfg.dim)
    for j in sorted(s.levels):
        ts = build_level(j, s.cfg)
        lin = ts.locate_grid(axes).ravel()
        inside = lin >= 0
        flat = np.zeros(lin.size)
        lin = lin[inside]
        flat[inside] = ts.measure_array()[lin] ** -0.5 * np.abs(s.levels[j].ravel()[lin])
        yield 2.0 ** (j * params.alpha) * flat.reshape([len(a) for a in axes])


@pytest.mark.parametrize("dim", [1, 2])
def test_seq_tl_norm_weights_are_the_measure_array_floats(sys, monkeypatch, dim):
    from hermband import norms
    from hermband.frames import analyze
    from hermband.tiles import TileConfig, TileSet
    cfg = TileConfig(dim=dim)
    s = analyze(sys, random_spectral(dim, 12, np.random.default_rng(dim), real=False), 3, cfg)
    params = SpaceParams("F", 0.5, 1.0, 2.0)
    # the default box, and one past the boxes of levels 0 and 1 that cuts those of 2 and 3
    boxes = [QuadratureBox.in_dim(build_level(3, cfg).outer_halfwidth + 0.5, dim),
             QuadratureBox(8.0, 97)]
    want = [list(_bands_from_the_measure_array(s, params, box)) for box in boxes]
    got = []
    monkeypatch.setattr(TileSet, "measure_array", None)
    monkeypatch.setattr(norms, "_f_sum", lambda bands, axes, params: got.append(list(bands)))
    seq_tl_norm(s, params)
    seq_tl_norm(s, params, boxes[1])
    for g, w in zip(got, want):
        assert len(g) == len(w) == 4
        assert all(a.tobytes() == b.tobytes() for a, b in zip(g, w))


def test_seq_norm_zero(cfg):
    s = CoefficientSequence(cfg)
    assert seq_besov_norm(s, SpaceParams("B", 0.0, 2.0, 2.0)) == 0.0


def test_maximal_constant_function():
    axes = [np.linspace(-4, 4, 101)]
    g = GridFunction(axes, np.full(101, 3.0))
    m = maximal(g, 1.0)
    assert np.allclose(m.samples, 3.0)


def test_maximal_dominates_pointwise():
    rng = np.random.default_rng(0)
    axes = [np.linspace(-4, 4, 257)]
    vals = rng.standard_normal(257)
    g = GridFunction(axes, vals)
    for s in (0.7, 1.0, 2.0):
        m = maximal(g, s)
        assert np.all(m.samples >= np.abs(vals) - 1e-12)
