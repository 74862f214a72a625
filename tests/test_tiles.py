"""Multiscale tiles: degrees, zeros, weights, cubature, location, geometry."""

import io
import math

import numpy as np
import pytest

from hermband.core import basis_function, gauss_hermite
from hermband.tiles import (
    TileConfig,
    build_level,
    cubature,
    hermite_zeros,
    level_degree,
    tile_geometry_constants,
    write_nodes_csv,
)


def test_level_degree_values():
    assert level_degree(0) == 5
    assert level_degree(1) == 11


def test_tile_counts_1d():
    cfg = TileConfig()
    assert build_level(0, cfg).count == 10
    assert build_level(1, cfg).count == 22


def test_tile_count_2d_product():
    cfg = TileConfig(dim=2)
    ts = build_level(1, cfg)
    assert ts.count == (2 * level_degree(1)) ** 2


def test_config_validation():
    with pytest.raises(ValueError):
        TileConfig(delta_star=0.2)
    with pytest.raises(ValueError):
        TileConfig(delta_star=0.0)
    with pytest.raises(ValueError):
        TileConfig(dim=0)


def test_node_budget_enforced():
    cfg = TileConfig(dim=2, node_budget=100)
    with pytest.raises(ValueError):
        build_level(2, cfg)


def test_hermite_zeros_small():
    assert list(hermite_zeros(1)) == pytest.approx([0.0], abs=1e-14)
    assert list(hermite_zeros(2)) == pytest.approx(
        [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], rel=1e-13)


def test_hermite_zeros_sign_changes():
    # each returned zero of H_10 has the polynomial changing sign across it
    z = hermite_zeros(10)
    coeff = np.zeros(11)
    coeff[10] = 1.0
    H10 = np.polynomial.hermite.Hermite(coeff)
    eps = 1e-6
    for t in z:
        assert H10(t - eps) * H10(t + eps) < 0


def test_cubature_orthonormality():
    cfg = TileConfig()
    ts = build_level(0, cfg)
    h0 = basis_function((0,))
    vals = np.real(h0.eval_points(ts.node_array()))
    assert cubature(ts, vals, vals) == pytest.approx(1.0, abs=1e-10)


def test_cubature_orthogonality():
    cfg = TileConfig()
    ts = build_level(1, cfg)
    f = np.real(basis_function((2,)).eval_points(ts.node_array()))
    g = np.real(basis_function((5,)).eval_points(ts.node_array()))
    assert cubature(ts, f, g) == pytest.approx(0.0, abs=1e-10)


def test_cubature_zero():
    cfg = TileConfig()
    ts = build_level(0, cfg)
    assert cubature(ts, np.zeros(ts.count)) == 0.0


def test_cubature_exactness_at_the_degree_limit():
    # deg f + deg g = 4 N_j - 1 must still integrate exactly
    cfg = TileConfig()
    for j in (0, 1, 2):
        ts = build_level(j, cfg)
        dmax = 4 * ts.degree - 1
        a, b = dmax // 2, dmax - dmax // 2
        f = basis_function((a,))
        g = basis_function((b,))
        fv = np.real(f.eval_points(ts.node_array()))
        gv = np.real(g.eval_points(ts.node_array()))
        expect = 1.0 if a == b else 0.0
        assert cubature(ts, fv, gv) == pytest.approx(expect, abs=1e-9)


def test_disjoint_cover():
    cfg = TileConfig()
    for j in (0, 1, 2, 3):
        ts = build_level(j, cfg)
        widths = np.diff(ts.edges)
        assert np.all(widths > 0)
        total = float(np.sum(widths))
        assert total == pytest.approx(2.0 * ts.outer_halfwidth, abs=1e-12)


def test_locate_node_in_own_tile():
    cfg = TileConfig()
    ts = build_level(2, cfg)
    for i in (0, 5, ts.nodes_per_axis - 1):
        t = ts.locate(ts.zeros[i])
        assert t is not None and t.index == (i,)


def test_locate_outside():
    cfg = TileConfig()
    ts = build_level(0, cfg)
    assert ts.locate(ts.outer_halfwidth + 1.0) is None
    assert ts.locate(-ts.outer_halfwidth - 1.0) is None


def test_locate_matches_linear_scan():
    cfg = TileConfig()
    ts = build_level(2, cfg)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-ts.outer_halfwidth - 0.5, ts.outer_halfwidth + 0.5, size=10_000)
    for x in pts:
        t = ts.locate(x)
        hits = [i for i in range(ts.nodes_per_axis)
                if ts.edges[i] <= x <= ts.edges[i + 1]]
        if t is None:
            assert not hits
        else:
            assert t.index[0] in hits


def test_locate_indices_vectorized_agrees():
    cfg = TileConfig(dim=2)
    ts = build_level(1, cfg)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-ts.outer_halfwidth - 0.5, ts.outer_halfwidth + 0.5, size=(500, 2))
    idx = ts.locate_indices(pts)
    for p, row in zip(pts, idx):
        t = ts.locate(p)
        if t is None:
            assert np.any(row < 0)
        else:
            assert tuple(row) == t.index


def test_tau_positive_and_tau_close_to_measure():
    cfg = TileConfig()
    for j in (0, 1, 2, 3):
        ts = build_level(j, cfg)
        tau = ts.weight_array()
        meas = ts.measure_array()
        assert np.all(tau > 0)
        ratio = tau / meas
        assert 0.3 < float(np.min(ratio)) and float(np.max(ratio)) < 1.5


def test_gauss_weight_consistency():
    # classical Christoffel weights at the zeros reproduce the Gauss weights
    cfg = TileConfig()
    ts = build_level(1, cfg)
    nodes, weights = gauss_hermite(2 * ts.degree)
    order = np.argsort(nodes)
    lifted = weights[order] * np.exp(np.sort(nodes) ** 2)
    assert np.max(np.abs(ts.tau1d - lifted) / lifted) < 1e-9


def test_geometry_constants_stable():
    cfg = TileConfig()
    rows = {}
    for j in range(5):
        c0, c1, c2, c2_all = tile_geometry_constants(build_level(j, cfg))
        rows[j] = (c0, c1, c2)
        assert 0 < c1 < c0
        assert math.isfinite(c2)
    # interior c2 and the level-3 -> level-4 variation of c0, c1
    for k in range(3):
        a, b = rows[3][k], rows[4][k]
        assert abs(b - a) / max(a, b) < 0.10


def test_nodes_csv_shape():
    cfg = TileConfig()
    ts = build_level(0, cfg)
    buf = io.StringIO()
    write_nodes_csv(ts, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "level,node_index,x1,tau,measure,lo1,hi1"
    assert len(lines) == 1 + ts.count


def test_build_level_memoized():
    cfg = TileConfig()
    assert build_level(1, cfg) is build_level(1, cfg)
