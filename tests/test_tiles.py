"""Multiscale tiles: degrees, zeros, weights, cubature, location, geometry."""

import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from hermband.cli import main
from hermband.core import gauss_hermite, tensor_points
from hermband.tiles import (
    TileConfig,
    TileSet,
    build_level,
    check_level,
    cubature,
    level_degree,
    tile_geometry_constants,
)

from oracles import basis_function


def test_level_degree_values():
    assert level_degree(0, TileConfig.delta_star) == 5
    assert level_degree(1, TileConfig.delta_star) == 11


def test_tile_counts_1d():
    cfg = TileConfig()
    assert build_level(0, cfg).count == 10
    assert build_level(1, cfg).count == 22


def test_tile_count_2d_product():
    cfg = TileConfig(dim=2)
    ts = build_level(1, cfg)
    assert ts.count == (2 * level_degree(1, TileConfig.delta_star)) ** 2


def test_config_validation():
    with pytest.raises(ValueError):
        TileConfig(delta_star=0.2)
    with pytest.raises(ValueError):
        TileConfig(delta_star=0.0)
    with pytest.raises(ValueError):
        TileConfig(dim=0)


def test_buildable_levels_per_dimension():
    for dim, top in ((1, 6), (2, 4), (3, 2)):
        cfg = TileConfig(dim=dim)
        assert [check_level(j, cfg) for j in range(top + 1)] == \
            [level_degree(j, TileConfig.delta_star) for j in range(top + 1)]
        for j in (-1, top + 1, 10 ** 6):
            with pytest.raises(ValueError, match=f"level {j} is not buildable"):
                check_level(j, cfg)


def test_unbuildable_levels_are_rejected_before_building(capsys):
    # level 7 in 1-D would need a 67734-point rule, and 2-D level 5 has 18 M
    # nodes: each must fail at once, not after (or while) allocating
    for argv in (["nodes", "--level", "7"], ["nodes", "--dim", "2", "--level", "5"],
                 ["verify", "tiles", "--levels", "7"]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err.startswith("error: level")
    start = time.perf_counter()
    with pytest.raises(ValueError):
        TileSet(-1, TileConfig())
    assert time.perf_counter() - start < 2.0


def test_level_5_builds_in_linear_memory():
    # the Christoffel weights are summed row by row, so the 4238-point rule
    # needs no (4238, 4238) Hermite table (144 MB).  The child reports VmHWM,
    # its own peak RSS: its ru_maxrss would also hold this process's peak,
    # which Linux carries across fork and exec
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("from hermband.tiles import TileConfig, build_level\n"
            "build_level(5, TileConfig())\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) / 1024 < 120      # VmHWM is in kB


def test_hermite_zeros_small():
    assert list(gauss_hermite(1)[0]) == pytest.approx([0.0], abs=1e-14)
    assert list(gauss_hermite(2)[0]) == pytest.approx(
        [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], rel=1e-13)


def test_hermite_zeros_sign_changes():
    # each returned zero of H_10 has the polynomial changing sign across it
    z = gauss_hermite(10)[0]
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
    assert cubature(ts, np.zeros(ts.count), np.ones(ts.count)) == 0.0


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
    axes = [rng.uniform(-ts.outer_halfwidth - 0.5, ts.outer_halfwidth + 0.5, size=size)
            for size in (25, 20)]
    flat = ts.locate_grid(axes).ravel()
    for p, i in zip(tensor_points(axes), flat):
        t = ts.locate(p)
        if t is None:
            assert i == -1
        else:
            assert np.unravel_index(i, ts.shape) == t.index


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
    # Christoffel weights at the zeros, times e^{-x^2}, are SciPy's Gauss weights
    from scipy.special import roots_hermite
    cfg = TileConfig()
    ts = build_level(1, cfg)
    nodes, weights = roots_hermite(2 * ts.degree)
    assert np.max(np.abs(ts.zeros - nodes)) < 1e-12
    assert np.max(np.abs(ts.tau1d * np.exp(-ts.zeros ** 2) - weights) / weights) < 1e-9


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


def _nodes_csv(tmp_path, dim, level):
    """The lines of `hermband nodes` at a level."""
    out = tmp_path / "nodes.csv"
    assert main(["nodes", "--dim", str(dim), "--level", str(level), "--out", str(out)]) == 0
    return out.read_text().split("\n")


def test_nodes_csv_shape(tmp_path):
    lines = _nodes_csv(tmp_path, 1, 0)
    assert lines[0] == "level,node_index,x1,tau,measure,lo1,hi1"
    assert len(lines) == 1 + build_level(0, TileConfig()).count + 1 and lines[-1] == ""


def _tile_rows(ts):
    """The node table's rows built one Tile at a time: the reference for `hermband nodes`."""
    rows = []
    for flat, index in enumerate(np.ndindex(ts.shape)):
        t = ts.tile(index)
        row = [str(ts.level), str(flat)] + ["%.17g" % v for v in t.node]
        row += ["%.17g" % t.weight, "%.17g" % t.measure]
        for i in index:
            row += ["%.17g" % ts.edges[i], "%.17g" % ts.edges[i + 1]]
        rows.append(",".join(row))
    return rows


@pytest.mark.parametrize("dim,level", [(1, 3), (2, 2), (3, 1)])
def test_nodes_csv_rows_are_the_tiles(tmp_path, dim, level):
    # 1-D level 3 (270 nodes) is one block of rows; 2-D level 2 (5184) and
    # 3-D level 1 (10 648) span several
    ts = build_level(level, TileConfig(dim=dim))
    assert _nodes_csv(tmp_path, dim, level)[1:-1] == _tile_rows(ts)


def test_nodes_csv_memory_does_not_grow_with_the_level():
    # the rows are formatted a block at a time, so writing 2-D level 3
    # (72 900 nodes) peaks no higher than level 2 (5184); the levels are built first
    peaks = []
    for level in (2, 3):
        build_level(level, TileConfig(dim=2))
        tracemalloc.start()
        try:
            assert main(["nodes", "--dim", "2", "--level", str(level), "--out", os.devnull]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_build_level_memoized():
    cfg = TileConfig()
    assert build_level(1, cfg) is build_level(1, cfg)
