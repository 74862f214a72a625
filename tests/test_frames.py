"""Frame elements, analysis/synthesis, round-trip, coefficient sequences."""

import json
import math

import numpy as np
import pytest

from hermband.core import (SpectralFunction, degree_array, hermite_functions,
                           projector_kernel_sequence, random_spectral)
from hermband.frames import (
    TINY,
    CoefficientSequence,
    _contract,
    _flush,
    analyze,
    frame_table,
    needlet,
    synthesize,
)
from hermband.lp import apply_lp, support_set
from hermband.tiles import TileConfig, build_level

from oracles import (basis_function, inner_product_quadrature, lp_kernel, roundtrip_residual,
                     spectral_function)


def analyze_tile_quadrature(sys, f, tile):
    """Oracle for one coefficient: <f, phi_R> by quadrature."""
    return inner_product_quadrature(f, needlet(sys, tile))


def analyze_oracle(sys, f, J, cfg):
    """Oracle for analyze: the band projection evaluated on the level grid,
    times the square root of the product weights."""
    s = CoefficientSequence(cfg)
    for j in range(J + 1):
        ts = build_level(j, cfg)
        fj = apply_lp(sys, j, f)
        vals = fj.eval_grid([ts.zeros] * f.dim)
        s.levels[j] = np.sqrt(ts.weight_array().reshape(vals.shape)) * vals
    return s


def synthesize_oracle(sys, s):
    """Oracle for synthesize: tau^{1/2} applied per axis to the whole level,
    then contracted with the unscaled complex Hermite table."""
    cfg = s.cfg
    n = cfg.dim
    total = None
    for j in sorted(s.levels):
        ts = build_level(j, cfg)
        ks = support_set(sys, j, n)
        if len(ks) == 0:
            continue
        k_max = ks[-1]
        H = hermite_functions(k_max, ts.zeros)
        T = s.levels[j]
        for d in range(n):
            T = T * np.sqrt(ts.tau1d).reshape((-1,) + (1,) * (n - 1 - d))
        for _ in range(n):
            T = np.tensordot(T, H, axes=([0], [1]))
        c = degree_array(sys.degree_windows(j, k_max, n, dual=True), n) * T
        c[np.abs(c) <= 1e-15] = 0.0
        part = SpectralFunction(n, k_max, c)
        total = part if total is None else total.add(part)
    return total if total is not None else SpectralFunction(n, 0)


def test_needlet_value_at_own_node(sys, cfg):
    ts = build_level(2, cfg)
    tile = ts.tile((7,))
    f = needlet(sys, tile)
    x = float(tile.node[0])
    val = float(np.real(f.eval_points(np.array([[x]]))[0]))
    expect = math.sqrt(tile.weight) * lp_kernel(sys, 2, x, x, 1)
    assert val == pytest.approx(expect, rel=1e-12)


def test_needlet_norm_parseval(sys, cfg):
    ts = build_level(2, cfg)
    tile = ts.tile((5,))
    f = needlet(sys, tile)
    x = float(tile.node[0])
    expect = tile.weight * sum(
        sys.window(2, math.sqrt(2 * k + 1)) ** 2 * projector_kernel_sequence(k, x, x)[k]
        for k in support_set(sys, 2, 1))
    assert f.norm2() ** 2 == pytest.approx(expect, abs=1e-10)


def test_level0_needlet_single_term(sys, cfg):
    # for n=1 the level-0 band is phi0(sqrt(lambda_k)); with the default
    # plateau ending at 1/2 it vanishes at every eigenvalue, so the level-0
    # frame elements are identically zero
    ts = build_level(0, cfg)
    tile = ts.tile((3,))
    f = needlet(sys, tile)
    w = sys.window(0, 1.0)
    expect = math.sqrt(tile.weight) * w * hermite_functions(0, float(tile.node[0]))[0]
    got = f.coeffs.get((0,), 0.0)
    assert abs(got - expect) < 1e-14
    assert w == 0.0 and f.norm2() == 0.0


def test_analyze_zero(sys, cfg):
    s = analyze(sys, SpectralFunction(1, 0), 3, cfg)
    for j in s.levels:
        assert np.all(s.levels[j] == 0.0)


def test_analyze_closed_form_ground_state(sys, cfg):
    f = basis_function((0,))
    s = analyze(sys, f, 3, cfg)
    for j in range(4):
        ts = build_level(j, cfg)
        w = sys.window(j, 1.0)
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
    s = CoefficientSequence(cfg)
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
    rhs = synthesize(sys, s1).scaled(2.5).add(synthesize(sys, s2))
    s1.levels = {j: 2.5 * a + s2.levels[j] for j, a in s1.levels.items()}
    assert synthesize(sys, s1).sub(rhs).norm2() < 1e-12


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
    path.write_text(json.dumps(s.to_json_dict(0.0)))
    s2 = CoefficientSequence.from_json_dict(json.loads(path.read_text()), cfg)
    for j in s.levels:
        assert np.array_equal(s.levels[j], s2.levels[j])


def test_inner_product_quadrature_orthonormality():
    for a, b in (((0,), (0,)), ((3,), (3,)), ((2,), (5,))):
        val = inner_product_quadrature(basis_function(a), basis_function(b))
        expect = 1.0 if a == b else 0.0
        assert abs(val - expect) < 1e-12


# (dim, top level, degree of f): f reaches every level up to the top one
ORACLE_CASES = [(1, 5, 40), (2, 4, 22)]


def _oracle_sequences(sys, dim, J, K, real):
    """The config, and analyze and its oracle on a random f of degree K."""
    cfg = TileConfig(dim=dim)
    f = random_spectral(dim, K, np.random.default_rng(11), real=real)
    return cfg, analyze(sys, f, J, cfg), analyze_oracle(sys, f, J, cfg)


def _level_error(got, want, j):
    """max |got - want| over the largest |want|, which vanishes at level 0 only
    (the level-0 window is 0 at every eigenvalue); there, max |got|."""
    scale = np.max(np.abs(want))
    assert (scale == 0) == (j == 0)
    return np.max(np.abs(got - want)) / (scale if j else 1.0)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dim,J,K", ORACLE_CASES)
def test_analyze_matches_the_level_grid_oracle(sys, dim, J, K, real):
    _, s, oracle = _oracle_sequences(sys, dim, J, K, real)
    for j in range(J + 1):
        assert s.levels[j].dtype == float or not real
        assert _level_error(s.levels[j], oracle.levels[j], j) <= 1e-14, j


def _single_level(cfg, j, arr):
    s = CoefficientSequence(cfg)
    s.levels[j] = arr
    return s


def _synthesis_error(sys, cfg, j, arr):
    got = synthesize(sys, _single_level(cfg, j, arr))
    want = synthesize_oracle(sys, _single_level(cfg, j, arr))
    assert got.max_degree == want.max_degree
    return _level_error(got.array, want.array, j)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dim,J,K", ORACLE_CASES)
def test_synthesize_matches_the_weighted_grid_oracle(sys, dim, J, K, real):
    cfg, s, _ = _oracle_sequences(sys, dim, J, K, real)
    for j in range(J + 1):
        assert _synthesis_error(sys, cfg, j, s.levels[j]) <= 1e-14, j


def _sparse_with_outer_nodes(ts, rng, interior=8):
    """Complex entries at random nodes with |x_d| < 2^j on every axis, where the
    level's needlets live, and at nodes with index 0 or m - 1 on some axis."""
    m, n = ts.zeros.size, ts.dim
    arr = np.zeros(ts.shape, dtype=complex)
    central = np.flatnonzero(np.abs(ts.zeros) < 2.0 ** ts.level)
    nodes = [tuple(rng.choice(central, n)) for _ in range(interior)]
    for d in range(n):
        for end in (0, m - 1):
            ix = rng.integers(0, m, n)
            ix[d] = end
            nodes.append(tuple(ix))
    nodes += [(0,) * n, (m - 1,) * n]
    for ix in nodes:
        arr[ix] = complex(*rng.standard_normal(2))
    return arr


@pytest.mark.parametrize("dim,J", [(1, 5), (2, 4)])
def test_synthesize_matches_the_oracle_where_the_table_flushes(sys, dim, J):
    cfg = TileConfig(dim=dim)
    rng = np.random.default_rng(12)
    for j in range(J + 1):
        ts = build_level(j, cfg)
        assert _synthesis_error(sys, cfg, j, _sparse_with_outer_nodes(ts, rng)) <= 1e-14, j


def _frame_table_gram_error(ts, k_max):
    F, _ = frame_table(ts, k_max)
    return np.max(np.abs(F @ F.T - np.eye(k_max + 1)))


@pytest.mark.parametrize("j", range(5))
def test_frame_table_rows_are_orthonormal_under_the_cubature(j):
    ts = build_level(j, TileConfig())
    assert _frame_table_gram_error(ts, 2 * ts.degree - 1) <= 1e-13


@pytest.mark.parametrize("j", range(5))
def test_frame_table_rows_fail_past_the_cubature_degree(j):
    # negative control: row 2N_j is h_{2N_j} at its own zeros
    ts = build_level(j, TileConfig())
    assert not _frame_table_gram_error(ts, 2 * ts.degree) <= 1e-13


def _fresh_flushed_table(ts, k):
    G = hermite_functions(k, ts.zeros) * np.sqrt(ts.tau1d)
    G[np.abs(G) < 2.0 ** -511] = 0.0
    return G


@pytest.mark.parametrize("dim,j", [(1, j) for j in range(6)] + [(2, j) for j in range(5)])
def test_memoized_table_rows_equal_a_fresh_flushed_table(dim, j):
    # from level 4 on, nodes pass |x| = 38, where _hermite_rows runs the far tail
    # at a stand-in point that depends on k_max
    ts = build_level(j, TileConfig(dim=dim))
    high = min(2 * ts.degree - 1, 300)
    table, _ = frame_table(ts, high)
    for k in (0, 8, 24, 31, 60):
        if k >= high:
            continue
        F, live = frame_table(ts, k)
        assert np.shares_memory(F, table), k
        G = _fresh_flushed_table(ts, k)
        assert F.tobytes() == G.tobytes() and np.array_equal(np.signbit(F), np.signbit(G)), k
        cols = np.flatnonzero(G.any(axis=0))
        assert live == slice(cols[0], cols[-1] + 1), k


def test_memoized_table_is_read_only():
    F, _ = frame_table(build_level(2, TileConfig()), 8)
    with pytest.raises(ValueError):
        F[0, 0] = 1.0


def unflushed_analysis(sys, f, j, cfg):
    """Reference: the band's coefficients contracted with the whole unflushed table."""
    ts = build_level(j, cfg)
    F = hermite_functions(f.max_degree, ts.zeros) * np.sqrt(ts.tau1d)
    return _contract(apply_lp(sys, j, f).array, F, 0)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dim,J,K", [(2, 4, 8), (2, 4, 24), (1, 5, 31), (1, 5, 60)])
def test_flushed_analysis_stays_within_its_bound_of_the_unflushed_one(sys, dim, J, K, real):
    cfg = TileConfig(dim=dim)
    f = random_spectral(dim, K, np.random.default_rng(K), real=real)
    s = analyze(sys, f, J, cfg)
    ref = CoefficientSequence(cfg)
    for j in range(J + 1):
        got = s.levels[j]
        ref.levels[j] = want = unflushed_analysis(sys, f, j, cfg)
        assert got.dtype == want.dtype, j
        c = apply_lp(sys, j, f).array
        assert np.max(np.abs(got - want)) <= 2.0 ** -509 * (1.0 + np.sum(np.abs(c))), j
        parts = np.abs(np.stack([got.real, got.imag]))
        assert not np.any((parts > 0) & (parts < TINY)), j
        big = np.abs(want) >= 1e-100
        assert got[big].tobytes() == want[big].tobytes(), j
    g, g_ref = synthesize(sys, s), synthesize(sys, ref)
    assert g.max_degree == g_ref.max_degree
    assert g.array.tobytes() == g_ref.array.tobytes()


def test_flush_takes_real_and_imaginary_parts_apart(sys, cfg):
    # negative control: numpy orders complex numbers by the real part first, so a
    # comparison of the complex values would flush this entry whole
    a = np.array([1e-160 + 0.5j, -1e-160 - 3e-170j])
    assert np.all(a < TINY)
    _flush(a)
    assert a.tobytes() == np.array([0.5j, 0j]).tobytes()
    ts = build_level(2, cfg)
    arrs = [np.zeros(ts.shape, dtype=complex) for _ in range(2)]
    mid = ts.nodes_per_axis // 2
    arrs[0][mid], arrs[1][mid] = 1e-160 + 0.5j, 0.5j
    g, want = (synthesize(sys, _single_level(cfg, 2, arr)) for arr in arrs)
    assert g.norm2() > 0.1 and g.array.tobytes() == want.array.tobytes()



def test_analysis_does_not_flush_the_band_coefficients(sys, cfg):
    # every band coefficient of f lies below TINY, but their signs follow the table's
    # column at one node, so the products add up there to a coefficient above TINY
    j = 5
    ts = build_level(j, cfg)
    ks = support_set(sys, j, 1)
    F, _ = frame_table(ts, ks[-1])
    node = ts.nodes_per_axis // 2
    f = spectral_function(1, ks[-1], {(k,): 0.75 * TINY * np.sign(F[k, node]) for k in ks})
    c = apply_lp(sys, j, f).array
    assert np.max(np.abs(c)) < TINY
    want = float(c.real @ F[:, node])
    assert want > 2 * TINY
    assert analyze(sys, f, j, cfg).levels[j][node] == pytest.approx(want, rel=1e-12, abs=0.0)
