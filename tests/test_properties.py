"""Property tests: JSON round trips, the point-to-tile lookup and cubature exactness."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermband.core import (SpectralFunction, hermite_functions, multi_indices, random_spectral,
                           tensor_points)
from hermband.frames import CoefficientSequence, analyze, synthesize
from hermband.lp import bump_system
from hermband.tiles import TileConfig, build_level

from oracles import spectral_function

SETTINGS = settings(max_examples=25, deadline=None)

_finite = st.floats(allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _finite, _finite)


def _through_json(d):
    return json.loads(json.dumps(d))


@st.composite
def spectral_functions(draw):
    dim = draw(st.integers(1, 2))
    K = draw(st.integers(0, 8))
    coeffs = draw(st.dictionaries(st.sampled_from(multi_indices(dim, K)), _complex))
    return spectral_function(dim, K, coeffs)


@SETTINGS
@given(spectral_functions())
def test_spectral_function_json_roundtrip(f):
    g = SpectralFunction.from_json_dict(_through_json(f.to_json_dict()))
    assert (g.dim, g.max_degree) == (f.dim, f.max_degree)
    assert np.array_equal(g.array, f.array)


@SETTINGS
@given(st.integers(1, 2), st.integers(0, 8), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_coefficient_sequence_json_roundtrip(dim, K, J, seed):
    cfg = TileConfig(dim=dim)
    f = random_spectral(dim, K, np.random.default_rng(seed), real=False)
    s = analyze(bump_system(), f, J, cfg)
    t = CoefficientSequence.from_json_dict(_through_json(s.to_json_dict(0.0)), cfg)
    assert sorted(t.levels) == sorted(s.levels)
    for j, arr in s.levels.items():
        assert np.array_equal(t.levels[j], arr)


@SETTINGS
@given(st.data(), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_frame_round_trip_at_the_coverage_level(data, dim, seed):
    # K is bounded so that its coverage level J is at most 5 in 1-D (level 6
    # takes seconds to build) and 4, the top buildable level, in 2-D
    K = data.draw(st.integers(0, 127 if dim == 1 else 31))
    sys = bump_system()
    f = random_spectral(dim, K, np.random.default_rng(seed), real=False)
    J = sys.coverage_level(2.0 * K + dim)
    g = synthesize(sys, analyze(sys, f, J, TileConfig(dim=dim)))
    assert g.sub(f).norm2() <= 1e-12 * f.norm2()


def locate_many(ts, pts):
    """Oracle for TileSet.locate_grid: the row-major node index of the tile
    holding each point of an (m, dim) array, one searchsorted per point and
    axis; -1 outside the outer box, boundary points in the lower tile."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    idx = np.searchsorted(ts.edges, pts, side="left") - 1
    idx[pts == ts.edges[0]] = 0
    inside = np.all((idx >= 0) & (idx < ts.zeros.size), axis=1)
    flat = np.full(pts.shape[0], -1, dtype=np.int64)
    flat[inside] = np.ravel_multi_index(tuple(idx[inside].T), ts.shape)
    return flat


def _brute_force_tile(ts, p):
    """Row-major node index from a scan of every tile's [lo, hi] per axis; the
    lower tile wins on a shared edge, -1 outside the outer box."""
    flat = 0
    for x in p:
        hits = [i for i in range(ts.nodes_per_axis) if ts.edges[i] <= x <= ts.edges[i + 1]]
        if not hits:
            return -1
        flat = flat * ts.nodes_per_axis + hits[0]
    return flat


@SETTINGS
@given(st.data(), st.integers(1, 2), st.integers(0, 2))
def test_locate_many_matches_brute_force(data, dim, j):
    ts = build_level(j, TileConfig(dim=dim))
    hw = ts.outer_halfwidth
    # points on the tile edges, inside and outside the outer box
    coord = st.one_of(st.sampled_from(ts.edges.tolist()), st.floats(-hw - 1.0, hw + 1.0))
    pts = np.array(data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=20)))
    got = locate_many(ts, pts)
    assert got.tolist() == [_brute_force_tile(ts, p) for p in pts]
    # the per-axis grid locator against the oracle on a tensor grid of such coordinates
    axes = [np.array(data.draw(st.lists(coord, min_size=1, max_size=8))) for _ in range(dim)]
    grid = ts.locate_grid(axes)
    assert grid.shape == tuple(len(a) for a in axes)
    assert grid.ravel().tolist() == locate_many(ts, tensor_points(axes)).tolist()


def _cubature_error(ts, k, l):
    """|sum_R tau_R h_k(x_R) h_l(x_R) - delta_kl| on a 1-D level."""
    h = hermite_functions(max(k, l), ts.zeros)
    return abs(float(np.sum(ts.tau1d * h[k] * h[l])) - (k == l))


@SETTINGS
@given(st.data(), st.integers(0, 4))
def test_cubature_exact_to_degree_4n_minus_1(data, j):
    ts = build_level(j, TileConfig())
    dmax = 4 * ts.degree - 1
    k = data.draw(st.integers(0, dmax))
    l = data.draw(st.integers(0, dmax - k))
    assert _cubature_error(ts, k, l) <= 1e-12


@pytest.mark.parametrize("j", range(5))
def test_cubature_fails_past_its_degree(j):
    # negative control: h_{2N_j} vanishes at every node, so the rule gives
    # 0 for its square where the integral is 1
    ts = build_level(j, TileConfig())
    m = 2 * ts.degree
    assert _cubature_error(ts, m, m) > 0.5
