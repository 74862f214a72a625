"""Measurement harness: molecules, cross-scale decay, operator estimates."""

import math
import tracemalloc

import numpy as np
import pytest

from hermband import core, estimates, lp
from hermband.core import SpectralFunction, projector_kernel_sequence
from hermband.estimates import (
    Molecule,
    MoleculeParams,
    check_molecules,
    random_sparse_sequence,
    refinement_stable,
    sample_tiles,
    spectral_bump_molecule,
    sup_per_level,
    tsigma_moment,
    verify_almost_orthogonality,
    verify_ao,
    verify_boundedness,
    verify_hoppe,
    verify_maximal,
    verify_molecules,
    verify_qq,
    verify_synthesis,
    verify_tcanc,
    verify_tiles,
    verify_tsmooth,
)
from hermband.frames import needlet
from hermband.lp import SmoothProfile, bump_system
from hermband.norms import SpaceParams
from hermband.symbols import (apply_pseudomultiplier, band_sum_symbol, hermite_multiplier,
                              separable_symbol)
from hermband.tiles import TileConfig, build_level, level_degree


def needlet_molecule(sys, tile):
    return Molecule(needlet(sys, tile), tile.level, tile.node, tile.measure)


def test_refinement_stable_basics():
    ok, change = refinement_stable(1.0, 1.05)
    assert ok and change == pytest.approx(0.05 / 1.05)
    ok, change = refinement_stable(1.0, 1.3)
    assert not ok
    ok, change = refinement_stable(0.0, 0.0)
    assert ok and change == 0.0


def test_molecule_params_validation():
    MoleculeParams(-1, 1.0, 2, 0.5, 3.0)        # the infinite-cancellation case
    with pytest.raises(ValueError):
        MoleculeParams(1, 1.5, 2, 0.5, 3.0)
    with pytest.raises(ValueError):
        MoleculeParams(1, 0.5, 2, 0.5, 0.5)
    with pytest.raises(ValueError):
        MoleculeParams(-2, 1.0, 2, 0.5, 3.0)


def test_check_molecule_zero_function(cfg):
    mol = Molecule(SpectralFunction(1, 0), 1, [0.0], 0.5)
    rep = check_molecules([mol], MoleculeParams(), [np.linspace(-8, 8, 101)], 0)[0]
    assert rep.constant == 0.0


def test_check_molecule_needlet_finite(sys, cfg):
    ts = build_level(1, cfg)
    mol = needlet_molecule(sys, ts.tile((ts.nodes_per_axis // 2,)))
    rep = check_molecules([mol], MoleculeParams(1, 0.5, 2, 0.5, 3.0),
                          [np.linspace(-12, 12, 401)], 0)[0]
    assert math.isfinite(rep.constant) and rep.constant > 0
    assert set(rep.details) >= {"size", "holder", "moment"}


def _count_table_builds(monkeypatch):
    """The shapes of the points of every Hermite table built from here on."""
    built = []
    build = core.hermite_functions

    def counted(k_max, t):
        built.append(np.shape(t))
        return build(k_max, t)

    monkeypatch.setattr(core, "hermite_functions", counted)
    return built


def test_check_molecules_builds_one_table_per_level_grid_and_offset(sys, cfg, monkeypatch):
    params = MoleculeParams(1, 0.5, 2, 0.5, 3.0)
    axes = [np.linspace(-12, 12, 201)]
    levels = {j: [needlet_molecule(sys, build_level(j, cfg).tile((i,))) for i in idx]
              for j, idx in ((2, (9, 10, 11)), (3, (30, 31)))}
    alone = {j: [check_molecules([mol], params, axes, 0)[0].to_json_dict() for mol in mols]
             for j, mols in levels.items()}
    built = _count_table_builds(monkeypatch)
    for j, mols in levels.items():
        assert [rep.to_json_dict() for rep in check_molecules(mols, params, axes, 0)] == alone[j]
    # in 1-D with N = 2: the grid and the 8 offsets of gamma = (2,), once per level
    assert built.count((201,)) == 2 * 9


def test_check_molecules_in_2d_measures_the_grid_values(cfg, monkeypatch):
    # each size constant is the sup over the grid of |d^gamma m| / its bound, with the
    # derivative evaluated point by point
    ts = build_level(2, TileConfig(dim=2))
    mid = ts.nodes_per_axis // 2
    sys2 = bump_system()
    mols = [needlet_molecule(sys2, ts.tile((mid + d, mid - d))) for d in (-2, 0, 3)]
    params = MoleculeParams(1, 0.5, 2, 0.5, 4.0)
    axes = [np.linspace(-10, 10, 61)] * 2
    pts = core.tensor_points(axes)
    tail = (1.0 + np.linalg.norm(pts, axis=1) / 4.0) ** -2.5
    for mol, rep in zip(mols, check_molecules(mols, params, axes, 0)):
        loc = (1.0 + 4.0 * np.linalg.norm(pts - mol.center, axis=1)) ** -4.0
        for gamma in ((0, 0), (1, 0), (1, 1), (0, 2)):
            vals = np.real(mol.derivative(gamma).eval_points(pts))
            expect = np.max(np.abs(vals) / (mol.measure ** -0.5 * 4.0 ** sum(gamma) * loc * tail))
            assert rep.details["size_per_gamma"][str(gamma)] == pytest.approx(expect, rel=1e-12)
        assert rep.constant == max(rep.details[k] for k in ("size", "holder", "moment"))


def test_check_molecules_2d_memory_is_bounded(monkeypatch):
    # six level-2 molecules on a 401^2 grid: per-axis tables and one block of
    # stacked grid values, where per-point tables took 390 MB
    ts = build_level(2, TileConfig(dim=2))
    mid = ts.nodes_per_axis // 2
    sys2 = bump_system()
    mols = [needlet_molecule(sys2, ts.tile((mid + d, mid + e)))
            for d, e in ((0, 0), (1, 0), (0, 2), (-1, 1), (3, -2), (-4, -4))]
    for mol in mols:
        for gamma in core.multi_indices(2, 2):
            mol.derivative(gamma)
    tracemalloc.start()
    try:
        reps = check_molecules(mols, MoleculeParams(1, 0.5, 2, 0.5, 4.0),
                               [np.linspace(-14, 14, 401)] * 2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in reps)
    assert peak <= 64 * 2 ** 20


def test_a_nan_value_makes_the_sup_nan_and_the_report_fail(sys, cfg, monkeypatch):
    per = sup_per_level(range(2), [(0, math.nan), (1, 2.0)])
    assert math.isnan(per[0]) and per[1] == 2.0
    assert math.isnan(sup_per_level(range(1), [(0, 1.0), (0, math.nan), (0, 0.5)])[0])
    mol = Molecule(SpectralFunction(1, 2, np.array([1.0, math.nan, 0.0])), 1, [0.0], 0.5)
    rep = check_molecules([mol], MoleculeParams(), [np.linspace(-8, 8, 101)], 0)[0]
    assert math.isnan(rep.constant) and not rep.passed
    monkeypatch.setattr(estimates, "tsigma_moment", lambda *args, **kwargs: complex(math.nan))
    rep = verify_tcanc(separable_symbol(1), sys, cfg, m=0, levels=1, tiles_per_level=1, seed=0)
    assert math.isnan(rep.per_level[1]) and math.isnan(rep.constant) and not rep.passed


@pytest.mark.parametrize("suite", ["synthesis", "boundedness"])
def test_a_nan_norm_makes_the_constant_nan_and_the_report_fail(sys, cfg, monkeypatch, suite):
    # the first norm a suite takes is NaN: its fold keeps the NaN, whichever
    # finite ratios follow
    norm, calls = estimates.space_norm, []

    def first_nan(*args):
        calls.append(args)
        return math.nan if len(calls) == 1 else norm(*args)

    monkeypatch.setattr(estimates, "space_norm", first_nan)
    if suite == "synthesis":
        rep = verify_synthesis(sys, cfg, J=1, n_sequences=3, seed=0)
    else:
        rep = verify_boundedness(hermite_multiplier(lambda xi: 1.0, 1), 0.0,
                                 [SpaceParams("F", 0.0, 2.0, 2.0)], sys, cfg, K=4, n_funcs=3,
                                 seed=0)
    assert len(calls) > 2
    assert math.isnan(rep.constant) and not rep.passed


def test_verify_molecules_computes_each_moment_once(sys, cfg, monkeypatch):
    moment, calls = SpectralFunction.moment, []

    def counted(self, center, gamma):
        calls.append(tuple(gamma))
        return moment(self, center, gamma)

    monkeypatch.setattr(SpectralFunction, "moment", counted)
    rep = verify_molecules(sys, cfg, MoleculeParams(1, 0.5, 2, 0.5, 3), levels=4, seed=0)
    # the 1-D command's scan: 80 molecules and gamma = (0,), (1,), each moment
    # computed once for both grids
    assert len(calls) == 160 and set(calls) == {(0,), (1,)}
    assert rep.passed


def test_verify_tiles_builds_one_table_per_level(cfg, monkeypatch):
    built = _count_table_builds(monkeypatch)
    rep = verify_tiles(cfg, levels=4, cubature_pairs=4, seed=0)
    # cubature pairs are drawn on levels 0-3, each from one table of degree 4 N_j - 1
    assert built == [(2 * level_degree(j, TileConfig.delta_star),) for j in range(4)]
    assert rep.passed


def test_moment_cancellation_separates_controls(cfg):
    # order-(M+1) spectral vanishing kills the low moments; the plain
    # exponential profile does not
    axes = [np.linspace(-10, 10, 201)]
    params = MoleculeParams(1, 0.5, 2, 0.5, 3.0)
    good = spectral_bump_molecule(lambda u: u ** 2 * np.exp(-u), 2, [0.0], cfg)
    bad = spectral_bump_molecule(lambda u: np.exp(-u), 2, [0.0], cfg)
    rep_good = check_molecules([good], params, axes, 0)[0]
    rep_bad = check_molecules([bad], params, axes, 0)[0]
    assert rep_bad.details["moment"] > 100.0 * max(rep_good.details["moment"], 1e-30)


def test_molecule_moment_oracle(sys, cfg):
    # the exact Gauss-Hermite moment against a brute-force trapezoid integral
    ts = build_level(1, cfg)
    mol = needlet_molecule(sys, ts.tile((ts.nodes_per_axis // 2,)))
    y = np.linspace(-14, 14, 8001)
    vals = np.real(mol.f.eval_points(y[:, None]))
    for gamma in ((0,), (1,), (2,)):
        brute = float(np.trapezoid((y - mol.center[0]) ** gamma[0] * vals, y))
        assert mol.moment(gamma) == pytest.approx(brute, abs=1e-8)


def test_sample_tiles_deterministic_and_valid(cfg):
    ts = build_level(2, cfg)
    a = sample_tiles(ts, 10, np.random.default_rng(5))
    b = sample_tiles(ts, 10, np.random.default_rng(5))
    assert [t.index for t in a] == [t.index for t in b]
    assert len(a) == 10
    for t in a:
        assert 0 <= t.index[0] < ts.nodes_per_axis


def test_tsigma_identity_matches_needlet_derivatives(sys, cfg):
    # with sigma = 1, T_sigma phi_R = phi_R and the Leibniz evaluation must
    # coincide with direct ladder differentiation
    ts = build_level(2, cfg)
    tile = ts.tile((ts.nodes_per_axis // 2,))
    mol = needlet_molecule(sys, tile)
    x = np.linspace(-6, 6, 41)
    pts = x[:, None]
    sig = hermite_multiplier(lambda xi: 1.0, 1)
    phi_R = needlet(sys, tile)
    for gamma in ((0,), (1,), (2,)):
        got = np.real(apply_pseudomultiplier(sig, phi_R, [x], gamma).samples)
        expect = np.real(mol.derivative(gamma).eval_points(pts))
        assert np.max(np.abs(got - expect)) < 1e-11


# each tile-sampling suite at a small size, the levels its scan samples in
# order, and details its report must carry
SCANS = {
    "molecules": (lambda sys, cfg: verify_molecules(
        sys, cfg, MoleculeParams(1, 0.5, 2, 0.5, 3.0), levels=2, tiles_per_level=1,
        grid_points=51, seed=0), [0, 1, 2], {}),
    "ao": (lambda sys, cfg: verify_ao(sys, cfg, k_levels=(1, 2), tiles_per_level=1,
                                      grid_points=51, seed=0), [1, 2], {}),
    # every (kappa, eps) pair is measured on the same tiles, where the largest
    # pair gives the least sup, so that pair is the one reported
    "tsmooth": (lambda sys, cfg: verify_tsmooth(
        band_sum_symbol(sys, 1), sys, cfg, m=0, levels=2, tiles_per_level=1, grid_points=51,
        seed=0),
        [0, 1, 2], {"kappa": 0.5, "epsilon": 16.5}),
    "tcanc": (lambda sys, cfg: verify_tcanc(
        separable_symbol(1), sys, cfg, m=0, levels=2, tiles_per_level=1, seed=0),
        [0, 1, 2], {}),
    # one scan per random sequence
    "synthesis": (lambda sys, cfg: verify_synthesis(sys, cfg, J=1, n_sequences=2, seed=0),
                  [0, 1, 0, 1], {}),
}


@pytest.mark.parametrize("suite", list(SCANS))
def test_scan_samples_tiles_once_per_level(sys, cfg, monkeypatch, suite):
    run, levels, details = SCANS[suite]
    sample = estimates.sample_tiles
    levels_sampled = []

    def counted(ts, count, rng):
        levels_sampled.append(ts.level)
        return sample(ts, count, rng)

    monkeypatch.setattr(estimates, "sample_tiles", counted)
    rep = run(sys, cfg)
    assert levels_sampled == levels
    assert rep.passed and details.items() <= rep.details.items()
    if rep.per_level:
        assert sorted(rep.per_level) == levels
        assert rep.constant == max(rep.per_level.values())


@pytest.mark.parametrize("suite", ["tsmooth", "tcanc"])
def test_scan_builds_each_needlet_once(sys, cfg, monkeypatch, suite):
    run = SCANS[suite][0]
    sample, build = estimates.sample_tiles, estimates.needlet
    sampled, built = [], []

    def counted_sample(ts, count, rng):
        tiles = sample(ts, count, rng)
        sampled.extend((t.level, t.index) for t in tiles)
        return tiles

    def counted_build(sys_, tile):
        built.append((tile.level, tile.index))
        return build(sys_, tile)

    monkeypatch.setattr(estimates, "sample_tiles", counted_sample)
    monkeypatch.setattr(estimates, "needlet", counted_build)
    run(sys, cfg)
    assert built == sampled


def test_tsigma_moment_identity_oracle(sys, cfg):
    ts = build_level(2, cfg)
    tile = ts.tile((ts.nodes_per_axis // 2,))
    mol = needlet_molecule(sys, tile)
    sig = hermite_multiplier(lambda xi: 1.0, 1)
    for gamma in ((0,), (1,)):
        got = tsigma_moment(sig, needlet(sys, tile), tile.node, gamma)
        assert abs(got - mol.moment(gamma)) < 1e-10


def test_ao_negative_control_fails(sys, cfg):
    # no spectral vanishing at 0 -> the k > j moment-side decay is too slow
    params = MoleculeParams(1, 0.5, 2, 0.5, 3.0)
    axes = [np.linspace(-12, 12, 401)]
    mols = [spectral_bump_molecule(lambda u: np.exp(-u), k, [0.0], cfg)
            for k in (3, 4)]
    rep = verify_almost_orthogonality(sys, mols, params, range(0, 8), 2.0, axes)
    assert not rep.passed
    assert not rep.details["slope_pass"]["k>j"]


def test_ao_needlets_pass_small(sys, cfg):
    params = MoleculeParams(1, 0.5, 2, 0.5, 3.0)
    axes = [np.linspace(-12, 12, 401)]
    mols = []
    for k in (2, 3):
        ts = build_level(k, cfg)
        mols.append(needlet_molecule(sys, ts.tile((ts.nodes_per_axis // 2,))))
    rep = verify_almost_orthogonality(sys, mols, params, range(0, 7), 2.0, axes)
    assert rep.passed
    assert math.isfinite(rep.constant)


def test_random_sparse_sequence_shape(cfg):
    s = random_sparse_sequence(cfg, 2, np.random.default_rng(0))
    for j in range(3):
        ts = build_level(j, cfg)
        assert s.levels[j].shape == (ts.nodes_per_axis,)
        assert np.count_nonzero(s.levels[j]) <= 8


def test_verify_synthesis_small(sys, cfg):
    rep = verify_synthesis(sys, cfg, J=2, n_sequences=5, seed=1)
    assert rep.passed
    assert 0.0 < rep.constant < 10.0


def test_verify_maximal_small(cfg):
    rep = verify_maximal(cfg, seed=0)
    assert rep.passed
    assert rep.constant >= 1.0 - 1e-9


def test_estimate_report_json(sys, cfg):
    rep = verify_synthesis(sys, cfg, J=1, n_sequences=2, seed=0)
    d = rep.to_json_dict()
    assert d["estimate"] == "synthesis"
    import json
    json.dumps(d)       # must be serializable as-is


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_qq_measures_the_kernel_of_rn(n):
    # Q_N(x, x) of R^n peaks at the origin, a point of the scanned line, so
    # the growth constant is sum_{k <= N} P_k(0, 0) over N^{n/2}
    rep = verify_qq(TileConfig(dim=n))
    oracle = projector_kernel_sequence(64, np.zeros(n), np.zeros(n)).sum() / 64.0 ** (n / 2.0)
    assert rep.constant == pytest.approx(oracle, rel=1e-12)
    assert 0.25 < rep.details["fitted_vartheta"] < 1.0


def test_verify_hoppe_measures_each_profile_sup_once(monkeypatch):
    # levels 1..5 use the band profile phi only, at the orders N = 2, 3, 4
    derivative, orders = SmoothProfile.derivative, []

    def counted(self, u, order):
        orders.append(order)
        return derivative(self, u, order)

    monkeypatch.setattr(SmoothProfile, "derivative", counted)
    rep = verify_hoppe(bump_system(), 1)
    assert sorted(orders) == [2, 3, 4]
    assert rep.passed


def test_verify_kernel_builds_each_kernel_column_once(sys, monkeypatch):
    """One band kernel column per level for the decay scan and one per (j, x0)
    for the moments, each of which reads all six |gamma| <= 2 moments in 2-D."""
    built = []
    build = lp.lp_delta

    def counted(*args, **kwargs):
        built.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(lp, "lp_delta", counted)
    monkeypatch.setattr(estimates, "lp_delta", counted)
    levels = 2
    rep = estimates.verify_kernel(sys, TileConfig(dim=2), levels=levels)
    assert math.isfinite(rep.constant)
    assert len(built) == (levels + 1) + 3 * levels
