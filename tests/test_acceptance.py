"""End-to-end acceptance gate: one test, one printed pass/fail line each.

Run with -s to see the per-criterion lines; each test also fails loudly on
its own if the measurement misses the pinned tolerance.
"""

import numpy as np

from hermband.core import random_spectral
from hermband.estimates import (
    MoleculeParams,
    check_molecules,
    refinement_stable,
    spectral_bump_molecule,
    verify_almost_orthogonality,
    verify_ao,
    verify_linearize,
    verify_embeddings,
    verify_molecules,
    verify_synthesis,
    verify_tcanc,
    verify_tiles,
    verify_tsmooth,
)
from hermband.lp import SmoothProfile, bump_system, smoothstep
from hermband.norms import QuadratureBox
from hermband.symbols import (
    apply_pseudomultiplier,
    band_sum_symbol,
    hermite_multiplier,
    separable_symbol,
)
from hermband.tiles import TileConfig, build_level, cubature, tile_geometry_constants

from oracles import (apply_hermite_operator, basis_function, check_admissible,
                     hermite_inner_products, roundtrip_residual, spectral_function)


def _line(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_orthonormality():
    gram = hermite_inner_products(100, q=128)
    err = float(np.max(np.abs(gram - np.eye(101))))
    _line(1, "orthonormality", err < 1e-10, f"max |<h_j,h_k> - delta| = {err:.3e}")


def test_criterion_02_cubature_exactness(cfg):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        j = int(rng.integers(0, 4))
        ts = build_level(j, cfg)
        dmax = 4 * ts.degree - 1
        k = int(rng.integers(0, dmax))
        ell = int(rng.integers(0, dmax - k + 1))
        fv = np.real(basis_function((k,)).eval_points(ts.node_array()))
        gv = np.real(basis_function((ell,)).eval_points(ts.node_array()))
        got = cubature(ts, fv, gv)
        expect = 1.0 if k == ell else 0.0
        worst = max(worst, abs(got - expect))
    _line(2, "cubature exactness", worst < 1e-9, f"worst error over 50 pairs = {worst:.3e}")


def test_criterion_03_frame_roundtrip(sys, cfg):
    rng = np.random.default_rng(1)
    f1 = random_spectral(1, 30, rng, real=True)
    r1, cov1 = roundtrip_residual(sys, f1, 4, cfg)
    sys2 = bump_system(0.6, 0.72)
    cfg2 = TileConfig(dim=2)
    f2 = random_spectral(2, 10, rng, real=True)
    r2, cov2 = roundtrip_residual(sys2, f2, 3, cfg2)
    ok = cov1 and cov2 and r1 < 1e-8 and r2 < 1e-7
    _line(3, "frame round-trip", ok, f"n=1 residual {r1:.3e}, n=2 residual {r2:.3e}")


def test_criterion_04_eigen_action():
    rng = np.random.default_rng(2)
    f = random_spectral(1, 20, rng, real=True)
    sig = hermite_multiplier(lambda xi: xi, 1)
    x = np.linspace(-8.0, 8.0, 201)
    pts = x[:, None]
    got = np.real(apply_pseudomultiplier(sig, f, [x]).samples)
    expect = np.real(apply_hermite_operator(f).eval_points(pts))
    rel = float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))
    _line(4, "eigen action", rel < 1e-9, f"relative grid error = {rel:.3e}")


def test_criterion_05_tile_geometry(cfg):
    rep = verify_tiles(cfg, levels=4, seed=0)
    rows = {j: tile_geometry_constants(build_level(j, cfg)) for j in (3, 4)}
    var = max(abs(rows[4][k] - rows[3][k]) / max(rows[4][k], rows[3][k])
              for k in range(3))
    covering = rep.details["covering_error"]
    ok = rep.passed and var < 0.10 and covering < 1e-12
    _line(5, "tile geometry", ok,
          f"c-variation j3->j4 = {var:.3%}, covering error = {covering:.2e}")


def test_criterion_06_needlets_are_molecules(sys, cfg):
    rep = verify_molecules(sys, cfg, MoleculeParams(1, 0.5, 2, 0.5, cfg.dim + 2), levels=4,
                           seed=0)
    _line(6, "needlets are molecules", rep.passed,
          f"constant = {rep.constant:.4g}, grid change = "
          f"{rep.details['grid_refinement_change']:.2e}")


def test_criterion_07_almost_orthogonality(sys, cfg):
    rep = verify_ao(sys, cfg, seed=0)
    sl = rep.details["slopes"]
    _line(7, "almost orthogonality", rep.passed,
          f"constant = {rep.constant:.4g}, slopes j>k {sl['j_above_k']:.2f} / "
          f"k>j {sl['k_above_j']:.2f}")


def test_criterion_08_tsigma_smooth_and_cancel(sys, cfg):
    sep = separable_symbol(1)
    band = band_sum_symbol(sys, 1)
    reps = [verify_tsmooth(band, sys, cfg, m=0, levels=3, seed=0),
            verify_tsmooth(sep, sys, cfg, m=0, levels=3, seed=0),
            verify_tcanc(sep, sys, cfg, m=0, levels=3, seed=0),
            verify_tcanc(band, sys, cfg, m=0, levels=3, seed=0)]
    ok = all(r.passed for r in reps)
    _line(8, "pseudo-multiplier smoothness/cancellation", ok,
          "constants = " + ", ".join(f"{r.constant:.4g}" for r in reps))


def test_criterion_09_synthesis(sys, cfg):
    box1 = QuadratureBox(12.0, 801)
    box2 = QuadratureBox(12.0, 1601)
    rep1 = verify_synthesis(sys, cfg, J=3, n_sequences=100, seed=0, box=box1)
    rep2 = verify_synthesis(sys, cfg, J=3, n_sequences=100, seed=0, box=box2)
    stable, change = refinement_stable(rep1.constant, rep2.constant)
    ok = rep1.passed and rep2.passed and stable
    _line(9, "synthesis estimate", ok,
          f"constant = {rep2.constant:.4g}, grid change = {change:.2e}")


def test_criterion_10_multiplier_parseval():
    rng = np.random.default_rng(3)
    f = random_spectral(1, 15, rng, real=True)
    seq = lambda xi: 1.0 / (1.0 + xi)

    def act(seq, f):
        return spectral_function(f.dim, f.max_degree,
                                 {xi: c * seq(2.0 * sum(xi) + f.dim)
                                  for xi, c in f.coeffs.items()})

    sup = max(abs(seq(2.0 * k + 1)) for k in range(16))
    bound_ok = act(seq, f).norm2() <= sup * f.norm2() * (1.0 + 1e-12)
    # equality witness: a symbol concentrated on one eigenvalue, applied to
    # the matching eigenfunction
    conc = lambda xi: 1.0 if xi == 11.0 else 0.0
    h5 = basis_function((5,))
    witness = abs(act(conc, h5).norm2() - 1.0 * h5.norm2())
    ok = bound_ok and witness < 1e-12
    _line(10, "multiplier Parseval bound", ok, f"equality witness error = {witness:.2e}")


def test_criterion_11_linearization(sys, cfg):
    rep = verify_linearize(sys, cfg, K=10, n_funcs=20, seed=0)
    non_increase = all(b <= a + 1e-12 for a, b in rep.details["refinement"].values())
    ok = rep.passed and non_increase
    _line(11, "linearization", ok,
          f"sup error = {rep.constant:.3e}, refinement non-increasing = {non_increase}")


def test_criterion_12_embeddings(sys, cfg):
    rep_half = verify_embeddings(sys, cfg, n_funcs=25, seed=0)
    rep = verify_embeddings(sys, cfg, n_funcs=50, seed=0)
    stable, change = refinement_stable(rep_half.constant, rep.constant)
    ok = rep.passed and rep_half.passed and stable
    _line(12, "embedding ratios", ok,
          f"constant = {rep.constant:.4g}, family-growth change = {change:.2e}")


def test_criterion_13_negative_controls(sys, cfg):
    params = MoleculeParams(1, 0.5, 2, 0.5, 3.0)
    axes = [np.linspace(-10, 10, 201)]
    good = spectral_bump_molecule(lambda u: u ** 2 * np.exp(-u), 2, [0.0], cfg)
    bad = spectral_bump_molecule(lambda u: np.exp(-u), 2, [0.0], cfg)
    bad_moment, good_moment = (
        check_molecules([mol], params, axes, 0)[0].details["moment"]
        for mol in (bad, good))
    mol_fails = bad_moment > 100.0 * max(good_moment, 1e-30)

    mols = [spectral_bump_molecule(lambda u: np.exp(-u), k, [0.0], cfg) for k in (3, 4)]
    ao = verify_almost_orthogonality(sys, mols, params, range(0, 8), 2.0,
                                     [np.linspace(-12, 12, 401)])
    ao_fails = not ao.passed

    bad_phi = SmoothProfile(
        lambda u: smoothstep((u - 0.1) / 0.2) * smoothstep((1.0 - u) / 0.2),
        support=(0.1, 1.0))
    import dataclasses
    adm_fails = not check_admissible(dataclasses.replace(sys, phi=bad_phi))["pass"]

    ok = mol_fails and ao_fails and adm_fails
    _line(13, "negative controls", ok,
          f"molecule fails = {mol_fails}, AO fails = {ao_fails}, "
          f"admissibility fails = {adm_fails}")
