"""Command-line interface: file formats, round trips, exit codes."""

import csv
import io
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from hermband import estimates
from hermband.cli import _tile_config, build_parser, main
from hermband.core import SpectralFunction, random_spectral
from hermband.norms import QuadratureBox
from hermband.symbols import apply_pseudomultiplier, symbol_from_descriptor
from hermband.tiles import TileConfig

from oracles import grid_csv


def _write_function(path, f):
    path.write_text(json.dumps(f.to_json_dict(), indent=1))


def _read_function(path):
    return SpectralFunction.from_json_dict(json.loads(path.read_text()))


@pytest.fixture()
def v10_file(tmp_path):
    rng = np.random.default_rng(0)
    f = random_spectral(1, 10, rng, real=True)
    path = tmp_path / "f.json"
    _write_function(path, f)
    return path, f


def test_nodes_csv(tmp_path):
    out = tmp_path / "nodes.csv"
    assert main(["nodes", "--level", "0", "--dim", "1", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["level", "node_index", "x1", "tau", "measure", "lo1", "hi1"]
    assert len(rows) == 1 + 10


def test_delta_star_reaches_the_envelope_scale(tmp_path):
    # epsilon = 4 (1 + 4 delta_star)^2 is 4.6656 at delta_star = 0.02; with the
    # default's 4.84 these read 1.7728840462061726 and 32.72310922911857
    for suite, key, value in (("tiles", "tile_control", 1.724626346810851),
                              ("qq", "ebound_constant", 31.35607822903038)):
        out = tmp_path / f"{suite}.json"
        assert main(["verify", suite, "--delta-star", "0.02", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["details"][key] == pytest.approx(value, rel=1e-13)


def test_cli_tile_config_is_the_default_up_to_level_8():
    # tile sets are cached per (level, config), so levels built under
    # TileConfig(dim=1) are the ones these commands read
    parser = build_parser()
    for argv in (["nodes", "--level", "8"], ["nodes", "--level", "6"],
                 ["analyze", "--in", "f.json", "--levels", "4"],
                 ["synthesize", "--in", "c.json"], ["verify", "tiles", "--levels", "4"]):
        assert _tile_config(parser.parse_args(argv)) == TileConfig(dim=1)


def test_windows_csv(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["windows", "--levels", "2", "--kmax", "8", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["j", "k", "lambda", "phi", "psi"]
    assert len(rows) == 1 + 3 * 9


def test_analyze_synthesize_roundtrip(tmp_path, v10_file):
    fpath, f = v10_file
    coeffs = tmp_path / "c.json"
    back = tmp_path / "g.json"
    assert main(["analyze", "--in", str(fpath), "--levels", "4",
                 "--out", str(coeffs)]) == 0
    assert main(["synthesize", "--in", str(coeffs), "--out", str(back)]) == 0
    g = _read_function(back)
    assert g.sub(f).norm2() / f.norm2() < 1e-8


def test_norm_report(tmp_path, v10_file):
    fpath, f = v10_file
    out = tmp_path / "n.json"
    assert main(["norm", "--in", str(fpath), "--space", "F", "--alpha", "0",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["warnings"] == []
    # F^{0,2}_2 is comparable to L^2
    assert 0.2 * f.norm2() < rep["value"] < 5.0 * f.norm2()


def test_norm_deterministic_output(tmp_path, v10_file):
    fpath, _ = v10_file
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["norm", "--in", str(fpath), "--out", str(a)])
    main(["norm", "--in", str(fpath), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_apply_identity_symbol(tmp_path, v10_file):
    fpath, f = v10_file
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "multiplier", "dim": 1, "expression": "1 + 0*xi"}))
    out = tmp_path / "g.csv"
    assert main(["apply", "--symbol", str(sym), "--in", str(fpath),
                 "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    axes = QuadratureBox.for_degree(f.max_degree, 1).axes(1)
    expect = np.real(f.eval_points(axes[0][:, None]))
    assert np.allclose(data[:, 0], axes[0])
    assert np.max(np.abs(data[:, 1] - expect)) < 1e-10


def test_linearize_square(tmp_path, v10_file):
    fpath, f = v10_file
    out = tmp_path / "h.csv"
    assert main(["linearize", "--in", str(fpath), "--power", "2",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    axes = QuadratureBox.for_degree(f.max_degree, 1).axes(1)
    expect = np.real(f.eval_points(axes[0][:, None])) ** 2
    assert np.max(np.abs(data[:, 1] - expect)) < 1e-6


def test_needlet_command(tmp_path):
    out = tmp_path / "nd.json"
    assert main(["needlet", "--level", "1", "--index", "11", "--out", str(out)]) == 0
    f = _read_function(out)
    assert f.dim == 1 and f.norm2() > 0


def test_missing_input_exits_1(tmp_path):
    assert main(["analyze", "--in", str(tmp_path / "nope.json"),
                 "--levels", "2"]) == 1


def test_dimension_mismatch_exits_1(tmp_path, v10_file, capsys):
    fpath, _ = v10_file
    assert main(["analyze", "--in", str(fpath), "--levels", "2", "--dim", "2"]) == 1
    f2 = tmp_path / "f2.json"
    _write_function(f2, random_spectral(2, 3, np.random.default_rng(1), real=True))
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "multiplier", "dim": 2, "expression": "1/(1+xi)"}))
    for argv in (["norm", "--in", str(f2)],
                 ["norm", "--in", str(fpath), "--dim", "2"],
                 ["apply", "--symbol", str(sym), "--in", str(f2)],
                 ["linearize", "--in", str(f2)]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1, argv
        assert capsys.readouterr().err.startswith("error:")
    assert main(["norm", "--in", str(f2), "--dim", "2", "--out", str(tmp_path / "n.json")]) == 0


def test_bad_symbol_exits_1(tmp_path, v10_file):
    fpath, _ = v10_file
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "nope"}))
    assert main(["apply", "--symbol", str(sym), "--in", str(fpath)]) == 1


# symbol descriptors with a missing key, a wrong-typed value, no object, an
# expression that does not parse, or a T_sigma f that is not finite
BAD_SYMBOLS = {
    "no-expression": {"kind": "multiplier"},
    "null-dim": {"kind": "separable", "dim": None},
    "string-x-scale": {"kind": "separable", "x_scale": "a"},
    "array-document": [1],
    "unparsable-expression": {"kind": "multiplier", "expression": "xi("},
    "zero-x-scale": {"kind": "separable", "x_scale": 0},
    "zero-xi-scale": {"kind": "separable", "xi_scale": 0},
    "division-by-zero": {"kind": "multiplier", "expression": "1/0"},
    "overflowing-power": {"kind": "multiplier", "expression": "10**10**5"},
    "pole-on-spectrum": {"kind": "multiplier", "expression": "1/(xi-3)"},
    "negative-sqrt-multiplier": {"kind": "multiplier", "expression": "sqrt(xi-5)"},
    "negative-sqrt-expression": {"kind": "custom-expression", "expression": "sqrt(xi-5)"},
    "annulus-j-max-past-1023": {"kind": "annulus", "j_max": 1100},
    "annulus-j-max-negative": {"kind": "annulus", "j_max": -5},
    "band-sum-overflow": {"kind": "band-sum", "beta": 1e4},
}


@pytest.mark.parametrize("bad", list(BAD_SYMBOLS))
def test_bad_symbol_descriptor_exits_1(tmp_path, v10_file, capsys, bad):
    fpath, _ = v10_file
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps(BAD_SYMBOLS[bad]))
    assert main(["apply", "--symbol", str(sym), "--in", str(fpath),
                 "--out", str(tmp_path / "g.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_expression_error_on_the_zero_function_names_the_expression(tmp_path, capsys):
    # the zero function has no degree, so the expression meets an empty xi
    f0 = tmp_path / "f0.json"
    f0.write_text(json.dumps({"dim": 1, "max_degree": 2, "coeffs": []}))
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "custom-expression", "expression": "1/x1"}))
    assert main(["apply", "--symbol", str(sym), "--in", str(f0),
                 "--out", str(tmp_path / "g.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: expression '1/x1': divide by zero")


@pytest.mark.parametrize("dim,name", [(1, "x1"), (2, "x2"), (1, "absx")])
def test_multiplier_naming_an_x_variable_exits_1_and_names_it(tmp_path, capsys, dim, name):
    # a multiplier depends on xi alone; an x in its expression is refused, not read as 0
    fpath = tmp_path / "f.json"
    _write_function(fpath, random_spectral(dim, 4, np.random.default_rng(dim), real=True))
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "multiplier", "dim": dim,
                               "expression": f"(1+{name})/(1+xi)"}))
    assert main(["apply", "--dim", str(dim), "--symbol", str(sym), "--in", str(fpath),
                 "--out", str(tmp_path / "g.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{name}'" in err and err.count("\n") == 1
    assert not (tmp_path / "g.csv").exists()


def test_norm_report_holds_no_infinity_token(capsys):
    # --p inf and --q inf are written as the string "inf", as verify reports do
    f1 = str(Path(__file__).parent / "golden" / "f1.json")
    assert main(["norm", "--in", f1, "--space", "B", "--p", "inf", "--q", "inf"]) == 0

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    rep = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert rep["config"]["p"] == rep["config"]["q"] == "inf"


def test_2d_apply_csv_is_the_per_point_csv(tmp_path):
    # the 241^2 = 58 081 grid rows are written 2048 at a time: 29 blocks, the last partial
    f2 = Path(__file__).parent / "golden" / "f2.json"
    sym = {"kind": "multiplier", "dim": 2, "expression": "1/(1+xi)"}
    sympath, out = tmp_path / "sym.json", tmp_path / "Tf.csv"
    sympath.write_text(json.dumps(sym))
    assert main(["apply", "--dim", "2", "--symbol", str(sympath), "--in", str(f2),
                 "--out", str(out)]) == 0
    f = _read_function(f2)
    box = QuadratureBox.for_degree(f.max_degree, 2)
    g = apply_pseudomultiplier(symbol_from_descriptor(sym), f,
                               axes=estimates.eval_axes(box.half_width, box.points, 2))
    ref = io.StringIO()
    grid_csv(g, ref)
    lines = out.read_text().split("\n")
    assert len(lines) == 1 + 58081 + 1
    assert lines == ref.getvalue().split("\n")


def test_verify_suite_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    assert main(["verify", "hoppe", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True and "config" in rep

    failing = estimates.EstimateReport("hoppe", float("inf"), passed=False)
    monkeypatch.setattr(estimates, "verify_hoppe", lambda *a, **k: failing)
    assert main(["verify", "hoppe", "--out", str(out)]) == 2

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    rep = json.loads(out.read_text(), parse_constant=no_constant)
    assert rep["constant"] == "inf" and rep["passed"] is False


@pytest.mark.parametrize("suite", ["ao", "synthesis", "boundedness", "hoppe", "qq", "maximal",
                                   "embeddings", "linearize"])
def test_verify_levels_exits_1_where_ignored(monkeypatch, capsys, suite):
    def run(*args, **kwargs):
        raise AssertionError(f"verify {suite} ran")

    monkeypatch.setattr(estimates, f"verify_{suite}", run)
    assert main(["verify", suite, "--levels", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("suite", ["molecule", "tsmooth", "tcanc", "kernel", "tiles"])
@pytest.mark.parametrize("levels", ["-1", "7"])
def test_verify_levels_outside_the_buildable_range_exit_1(monkeypatch, capsys, suite, levels):
    def run(*args, **kwargs):
        raise AssertionError(f"verify {suite} ran")

    monkeypatch.setattr(estimates, "verify_molecules" if suite == "molecule" else f"verify_{suite}",
                        run)
    assert main(["verify", suite, "--levels", levels]) == 1
    assert capsys.readouterr().err.startswith(f"error: level {levels} is not buildable")


def test_verify_tcanc_scans_the_levels_asked_for(capsys):
    assert main(["verify", "tcanc", "--levels", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["scan"]["levels"] == rep["config"]["levels"] == 4
    assert sorted(rep["per_level"]) == ["0", "1", "2", "3", "4"]


def test_verify_3d_defaults_to_the_top_buildable_level(capsys):
    # 3-D admits levels 0-2, so the default of 3 levels comes down to 2
    assert main(["verify", "tcanc", "--dim", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["scan"]["levels"] == 2 and rep["config"]["levels"] is None


@pytest.mark.parametrize("dim, J", [(1, 3), (2, 3), (3, 2)])
def test_verify_synthesis_takes_the_top_buildable_level(monkeypatch, capsys, dim, J):
    # 3-D admits levels 0-2, so its synthesis sequences stop at level 2
    seen = []

    def run(sys, cfg, J, seed):
        seen.append(J)
        return estimates.EstimateReport("synthesis", 1.0)

    monkeypatch.setattr(estimates, "verify_synthesis", run)
    assert main(["verify", "synthesis", "--dim", str(dim), "--out", "/dev/null"]) == 0
    assert seen == [J] and capsys.readouterr().err == ""


@pytest.mark.parametrize("suite", ["tsmooth", "molecule", "linearize", "maximal"])
def test_verify_3d_grid_past_the_cap_exits_1(capsys, suite):
    # their 401^3 and 801^3 evaluation grids exceed tiles.NODES_MAX points
    start = time.perf_counter()
    assert main(["verify", suite, "--dim", "3"]) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["apply", "linearize"])
def test_3d_box_past_the_cap_exits_1(tmp_path, capsys, command):
    # the quadrature box of a 3-D f has 241^3 points, past tiles.NODES_MAX
    fpath, sym, out = (tmp_path / name for name in ("f.json", "sym.json", "Tf.csv"))
    _write_function(fpath, random_spectral(3, 4, np.random.default_rng(0), real=True))
    sym.write_text(json.dumps({"kind": "band-sum", "dim": 3}))
    argv = ["apply", "--symbol", str(sym)] if command == "apply" else ["linearize"]
    start = time.perf_counter()
    assert main(argv + ["--dim", "3", "--in", str(fpath), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_analyze_below_coverage_warns(tmp_path, capsys):
    # f1 has K = 10, so lambda_max = 21 and its coverage level is 4
    f1 = str(Path(__file__).parent / "golden" / "f1.json")
    out = str(tmp_path / "c.json")
    assert main(["analyze", "--in", f1, "--levels", "2", "--out", out]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning:") and "coverage level 4" in err and err.count("\n") == 1
    assert main(["analyze", "--in", f1, "--levels", "4", "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_linearize_below_coverage_warns_on_stderr_only(tmp_path, capsys):
    f1 = str(Path(__file__).parent / "golden" / "f1.json")
    out = tmp_path / "h.csv"
    assert main(["linearize", "--in", f1, "--levels", "2", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning:") and "coverage level 4" in err and err.count("\n") == 1
    assert main(["linearize", "--in", f1, "--levels", "2"]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert main(["linearize", "--in", f1, "--levels", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_analyze_writes_no_part_below_the_flush(tmp_path):
    # level 5 reaches nodes where h_k tau^{1/2} and the products with it underflow;
    # unflushed, such entries come out as low as 1e-322
    f = random_spectral(1, 31, np.random.default_rng(3), real=True)
    fpath, coeffs, back = (tmp_path / name for name in ("f.json", "c.json", "g.json"))
    _write_function(fpath, f)
    assert build_parser().parse_args(["analyze", "--in", "f", "--levels", "5"]).prune == 0.0
    assert main(["analyze", "--in", str(fpath), "--levels", "5", "--out", str(coeffs)]) == 0
    parts = [abs(e[p]) for lev in json.loads(coeffs.read_text())["levels"]
             for e in lev["entries"] for p in ("re", "im")]
    assert len(parts) > 1000
    assert not any(0.0 < p < 2.0 ** -511 for p in parts)
    assert main(["synthesize", "--in", str(coeffs), "--out", str(back)]) == 0
    assert _read_function(back).sub(f).norm2() <= 1e-10


# numeric flags outside their domain, each of which used to be accepted and
# write a meaningless (or, for a non-finite alpha, non-JSON) result
BAD_FLAGS = {
    "norm-alpha-nan": ["norm", "--alpha", "nan"],
    "norm-alpha-inf": ["norm", "--alpha", "inf"],
    "norm-B-alpha-inf": ["norm", "--space", "B", "--alpha=-inf"],
    "analyze-prune-nan": ["analyze", "--levels", "2", "--prune", "nan"],
    "analyze-prune-inf": ["analyze", "--levels", "2", "--prune", "inf"],
    "analyze-prune-negative": ["analyze", "--levels", "2", "--prune", "-1"],
    "analyze-levels-negative": ["analyze", "--levels", "-1"],
    "linearize-levels-negative": ["linearize", "--levels", "-1"],
    "windows-levels-negative": ["windows", "--levels", "-1"],
    "windows-kmax-negative": ["windows", "--kmax", "-1"],
    "windows-dim-zero": ["windows", "--dim", "0"],
    "windows-dim-negative": ["windows", "--dim", "-3"],
}


@pytest.mark.parametrize("space", [["--space", "B", "--p", "2", "--q", "2"],
                                   ["--space", "F", "--p", "1", "--q", "2"]])
def test_norm_past_the_float_range_exits_1(tmp_path, capsys, space):
    # the B Parseval sum of squares overflows a Python float, the F grid sum comes out inf
    fpath, out = tmp_path / "f.json", tmp_path / "n.json"
    fpath.write_text('{"dim": 1, "max_degree": 1, "coeffs": '
                     '[{"xi": [0], "re": 1e308}, {"xi": [1], "re": 1e308}]}')
    assert main(["norm", "--in", str(fpath), *space, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("bad", list(BAD_FLAGS))
def test_bad_numeric_flag_exits_1(tmp_path, v10_file, capsys, bad):
    argv = BAD_FLAGS[bad]
    if argv[0] != "windows":
        argv = argv + ["--in", str(v10_file[0])]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


_FUNCTION = ('{"dim": 1, "max_degree": 1, "coeffs": '
             '[{"xi": [0], "re": 1.0, "im": 0.0}, {"xi": [1], "re": %s, "im": 0.0}]}')

# (command reading the file, file text): non-finite values, missing keys,
# documents that are not objects, fractional indices, wrong-typed values,
# coefficient arrays too large to index or to allocate and multi-indices
# outside the coefficient array
BAD_FILES = {
    "NaN": ("norm", _FUNCTION % "NaN"),
    "Infinity": ("norm", _FUNCTION % "Infinity"),
    "no-coeffs": ("norm", '{"dim": 1, "max_degree": 1}'),
    "no-re": ("norm", '{"dim": 1, "max_degree": 1, "coeffs": [{"xi": [0], "im": 0.0}]}'),
    "no-dim": ("norm", '{"max_degree": 1, "coeffs": []}'),
    "function-array": ("norm", "[1, 2]"),
    "fractional-xi": ("norm", '{"dim": 1, "max_degree": 2, "coeffs": [{"xi": [1.7], "re": 1.0}]}'),
    "fractional-max-degree": ("norm",
                              '{"dim": 1, "max_degree": 2.9, "coeffs": [{"xi": [1], "re": 1.0}]}'),
    "fractional-dim": ("norm", '{"dim": 1.5, "max_degree": 1, "coeffs": []}'),
    "string-re": ("norm", _FUNCTION % '"abc"'),
    "huge-integer-re": ("norm", _FUNCTION % ("1" + "0" * 400)),
    "null-im": ("norm",
                '{"dim": 1, "max_degree": 1, "coeffs": [{"xi": [0], "re": 1.0, "im": null}]}'),
    "number-coeffs": ("norm", '{"dim": 1, "max_degree": 1, "coeffs": 5}'),
    "number-xi": ("norm", '{"dim": 1, "max_degree": 1, "coeffs": [{"xi": 0, "re": 1.0}]}'),
    "dim-1e300": ("norm", '{"dim": 1e300, "max_degree": 0, "coeffs": []}'),
    "dim-65": ("norm", '{"dim": 65, "max_degree": 0, "coeffs": []}'),
    "2^64-coefficients": ("norm", '{"dim": 64, "max_degree": 1, "coeffs": []}'),
    "114-PiB-array": ("norm", '{"dim": 3, "max_degree": 200000, "coeffs": []}'),
    "xi-of-wrong-length": ("norm",
                           '{"dim": 1, "max_degree": 2, "coeffs": [{"xi": [1, 0], "re": 1.0}]}'),
    "negative-xi": ("norm", '{"dim": 1, "max_degree": 2, "coeffs": [{"xi": [-1], "re": 1.0}]}'),
    "xi-above-max-degree": ("norm",
                            '{"dim": 1, "max_degree": 2, "coeffs": [{"xi": [3], "re": 1.0}]}'),
    "number-levels": ("synthesize", '{"levels": 5}'),
    "number-entries": ("synthesize", '{"levels": [{"j": 0, "entries": 5}]}'),
    "number-node": ("synthesize", '{"levels": [{"j": 0, "entries": [{"node": 1, "re": 1.0}]}]}'),
    "string-entry-re": ("synthesize",
                        '{"levels": [{"j": 0, "entries": [{"node": [1], "re": "abc"}]}]}'),
    "no-levels": ("synthesize", '{}'),
    "no-entries": ("synthesize", '{"levels": [{"j": 0}]}'),
    "sequence-array": ("synthesize", "[]"),
    "fractional-j": ("synthesize", '{"levels": [{"j": 0.5, "entries": []}]}'),
    "fractional-node": ("synthesize",
                        '{"levels": [{"j": 0, "entries": [{"node": [1.5], "re": 1.0}]}]}'),
}


# arrays past NumPy's 64 axes or 2^63 bytes: the error line names both sizes
NAMES_BOTH_SIZES = {"dim-1e300", "dim-65", "2^64-coefficients"}


@pytest.mark.parametrize("bad", list(BAD_FILES))
def test_non_finite_coefficient_exits_1(tmp_path, capsys, bad):
    command, text = BAD_FILES[bad]
    path = tmp_path / "f.json"
    path.write_text(text)
    assert main([command, "--in", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if bad in NAMES_BOTH_SIZES:
        assert re.search(r"\bdim\b", err) and "max_degree" in err, err


# values far longer than an error line: the line quotes about 40 characters of them
LONG_VALUES = {
    "400-digit-dim": lambda: '{"dim": 1%s, "max_degree": 0, "coeffs": []}' % ("0" * 400),
    "100000-key-coeffs": lambda: json.dumps(
        {"dim": 1, "max_degree": 1, "coeffs": {str(i): i for i in range(100_000)}}),
}


@pytest.mark.parametrize("name", list(LONG_VALUES))
def test_error_line_quotes_a_long_value_in_short(tmp_path, capsys, name):
    path = tmp_path / "f.json"
    path.write_text(LONG_VALUES[name]())
    assert main(["norm", "--in", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200, err[:300]


def test_integral_float_indices_load(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"dim": 1.0, "max_degree": 2.0, "coeffs": [{"xi": [1.0], "re": 1.0}]}')
    assert main(["norm", "--in", str(path), "--out", str(tmp_path / "n.json")]) == 0
    path = tmp_path / "c.json"
    path.write_text('{"levels": [{"j": 0.0, "entries": [{"node": [3.0], "re": 1.0}]}]}')
    assert main(["synthesize", "--in", str(path), "--out", str(tmp_path / "g.json")]) == 0


def _coefficient_file(tmp_path, node):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"levels": [
        {"j": 0, "entries": [{"node": node, "re": 1.0, "im": 0.0}]}]}))
    return path


def _assert_bad_index(tmp_path, capsys, node):
    """synthesize on a file holding node, and needlet --index node, both exit 1."""
    path = _coefficient_file(tmp_path, node)
    assert main(["synthesize", "--in", str(path), "--out", str(tmp_path / "g.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    index = ",".join(str(i) for i in node)
    assert main(["needlet", "--level", "2", "--index", index,
                 "--out", str(tmp_path / "nd.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "nd.json").exists()


def test_negative_node_index_exits_1(tmp_path, capsys):
    _assert_bad_index(tmp_path, capsys, [-1])


def test_out_of_range_node_index_exits_1(tmp_path, capsys):
    # level 2 has 72 nodes per axis
    _assert_bad_index(tmp_path, capsys, [500])


def test_node_index_of_wrong_length_exits_1(tmp_path, capsys):
    _assert_bad_index(tmp_path, capsys, [5, 7])


# (command, file text, the entry the error line names): a repeated entry
# would otherwise be read with the last one winning
DUPLICATE_ENTRIES = {
    "node": ("synthesize", '{"levels": [{"j": 2, "entries": [{"node": [3], "re": 1.0}, '
                           '{"node": [3], "re": 5.0}]}]}', "level 2: node [3]"),
    "level": ("synthesize", '{"levels": [{"j": 1, "entries": []}, {"j": 2, "entries": []}, '
                            '{"j": 1, "entries": []}]}', "level 1 "),
    "xi": ("norm", '{"dim": 1, "max_degree": 2, "coeffs": [{"xi": [1], "re": 1.0}, '
                   '{"xi": [1], "re": 4.0}]}', "xi = [1]"),
}


@pytest.mark.parametrize("case", list(DUPLICATE_ENTRIES))
def test_duplicate_entry_exits_1_naming_it(tmp_path, capsys, case):
    command, text, entry = DUPLICATE_ENTRIES[case]
    path = tmp_path / "in.json"
    path.write_text(text)
    assert main([command, "--in", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and entry in err and "more than once" in err
    assert not (tmp_path / "out").exists()
