"""Command-line interface: file formats, round trips, exit codes."""

import csv
import json

import numpy as np
import pytest

from hermband import estimates
from hermband.cli import main
from hermband.core import SpectralFunction, random_spectral
from hermband.norms import QuadratureBox


@pytest.fixture()
def v10_file(tmp_path):
    rng = np.random.default_rng(0)
    f = random_spectral(1, 10, rng, real=True)
    path = tmp_path / "f.json"
    f.save(path)
    return path, f


def test_nodes_csv(tmp_path):
    out = tmp_path / "nodes.csv"
    assert main(["nodes", "--level", "0", "--dim", "1", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["level", "node_index", "x1", "tau", "measure", "lo1", "hi1"]
    assert len(rows) == 1 + 10


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
    g = SpectralFunction.load(back)
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
    f = SpectralFunction.load(out)
    assert f.dim == 1 and f.norm2() > 0


def test_missing_input_exits_1(tmp_path):
    assert main(["analyze", "--in", str(tmp_path / "nope.json"),
                 "--levels", "2"]) == 1


def test_dimension_mismatch_exits_1(tmp_path, v10_file):
    fpath, _ = v10_file
    assert main(["analyze", "--in", str(fpath), "--levels", "2", "--dim", "2"]) == 1


def test_bad_symbol_exits_1(tmp_path, v10_file):
    fpath, _ = v10_file
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "nope"}))
    assert main(["apply", "--symbol", str(sym), "--in", str(fpath)]) == 1


def test_verify_suite_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    assert main(["verify", "hoppe", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True and "config" in rep

    failing = estimates.EstimateReport("hoppe", float("inf"), passed=False)
    monkeypatch.setattr(estimates, "verify_hoppe", lambda *a, **k: failing)
    assert main(["verify", "hoppe"]) == 2


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_coefficient_exits_1(tmp_path, capsys, bad):
    path = tmp_path / "f.json"
    path.write_text('{"dim": 1, "max_degree": 1, "coeffs": '
                    '[{"xi": [0], "re": 1.0, "im": 0.0}, {"xi": [1], "re": %s, "im": 0.0}]}' % bad)
    assert main(["norm", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def _coefficient_file(tmp_path, node):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"levels": [
        {"j": 0, "entries": [{"node": node, "re": 1.0, "im": 0.0}]}]}))
    return path


def test_negative_node_index_exits_1(tmp_path, capsys):
    path = _coefficient_file(tmp_path, [-1])
    assert main(["synthesize", "--in", str(path), "--out", str(tmp_path / "g.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_out_of_range_node_index_exits_1(tmp_path, capsys):
    path = _coefficient_file(tmp_path, [99])
    assert main(["synthesize", "--in", str(path), "--out", str(tmp_path / "g.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_node_index_of_wrong_length_exits_1(tmp_path, capsys):
    path = _coefficient_file(tmp_path, [0, 0])
    assert main(["synthesize", "--in", str(path), "--out", str(tmp_path / "g.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")
