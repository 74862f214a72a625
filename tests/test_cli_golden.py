"""Golden CLI outputs: each subcommand on two fixed spectral functions.

The files under tests/golden/ hold what the CLI wrote for these commands.
Outputs whose arithmetic is fixed are compared byte for byte; the ones
that sum pointwise Hermite evaluations (the B norm, apply, linearize, the
1-D seed-0 verify reports of the faster suites) may reorder those sums, so
unless their bytes agree they are compared within 1e-13 relative: JSON
numbers one by one, CSV values against the largest magnitude in their
column.

Regenerate the outputs that are meant to change, and only those, with
    PYTHONPATH=src python tests/test_cli_golden.py OUTPUT [OUTPUT ...]
(for example verify-boundedness.json); with no names it rewrites all of them.
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hermband
from hermband.cli import main

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(hermband.__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL_TOL = 1e-13

# f1: random_spectral(1, 10, default_rng(0), real=True)
# f2: random_spectral(2, 6, default_rng(1), real=True)
FIXTURES = ("f1.json", "f2.json")

SYMBOLS = {
    "multiplier": {"kind": "multiplier", "dim": 1, "expression": "1/(1+xi)"},
    "expression": {"kind": "custom-expression", "dim": 1,
                   "expression": "exp(-xi/8)*cos(x1)"},
    "separable": {"kind": "separable", "x_scale": 2.0, "xi_scale": 8.0},
    "band-sum": {"kind": "band-sum", "beta": -1.0},
    "annulus": {"kind": "annulus", "j_max": 6},
}

# (output file, argv without --out, compared byte for byte); a later case
# may read an earlier case's output
CASES = [
    ("nodes-1d.csv", ["nodes", "--level", "2"], True),
    ("nodes-2d.csv", ["nodes", "--level", "2", "--dim", "2"], True),
    ("windows.csv", ["windows"], True),
    ("needlet-1d.json", ["needlet", "--level", "2", "--index", "13"], True),
    ("needlet-1d-dual.json", ["needlet", "--level", "2", "--index", "13", "--dual"], True),
    ("needlet-2d.json", ["needlet", "--dim", "2", "--level", "2", "--index", "5,7"], True),
    ("needlet-2d-dual.json",
     ["needlet", "--dim", "2", "--level", "2", "--index", "5,7", "--dual"], True),
    ("analyze-1d.json", ["analyze", "--in", "f1.json", "--levels", "3"], True),
    ("synthesize-1d.json", ["synthesize", "--in", "analyze-1d.json"], True),
    ("analyze-2d.json", ["analyze", "--dim", "2", "--in", "f2.json", "--levels", "2"], True),
    ("synthesize-2d.json", ["synthesize", "--dim", "2", "--in", "analyze-2d.json"], True),
    ("norm-F-1d.json", ["norm", "--in", "f1.json", "--space", "F", "--alpha", "0",
                        "--p", "1", "--q", "2"], True),
    ("norm-F-2d.json", ["norm", "--dim", "2", "--in", "f2.json", "--space", "F", "--alpha", "0",
                        "--p", "1", "--q", "2"], True),
    ("norm-B-1d.json", ["norm", "--in", "f1.json", "--space", "B", "--alpha", "0",
                        "--p", "2", "--q", "2"], False),
    ("norm-B-2d.json", ["norm", "--dim", "2", "--in", "f2.json", "--space", "B", "--alpha", "0",
                        "--p", "2", "--q", "2"], False),
] + [
    (f"apply-{kind}.csv", ["apply", "--symbol", f"sym-{kind}.json", "--in", "f1.json"], False)
    for kind in SYMBOLS
] + [
    ("linearize.csv", ["linearize", "--in", "f1.json", "--power", "2"], False),
] + [
    (f"verify-{suite}.json", ["verify", suite], False)
    for suite in ("tcanc", "synthesis", "boundedness", "kernel", "hoppe", "qq", "maximal",
                  "embeddings", "ao", "linearize")
] + [
    (f"verify-{suite}.json", ["verify", suite, "--levels", levels], False)
    for suite, levels in (("molecule", "2"), ("tsmooth", "2"), ("tiles", "3"))
]


def _prepare(workdir):
    for name in FIXTURES:
        shutil.copy(os.path.join(GOLDEN, name), os.path.join(workdir, name))
    for kind, desc in SYMBOLS.items():
        with open(os.path.join(workdir, f"sym-{kind}.json"), "w") as fh:
            json.dump(desc, fh)


def _run_all(workdir):
    """Run every case in workdir (paths in the reports stay relative)."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for out, argv, _ in CASES:
            code = main(argv + ["--out", out])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
    finally:
        os.chdir(here)


def _golden_bytes(name):
    with gzip.open(os.path.join(GOLDEN, name + ".gz"), "rb") as fh:
        return fh.read()


def _numbers(text, name):
    """The numbers (JSON: a flat list; CSV: rows) and the rest, in file order."""
    if name.endswith(".json"):
        nums, rest = [], []

        def walk(v):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                if isinstance(v, dict):
                    for k in sorted(v):
                        rest.append(k)
                        walk(v[k])
                elif isinstance(v, list):
                    for x in v:
                        walk(x)
                else:
                    rest.append(v)
            else:
                nums.append(float(v))

        walk(json.loads(text))
        return nums, rest
    lines = text.splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]], lines[:1]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    _prepare(workdir)
    _run_all(workdir)
    return workdir


@pytest.mark.parametrize("name,exact", [(c[0], c[2]) for c in CASES], ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(outputs, name, exact):
    got = (outputs / name).read_bytes()
    want = _golden_bytes(name)
    if got == want:
        return
    assert not exact, f"{name} differs from its golden bytes"
    a, rest_a = _numbers(got.decode(), name)
    b, rest_b = _numbers(want.decode(), name)
    assert rest_a == rest_b
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and np.all(np.isfinite(a))
    # JSON scalars are compared one by one, CSV columns against their own scale
    scale = np.abs(b) if b.ndim == 1 else np.max(np.abs(b), axis=0)
    assert np.all(np.abs(a - b) <= REL_TOL * scale), \
        f"{name}: max deviation {np.max(np.abs(a - b)):.3e}"


@pytest.mark.parametrize("name,argv", [(c[0], c[1]) for c in CASES if c[1][0] != "verify"],
                         ids=[c[0] for c in CASES if c[1][0] != "verify"])
def test_stdout_matches_out_file(outputs, capsys, monkeypatch, name, argv):
    monkeypatch.chdir(outputs)
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (outputs / name).read_bytes()


def test_analyze_to_stdout_feeds_synthesize(tmp_path, capsys, monkeypatch):
    """analyze and synthesize without --out write the golden bytes to stdout."""
    _prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--in", "f1.json", "--levels", "3"]) == 0
    coeffs = capsys.readouterr().out.encode()
    assert coeffs == _golden_bytes("analyze-1d.json")
    (tmp_path / "c.json").write_bytes(coeffs)
    assert main(["synthesize", "--in", "c.json"]) == 0
    assert capsys.readouterr().out.encode() == _golden_bytes("synthesize-1d.json")


# Runs CLI commands in one process in which importing SciPy fails, and
# prints their exit codes as the last line of stdout.
_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from hermband.cli import main
cases = json.loads(sys.argv[1])
print(json.dumps({name: main(argv) for name, argv in cases.items()}))
"""

# the commands that build no tiles and run no SciPy-backed suite
NO_SCIPY_CASES = {
    "help": ["--help"],
    "windows": ["windows", "--out", "w.csv"],
    "norm-B": ["norm", "--in", "f1.json", "--space", "B", "--out", "nb.json"],
    "norm-F": ["norm", "--in", "f1.json", "--space", "F", "--p", "1", "--out", "nf.json"],
    **{f"apply-{kind}": ["apply", "--symbol", f"sym-{kind}.json", "--in", "f1.json",
                         "--out", f"apply-{kind}.csv"] for kind in SYMBOLS},
    "linearize": ["linearize", "--in", "f1.json", "--power", "2", "--out", "lin.csv"],
    **{f"verify-{suite}": ["verify", suite, "--out", f"verify-{suite}.json"]
       for suite in ("linearize", "hoppe", "qq")},
}


def _run_without_scipy(workdir, cases):
    # the child imports hermband from where this process did
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", _NO_SCIPY, json.dumps(cases)], cwd=workdir,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def no_scipy_codes(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("noscipy")
    _prepare(workdir)
    proc = _run_without_scipy(workdir, NO_SCIPY_CASES)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", list(NO_SCIPY_CASES))
def test_command_runs_without_scipy(no_scipy_codes, case):
    assert no_scipy_codes[case] == 0


def test_tile_build_needs_scipy(tmp_path):
    """Negative control: the block is real, so a command that builds tiles fails."""
    proc = _run_without_scipy(tmp_path, {"nodes": ["nodes", "--level", "2", "--out", "n.csv"]})
    assert proc.returncode != 0
    last = proc.stderr.rstrip().splitlines()[-1]
    assert last.startswith("ModuleNotFoundError") and "scipy" in last, proc.stderr


def _regenerate(names=()):
    """Rewrite the golden files of the named outputs, or all of them when none is named."""
    import tempfile
    unknown = set(names) - {out for out, _, _ in CASES}
    if unknown:
        raise SystemExit(f"unknown outputs: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory() as workdir:
        _prepare(workdir)
        _run_all(workdir)
        for out, _, _ in CASES:
            if names and out not in names:
                continue
            with open(os.path.join(workdir, out), "rb") as src:
                data = src.read()
            # mtime=0 keeps the compressed files themselves reproducible
            with open(os.path.join(GOLDEN, out + ".gz"), "wb") as raw, \
                    gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as dst:
                dst.write(data)


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
    sys.exit(0)
