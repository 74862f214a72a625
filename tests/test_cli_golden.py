"""Golden CLI outputs: each subcommand on two fixed spectral functions.

The files under tests/golden/ hold what the CLI wrote for these commands.
Outputs whose arithmetic is fixed are compared byte for byte; the ones
that sum pointwise Hermite evaluations (the B norm, apply, linearize) may
reorder those sums, so unless their bytes agree they are compared within
1e-13 relative: JSON numbers one by one, CSV values against the largest
magnitude in their column.

Regenerate (only when an output is meant to change) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import gzip
import json
import os
import shutil
import sys

import numpy as np
import pytest

from hermband.cli import main

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


def _regenerate():
    import tempfile
    with tempfile.TemporaryDirectory() as workdir:
        _prepare(workdir)
        _run_all(workdir)
        for out, _, _ in CASES:
            with open(os.path.join(workdir, out), "rb") as src:
                data = src.read()
            # mtime=0 keeps the compressed files themselves reproducible
            with open(os.path.join(GOLDEN, out + ".gz"), "wb") as raw, \
                    gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as dst:
                dst.write(data)


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
