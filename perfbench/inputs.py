"""Seeded inputs for the benchmark workloads.

Everything the program receives is made here from the benchmark seed:
spectral functions in the ``f.json`` format, symbol descriptors for the
CLI pipeline, and the per-operation degree schedule.  The same seed gives
the same inputs; sizes do not depend on the seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

# degree ranges per workload, inclusive; each lies inside the spectrum that
# J = 4 windows cover (lambda_K <= (0.5 * 2^4)^2), so the frame round trip
# is exact on every input
CLI_K = (16, 31)
FRAMES_K = (8, 24)
SWEEP_APPLY_K = 12
MULTIPLIER = "1/(1+xi)"
# the verify suites of estimates-sweep op i run with seed SWEEP_SEED + i on
# every run: their cost depends on the tiles and functions the seed draws
SWEEP_SEED = 1000

_GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0
_STREAMS = {"cli": 1, "frames": 2, "sweep": 3, "symbols": 4}


def rng_for(seed, stream, index=0):
    """Independent generator per (seed, stream, operation index)."""
    return np.random.default_rng([int(seed), _STREAMS[stream], int(index)])


def multi_indices(dim, K):
    """All xi with |xi| <= K, in lexicographic order."""
    if dim == 1:
        return [(k,) for k in range(K + 1)]
    return [(a,) + rest for a in range(K + 1) for rest in multi_indices(dim - 1, K - a)]


def spectral_json(dim, K, rng):
    """A real finite Hermite expansion with unit normal coefficients, as f.json."""
    return {"dim": dim, "max_degree": K,
            "coeffs": [{"xi": list(xi), "re": float(rng.standard_normal()), "im": 0.0}
                       for xi in multi_indices(dim, K)]}


def degree_schedule(lo, hi, count):
    """Degrees for ``count`` operations: a golden-ratio sequence over lo..hi.

    It does not depend on the seed: every run does the same sizes in the
    same order, and the seed picks only the coefficients and symbol
    parameters, so runs on different seeds do the same amount of work.
    Every prefix spreads evenly over the range, so a run's mix of sizes
    barely depends on how many operations it completes.
    """
    frac = (np.arange(count) * _GOLDEN) % 1.0
    return [lo + int((hi - lo + 1) * f) for f in frac]


def cli_symbols(seed):
    """The four symbol descriptors the CLI pipeline rotates over."""
    rng = rng_for(seed, "symbols")
    a, b = rng.uniform(6.0, 10.0), rng.uniform(0.5, 1.5)
    return [
        {"kind": "multiplier", "dim": 1, "expression": MULTIPLIER},
        {"kind": "custom-expression", "dim": 1,
         "expression": f"exp(-xi/{a:.3f})*cos({b:.3f}*x1)"},
        {"kind": "separable", "x_scale": round(float(rng.uniform(1.5, 2.5)), 3),
         "xi_scale": round(float(rng.uniform(6.0, 10.0)), 3)},
        {"kind": "band-sum", "beta": round(float(rng.uniform(-1.5, -0.5)), 3)},
    ]


def write_cli_inputs(opdir, seed, index, K, symbols):
    """Write f.json and sym.json for CLI operation ``index``; returns the symbol."""
    sym = symbols[index % len(symbols)]
    with open(os.path.join(opdir, "f.json"), "w") as fh:
        json.dump(spectral_json(1, K, rng_for(seed, "cli", index)), fh)
    with open(os.path.join(opdir, "sym.json"), "w") as fh:
        json.dump(sym, fh)
    return sym
