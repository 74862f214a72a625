"""Command-line interface, and the one module that reads or writes a file.

Subcommands: nodes, windows, needlet, analyze, synthesize, norm, apply,
linearize, verify.  Exit codes: 0 success, 1 precondition or input error,
2 a verification suite failed its stability criterion.  Without --out a
command writes to stdout what it would write to the file.  CSV floats use 17
significant digits and JSON floats Python's shortest round-trip repr; both
read back exactly, and identical configurations produce byte-identical
output.  Reports write a non-finite float as the string "inf", "-inf" or "nan".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys as _sys

import numpy as np

from . import estimates, frames, lp, norms, symbols, tiles
from .core import SpectralFunction


class PreconditionError(Exception):
    pass


def _output(path):
    """The file at path opened for writing, or stdout (left open) when path is None."""
    return open(path, "w") if path else contextlib.nullcontext(_sys.stdout)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_csv(out, header, fmt, count, block):
    """Write the header and count rows to out, 2048 at a time so memory does not grow
    with count: block(rows) gives the tuples, for the formats fmt, of the rows numbered
    by the int array rows."""
    line = ",".join(fmt) + "\n"
    with _output(out) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, count, 2048):
            rows = block(np.arange(start, min(start + 2048, count)))
            fh.write("".join(line % r for r in rows))


def _dump_report(obj, out_path):
    with _output(out_path) as fh:
        print(json.dumps(estimates.plain(obj), indent=1, sort_keys=True, allow_nan=False), file=fh)


def _config(args):
    cfg = {"command": args.command}
    for k, v in sorted(vars(args).items()):
        # the output path is not part of the computation, so reports stay
        # byte-identical wherever they are written
        if k not in ("func", "command", "out"):
            cfg[k] = v
    return cfg


def _tile_config(args):
    return tiles.TileConfig(args.delta_star, args.dim)


def _system(args):
    return lp.bump_system(args.plateau, args.support)


def _load_function(args):
    """The spectral function of --in, whose dimension must be --dim."""
    f = SpectralFunction.from_json_dict(_read_json(args.infile))
    if f.dim != args.dim:
        raise PreconditionError(f"function dimension {f.dim} != --dim {args.dim}")
    return f


def _levels(args, sys, f):
    """--levels, or the coverage level J of f when it is None; a warning on
    stderr when --levels is below J."""
    J = sys.coverage_level(2.0 * f.max_degree + f.dim)
    if args.levels is None:
        return J
    if args.levels < J:
        print(f"warning: --levels {args.levels} is below the coverage level {J} of f; "
              f"the bands above level {args.levels} are dropped", file=_sys.stderr)
    return args.levels


def cmd_nodes(args):
    """The level's nodes in index order, from the per-axis arrays; tau and the measure
    are products of per-axis factors in axis order, as in weight_array and measure_array.
    The node and edge columns are formatted once per axis index and joined per row."""
    ts = tiles.build_level(args.level, _tile_config(args))
    n = ts.dim
    header = (["level", "node_index"] + [f"x{i + 1}" for i in range(n)] + ["tau", "measure"]
              + [f"{end}{i + 1}" for i in range(n) for end in ("lo", "hi")])
    x = np.array(["%.17g" % v for v in ts.zeros.tolist()], dtype=object)
    edges = ts.edges.tolist()
    lo_hi = np.array(["%.17g,%.17g" % e for e in zip(edges, edges[1:])], dtype=object)

    def block(flat):
        idx = np.unravel_index(flat, ts.shape)
        return zip(*(c.tolist() for c in [np.full(flat.size, ts.level), flat] + [x[i] for i in idx]
                     + [np.prod([ts.tau1d[i] for i in idx], axis=0),
                        np.prod([ts.widths[i] for i in idx], axis=0)]
                     + [lo_hi[i] for i in idx]))

    _write_csv(args.out, header, ["%d", "%d"] + ["%s"] * n + ["%.17g"] * 2 + ["%s"] * n,
               ts.count, block)
    return 0


def cmd_windows(args):
    if args.levels < 0 or args.kmax < 0 or args.dim < 1:
        raise PreconditionError("--levels and --kmax must be >= 0, --dim >= 1")
    sys = _system(args)

    def row(r):
        j, k = divmod(r, args.kmax + 1)
        u = math.sqrt(2 * k + args.dim)
        # one scalar window per row: NumPy's vector exp may differ in the last bit
        return (j, k, 2 * k + args.dim, float(np.ravel(sys.window(j, u))[0]),
                float(np.ravel(sys.dual_window(j, u))[0]))

    _write_csv(args.out, ["j", "k", "lambda", "phi", "psi"], ["%d"] * 3 + ["%.17g"] * 2,
               (args.levels + 1) * (args.kmax + 1), lambda rows: map(row, rows.tolist()))
    return 0


def cmd_needlet(args):
    sys = _system(args)
    cfg = _tile_config(args)
    ts = tiles.build_level(args.level, cfg)
    index = tuple(int(v) for v in args.index.split(","))
    tile = ts.tile(index)
    f = frames.needlet(sys, tile, dual=args.dual)
    with _output(args.out) as out:
        json.dump(f.to_json_dict(), out, indent=1)
    return 0


def cmd_analyze(args):
    cfg = _tile_config(args)
    tiles.check_level(args.levels, cfg)
    if not 0.0 <= args.prune < math.inf:
        raise PreconditionError("--prune must be finite and >= 0")
    sys = _system(args)
    f = _load_function(args)
    s = frames.analyze(sys, f, _levels(args, sys, f), cfg)
    with _output(args.out) as out:
        json.dump(s.to_json_dict(args.prune), out)
    return 0


def cmd_synthesize(args):
    sys = _system(args)
    cfg = _tile_config(args)
    s = frames.CoefficientSequence.from_json_dict(_read_json(args.infile), cfg)
    g = frames.synthesize(sys, s)
    with _output(args.out) as out:
        json.dump(g.to_json_dict(), out, indent=1)
    return 0


def cmd_norm(args):
    sys = _system(args)
    f = _load_function(args)
    params = norms.SpaceParams(args.space, args.alpha, args.p, args.q)
    try:
        with np.errstate(all="ignore"):     # an overflow is reported below
            val = norms.space_norm(sys, f, params)
    except OverflowError:                   # the Parseval sums run on Python floats
        val = math.inf
    if not math.isfinite(val):
        raise PreconditionError(f"the {args.space} norm of f overflows float64")
    J = sys.coverage_level(2.0 * f.max_degree + f.dim)
    box = norms.QuadratureBox.for_degree(f.max_degree, f.dim)
    _dump_report({"value": val, "J_used": J,
                  "box": {"half_width": box.half_width, "points": box.points},
                  "warnings": [], "config": _config(args)}, args.out)
    return 0


def cmd_apply(args):
    sys = _system(args)
    f = _load_function(args)
    sigma = symbols.symbol_from_descriptor(_read_json(args.symbol), sys)
    if sigma.dim != f.dim:
        raise PreconditionError("symbol and function dimensions differ")
    return _apply_on_box(sigma, f, args.out)


def cmd_linearize(args):
    sys = _system(args)
    f = _load_function(args)
    if args.power < 2:
        raise PreconditionError("power must be >= 2")
    if args.levels is not None and args.levels < 0:
        raise PreconditionError("--levels must be >= 0")
    H = symbols.nonlinearity_power(args.power)
    sigma = symbols.linearize_nonlinearity(H, f, sys, _levels(args, sys, f))
    return _apply_on_box(sigma, f, args.out)


def _apply_on_box(sigma, f, out):
    """Write T_sigma f on the quadrature box of f as grid CSV; ValueError, before
    anything is allocated, when the box has more than tiles.NODES_MAX points, and
    PreconditionError, before anything is written, when T_sigma f is not finite at
    every grid point."""
    box = norms.QuadratureBox.for_degree(f.max_degree, f.dim)
    axes = estimates.eval_axes(box.half_width, box.points, f.dim)
    with np.errstate(all="ignore"):     # an overflow or NaN is reported below
        g = symbols.apply_pseudomultiplier(sigma, f, axes=axes)
    bad = np.count_nonzero(~np.isfinite(g.samples))
    if bad:
        raise PreconditionError(f"T_sigma f is not finite at {bad} of {g.samples.size} grid points")
    flat = g.samples.ravel()

    def block(rows):
        idx = np.unravel_index(rows, g.samples.shape)
        return zip(*(c.tolist() for c in [ax[i] for ax, i in zip(g.axes, idx)]
                     + [flat[rows].real, flat[rows].imag]))

    _write_csv(out, [f"x{i + 1}" for i in range(g.dim)] + ["re", "im"],
               ["%.17g"] * (g.dim + 2), flat.size, block)
    return 0


def _top_buildable(cfg, top):
    """The highest level <= top that check_level admits for cfg, 0 if none."""
    return next((j for j in range(top, 0, -1) if tiles.buildable(j, cfg)), 0)


# suite -> (default --levels in 1-D, None for a suite without --levels;
# runner(sys, cfg, levels, seed), which looks estimates.verify_* up when it runs)
_SUITES = {
    "molecule": (4, lambda sys, cfg, levels, seed: estimates.verify_molecules(
        sys, cfg, estimates.MoleculeParams(1, 0.5, 2, 0.5, cfg.dim + 2), levels=levels,
        seed=seed)),
    "ao": (None, lambda sys, cfg, levels, seed: estimates.verify_ao(sys, cfg, seed=seed)),
    "tsmooth": (3, lambda sys, cfg, levels, seed: estimates.verify_tsmooth(
        symbols.band_sum_symbol(sys, cfg.dim), sys, cfg, m=0, levels=levels, seed=seed)),
    "tcanc": (3, lambda sys, cfg, levels, seed: estimates.verify_tcanc(
        symbols.separable_symbol(cfg.dim), sys, cfg, m=0, levels=levels, seed=seed)),
    "synthesis": (None, lambda sys, cfg, levels, seed: estimates.verify_synthesis(
        sys, cfg, J=_top_buildable(cfg, 3), seed=seed)),
    "boundedness": (None, lambda sys, cfg, levels, seed: estimates.verify_boundedness(
        symbols.band_sum_symbol(sys, cfg.dim), 0.0, [norms.SpaceParams("F", 0.0, 2.0, 2.0)],
        sys, cfg, seed=seed)),
    "kernel": (4, lambda sys, cfg, levels, seed: estimates.verify_kernel(sys, cfg, levels)),
    "hoppe": (None, lambda sys, cfg, levels, seed: estimates.verify_hoppe(sys, n=cfg.dim)),
    "qq": (None, lambda sys, cfg, levels, seed: estimates.verify_qq(cfg)),
    "tiles": (4, lambda sys, cfg, levels, seed: estimates.verify_tiles(
        cfg, levels=levels, seed=seed)),
    "maximal": (None, lambda sys, cfg, levels, seed: estimates.verify_maximal(cfg, seed=seed)),
    "embeddings": (None, lambda sys, cfg, levels, seed: estimates.verify_embeddings(
        sys, cfg, seed=seed)),
    "linearize": (None, lambda sys, cfg, levels, seed: estimates.verify_linearize(
        sys, cfg, seed=seed)),
}


def cmd_verify(args):
    default, run = _SUITES[args.suite]
    if args.levels is not None and default is None:
        takes = ", ".join(s for s, (d, _) in _SUITES.items() if d is not None)
        raise PreconditionError(f"verify {args.suite} takes no --levels; only {takes} do")
    sys = _system(args)
    cfg = _tile_config(args)
    levels = args.levels
    if default is not None:
        if levels is None:
            # 3 levels above 1-D, fewer where check_level admits fewer
            levels = _top_buildable(cfg, default if cfg.dim == 1 else 3)
        tiles.check_level(levels, cfg)
    rep = run(sys, cfg, levels, args.seed)
    out = rep.to_json_dict()
    out["config"] = _config(args)
    _dump_report(out, args.out)
    return 0 if rep.passed else 2


def build_parser():
    p = argparse.ArgumentParser(prog="hermband",
                                description="Hermite-operator frames, norms and pseudo-multipliers")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, builds_tiles, system):
        sp.add_argument("--dim", type=int, default=1)
        if builds_tiles:
            sp.add_argument("--delta-star", dest="delta_star", type=float,
                            default=tiles.TileConfig.delta_star)
        if system:
            plateau, support = lp.bump_system.__defaults__
            sp.add_argument("--plateau", type=float, default=plateau)
            sp.add_argument("--support", type=float, default=support)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("nodes", help="emit a level's node/tile table as CSV")
    sp.add_argument("--level", type=int, required=True)
    common(sp, builds_tiles=True, system=False)
    sp.set_defaults(func=cmd_nodes)

    sp = sub.add_parser("windows", help="dump the spectral window tables as CSV")
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--kmax", type=int, default=64)
    common(sp, builds_tiles=False, system=True)
    sp.set_defaults(func=cmd_windows)

    sp = sub.add_parser("needlet", help="write one frame element as a spectral JSON")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--index", required=True, help="comma-separated node index")
    sp.add_argument("--dual", action="store_true")
    common(sp, builds_tiles=True, system=True)
    sp.set_defaults(func=cmd_needlet)

    sp = sub.add_parser("analyze", help="frame coefficients of a spectral function")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--levels", type=int, required=True)
    sp.add_argument("--prune", type=float, default=0.0)
    common(sp, builds_tiles=True, system=True)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("synthesize", help="rebuild a spectral function from coefficients")
    sp.add_argument("--in", dest="infile", required=True)
    common(sp, builds_tiles=True, system=True)
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("norm", help="distribution-space norm of a spectral function")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--space", choices=["B", "F"], default="F")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=2.0)
    common(sp, builds_tiles=False, system=True)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("apply", help="apply a pseudo-multiplier, emit grid CSV")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--in", dest="infile", required=True)
    common(sp, builds_tiles=False, system=True)
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("linearize", help="linearize H(u)=u^p around a function and apply")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--power", type=int, default=2)
    sp.add_argument("--levels", type=int, default=None)
    common(sp, builds_tiles=False, system=True)
    sp.set_defaults(func=cmd_linearize)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=_SUITES)
    sp.add_argument("--levels", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, builds_tiles=True, system=True)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PreconditionError, ValueError, FileNotFoundError, json.JSONDecodeError,
            OverflowError, MemoryError) as e:  # the last two: a shape too big to index or allocate
        print(f"error: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
