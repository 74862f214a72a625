"""Command-line interface.

Subcommands: nodes, windows, needlet, analyze, synthesize, norm, apply,
linearize, verify.  Exit codes: 0 success, 1 precondition or input error,
2 a verification suite failed its stability criterion.  All float output
uses 17 significant digits so identical configurations produce byte-
identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys

import numpy as np

from . import estimates, frames, lp, norms, symbols, tiles
from .core import SpectralFunction


class PreconditionError(Exception):
    pass


def _fmt(x):
    return "%.17g" % x


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _dump_report(obj, out_path=None):
    text = json.dumps(_round_floats(obj), indent=1, sort_keys=True, default=_json_default)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _config(args, extra=None):
    cfg = {"command": args.command}
    for k, v in sorted(vars(args).items()):
        # the output path is not part of the computation, so reports stay
        # byte-identical wherever they are written
        if k not in ("func", "command", "out"):
            cfg[k] = v
    if extra:
        cfg.update(extra)
    return cfg


def _tile_config(args):
    return tiles.TileConfig(delta_star=getattr(args, "delta_star", 1.0 / 40.0),
                            dim=getattr(args, "dim", 1),
                            max_level=max(getattr(args, "level", 0) or 0,
                                          getattr(args, "levels", 0) or 0, 8))


def _system(args):
    a = getattr(args, "plateau", 0.5)
    b = getattr(args, "support", 0.75)
    return lp.bump_system(a, b)


def cmd_nodes(args):
    cfg = _tile_config(args)
    ts = tiles.build_level(args.level, cfg)
    out = open(args.out, "w") if args.out else _sys.stdout
    try:
        tiles.write_nodes_csv(ts, out)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_windows(args):
    sys = _system(args)
    out = open(args.out, "w") if args.out else _sys.stdout
    try:
        out.write("j,k,lambda,phi,psi\n")
        for j in range(args.levels + 1):
            for k in range(args.kmax + 1):
                lam = 2 * k + args.dim
                u = math.sqrt(lam)
                phi = float(np.ravel(sys.window(j, u))[0])
                psi = float(np.ravel(sys.dual_window(j, u))[0])
                out.write(f"{j},{k},{lam},{_fmt(phi)},{_fmt(psi)}\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_needlet(args):
    sys = _system(args)
    cfg = _tile_config(args)
    ts = tiles.build_level(args.level, cfg)
    index = tuple(int(v) for v in args.index.split(","))
    tile = ts.tile(index)
    f = frames.needlet(sys, tile, dual=args.dual)
    f.save(args.out) if args.out else print(json.dumps(f.to_json_dict()))
    return 0


def cmd_analyze(args):
    sys = _system(args)
    cfg = _tile_config(args)
    f = SpectralFunction.load(args.infile)
    if f.dim != cfg.dim:
        raise PreconditionError(f"function dimension {f.dim} != --dim {cfg.dim}")
    s = frames.analyze(sys, f, args.levels, cfg)
    s.save(args.out, tol=args.prune)
    return 0


def cmd_synthesize(args):
    sys = _system(args)
    cfg = _tile_config(args)
    s = frames.CoefficientSequence.load(args.infile, cfg)
    g = frames.synthesize(sys, s)
    g.save(args.out)
    return 0


def cmd_norm(args):
    sys = _system(args)
    f = SpectralFunction.load(args.infile)
    params = norms.SpaceParams(args.space, args.alpha, args.p, args.q)
    val = norms.space_norm(sys, f, params)
    warnings = []
    if isinstance(val, tuple):
        val, covered = val
        if not covered:
            warnings.append("occupied spectrum not covered by the window levels")
    J = sys.coverage_level(2.0 * f.max_degree + f.dim)
    box = norms.QuadratureBox.for_degree(f.max_degree, f.dim)
    _dump_report({"value": val, "J_used": J,
                  "box": {"half_width": box.half_width, "points": box.points},
                  "warnings": warnings, "config": _config(args)}, args.out)
    return 0


def cmd_apply(args):
    sys = _system(args)
    f = SpectralFunction.load(args.infile)
    sigma = symbols.load_symbol(args.symbol, sys)
    if sigma.dim != f.dim:
        raise PreconditionError("symbol and function dimensions differ")
    box = norms.QuadratureBox.for_degree(f.max_degree, f.dim)
    axes = box.axes(f.dim)
    g = symbols.apply_pseudomultiplier(sigma, f, axes=axes)
    g.save_csv(args.out)
    return 0


def cmd_linearize(args):
    sys = _system(args)
    f = SpectralFunction.load(args.infile)
    if args.power < 2:
        raise PreconditionError("power must be >= 2")
    H = symbols.nonlinearity_power(args.power)
    J = args.levels if args.levels is not None else sys.coverage_level(2.0 * f.max_degree + f.dim)
    sigma = symbols.linearize_nonlinearity(H, f, sys, J)
    box = norms.QuadratureBox.for_degree(f.max_degree, f.dim)
    axes = box.axes(f.dim)
    g = symbols.apply_pseudomultiplier(sigma, f, axes=axes)
    g.save_csv(args.out)
    return 0


_SUITES = ("molecule", "ao", "tsmooth", "tcanc", "synthesis", "boundedness",
           "kernel", "hoppe", "qq", "tiles", "maximal", "embeddings", "linearize")


def cmd_verify(args):
    sys = _system(args)
    cfg = _tile_config(args)
    n = cfg.dim
    levels = args.levels if args.levels is not None else (4 if n == 1 else 3)
    suite = args.suite
    if suite == "molecule":
        rep = estimates.verify_molecules(sys, cfg, estimates.MoleculeParams(1, 0.5, 2, 0.5, n + 2),
                                         levels=levels, seed=args.seed)
    elif suite == "ao":
        rep = estimates.verify_ao(sys, cfg, seed=args.seed)
    elif suite == "tsmooth":
        sigma = symbols.band_sum_symbol(sys, n)
        rep = estimates.verify_tsmooth(sigma, sys, cfg, m=0, levels=min(levels, 3), seed=args.seed)
    elif suite == "tcanc":
        sigma = symbols.separable_symbol(n)
        rep = estimates.verify_tcanc(sigma, sys, cfg, m=0, levels=min(levels, 3), seed=args.seed)
    elif suite == "synthesis":
        rep = estimates.verify_synthesis(sys, cfg, seed=args.seed)
    elif suite == "boundedness":
        sigma = symbols.band_sum_symbol(sys, n)
        rep = estimates.verify_boundedness(sigma, 0.0,
                                           [norms.SpaceParams("F", 0.0, 2.0, 2.0)],
                                           sys, cfg, seed=args.seed)
    elif suite == "kernel":
        rep = estimates.verify_kernel(sys, cfg, levels=levels)
    elif suite == "hoppe":
        rep = estimates.verify_hoppe(sys, levels=5, n=n)
    elif suite == "qq":
        rep = estimates.verify_qq(n=n)
    elif suite == "tiles":
        rep = estimates.verify_tiles(cfg, levels=levels, seed=args.seed)
    elif suite == "maximal":
        rep = estimates.verify_maximal(cfg, seed=args.seed)
    elif suite == "embeddings":
        rep = estimates.verify_embeddings(sys, cfg, seed=args.seed)
    elif suite == "linearize":
        rep = estimates.verify_linearize(sys, cfg, n_funcs=5, seed=args.seed)
    else:
        raise PreconditionError(f"unknown suite {suite!r}")
    out = rep.to_json_dict()
    out["config"] = _config(args)
    _dump_report(out, args.out)
    return 0 if rep.passed else 2


def build_parser():
    p = argparse.ArgumentParser(prog="hermband",
                                description="Hermite-operator frames, norms and pseudo-multipliers")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, dim=True, system=True):
        if dim:
            sp.add_argument("--dim", type=int, default=1)
            sp.add_argument("--delta-star", dest="delta_star", type=float, default=1.0 / 40.0)
        if system:
            sp.add_argument("--plateau", type=float, default=0.5)
            sp.add_argument("--support", type=float, default=0.75)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("nodes", help="emit a level's node/tile table as CSV")
    sp.add_argument("--level", type=int, required=True)
    common(sp, system=False)
    sp.set_defaults(func=cmd_nodes)

    sp = sub.add_parser("windows", help="dump the spectral window tables as CSV")
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--kmax", type=int, default=64)
    common(sp)
    sp.set_defaults(func=cmd_windows)

    sp = sub.add_parser("needlet", help="write one frame element as a spectral JSON")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--index", required=True, help="comma-separated node index")
    sp.add_argument("--dual", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_needlet)

    sp = sub.add_parser("analyze", help="frame coefficients of a spectral function")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--levels", type=int, required=True)
    sp.add_argument("--prune", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("synthesize", help="rebuild a spectral function from coefficients")
    sp.add_argument("--in", dest="infile", required=True)
    common(sp)
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("norm", help="distribution-space norm of a spectral function")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--space", choices=["B", "F"], default="F")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=2.0)
    common(sp)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("apply", help="apply a pseudo-multiplier, emit grid CSV")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--in", dest="infile", required=True)
    common(sp)
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("linearize", help="linearize H(u)=u^p around a function and apply")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--power", type=int, default=2)
    sp.add_argument("--levels", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_linearize)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=_SUITES)
    sp.add_argument("--levels", type=int, default=None)
    common(sp)
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
    except (PreconditionError, ValueError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
