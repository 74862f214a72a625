"""The three benchmark workloads: set-up, one operation, and its checks.

Each workload object is driven by ``worker.py``: ``setup`` once (cold),
then ``make_op(i)`` / ``run_op`` / ``check`` per operation.  ``make_op``
builds the seeded input outside the timed interval; ``check`` returns
the list of failed correctness conditions (empty when the op passed) and
records reported constants, which are not gated.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import numpy as np

import inputs
from procs import run_child

HERE = os.path.dirname(os.path.abspath(__file__))


def hermite_table(K, x):
    """Orthonormal Hermite functions h_0..h_K at x, shape (K+1, len(x)).

    An independent reference for the checks; the plain three-term
    recurrence is accurate here because |x| stays where h_0 is normal.
    """
    x = np.asarray(x, dtype=float)
    H = np.empty((K + 1, x.size))
    H[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if K >= 1:
        H[1] = math.sqrt(2.0) * x * H[0]
    for k in range(1, K):
        H[k + 1] = math.sqrt(2.0 / (k + 1)) * x * H[k] - math.sqrt(k / (k + 1)) * H[k - 1]
    return H


def coeff_dict(d):
    return {tuple(e["xi"]): complex(e["re"], e.get("im", 0.0)) for e in d["coeffs"]}


def rel_l2(g, f):
    """Relative coefficient-space L^2 distance of two {xi: c} dicts."""
    keys = set(g) | set(f)
    num = math.sqrt(sum(abs(g.get(k, 0.0) - f.get(k, 0.0)) ** 2 for k in keys))
    den = math.sqrt(sum(abs(c) ** 2 for c in f.values()))
    return num / den


def max_rel_diff(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def multiplier_reference(coeffs, dim, K, axes):
    """sum_xi c_xi / (1 + lambda_|xi|) h_xi on the tensor grid of ``axes``."""
    C = np.zeros((K + 1,) * dim, dtype=complex)
    for xi, c in coeffs.items():
        C[xi] = c / (1.0 + 2.0 * sum(xi) + dim)
    for ax in axes:
        C = np.tensordot(C, hermite_table(K, ax), axes=([0], [0]))
    return C


class Workload:
    name = ""

    def __init__(self, seed, smoke, workdir, fault=None):
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.workdir = workdir
        self.fault = fault
        self.constants = []     # per passed op: the values it reported, not gated

    def peak_rss_kb(self):
        """Peak RSS of the processes an op runs in; None means the worker itself."""
        return None


# ---------------------------------------------------------------------------
# cli-pipeline-1d
# ---------------------------------------------------------------------------


class CliPipeline(Workload):
    """Each command pays an import and a cold level-4 tile build, so tiles
    and cli do most of the work."""

    name = "cli-pipeline-1d"
    child_timeout = 100.0

    def __init__(self, seed, smoke, workdir, fault=None):
        super().__init__(seed, smoke, workdir, fault)
        self.J = 3 if smoke else 4
        self.K = (4, 7) if smoke else inputs.CLI_K
        self.symbols = inputs.cli_symbols(seed)
        self.max_rss_kb = 0

    def sizes(self):
        return {"dim": 1, "K_range": list(self.K), "nodes_level": self.J, "analyze_levels": self.J,
                "norm": "F(alpha=0, p=1, q=2)", "symbols": self.symbols,
                "commands": [s[0] for s in self.steps()]}

    def setup(self, tr):
        self.schedule = inputs.degree_schedule(*self.K, 10_000)

    def steps(self):
        J = str(self.J)
        levels = ",".join(str(j) for j in range(self.J + 1))
        return [("nodes", J, ["nodes", "--level", J, "--out", "nodes.csv"]),
                ("analyze", levels, ["analyze", "--in", "f.json", "--levels", J, "--out", "coeffs.json"]),
                ("synthesize", levels, ["synthesize", "--in", "coeffs.json", "--out", "g.json"]),
                ("norm", "", ["norm", "--in", "f.json", "--space", "F", "--p", "1", "--q", "2",
                              "--out", "norm.json"]),
                ("apply", "", ["apply", "--symbol", "sym.json", "--in", "f.json", "--out", "Tf.csv"])]

    def make_op(self, i):
        opdir = os.path.join(self.workdir, f"op{i}")
        shutil.rmtree(opdir, ignore_errors=True)
        os.makedirs(opdir)
        K = self.schedule[i]
        sym = inputs.write_cli_inputs(opdir, self.seed, i, K, self.symbols)
        return {"i": i, "dir": opdir, "K": K, "symbol": sym}

    def run_op(self, inp, tr):
        opdir = inp["dir"]
        out = {"steps": {}, "rss_kb": 0}
        for cmd, levels, args in self.steps():
            if tr.enabled:
                spans = os.path.join(opdir, f"{cmd}.spans.json")
                argv = [sys.executable, os.path.join(HERE, "clichild.py"), spans, levels, "--", *args]
            else:
                argv = [sys.executable, "-m", "hermband.cli", *args]
            start, end, rc, rss = run_child(argv, opdir, None, self.child_timeout,
                                            os.path.join(opdir, f"{cmd}.err"))
            out["steps"][cmd] = end - start
            out["rss_kb"] = max(out["rss_kb"], rss)
            self.max_rss_kb = max(self.max_rss_kb, rss)
            if tr.enabled:
                parent = tr.add(f"cli.{cmd}", start, end, rss_kb=rss)
                if rc == 0:
                    self._merge_child_spans(tr, spans, parent)
            if rc != 0:
                with open(os.path.join(opdir, f"{cmd}.err"), errors="replace") as fh:
                    tail = fh.read()[-300:].strip()
                raise RuntimeError(f"{cmd} exited {rc}: {tail}")
            if cmd == "analyze" and self.fault and inp["i"] == 0:
                corrupt_coefficients(os.path.join(opdir, "coeffs.json"), self.fault)
        out["out_bytes"] = sum(os.path.getsize(os.path.join(opdir, f))
                               for f in ("nodes.csv", "coeffs.json", "g.json", "norm.json", "Tf.csv"))
        tr.count("cli.out_bytes", out["out_bytes"])
        return out

    @staticmethod
    def _merge_child_spans(tr, path, parent):
        with open(path) as fh:
            d = json.load(fh)
        for s in d["spans"]:
            tr.add(s["name"], s["start"], s["end"], parent=parent, **s["attrs"])
        tr.count("tiles.nodes_built", d["nodes_built"])

    def check(self, inp, out):
        opdir, fails = inp["dir"], []
        nodes = np.loadtxt(os.path.join(opdir, "nodes.csv"), delimiter=",", skiprows=1, ndmin=2)
        x, tau = nodes[:, 2], nodes[:, 3]
        mass = float(np.sum(tau * hermite_table(0, x)[0] ** 2))
        if not abs(mass - 1.0) <= 1e-10:
            fails.append(f"nodes: sum tau h0^2 = {mass!r}")

        with open(os.path.join(opdir, "f.json")) as fh:
            fj = json.load(fh)
        with open(os.path.join(opdir, "g.json")) as fh:
            f, g = coeff_dict(fj), coeff_dict(json.load(fh))
        err = rel_l2(g, f)
        if not err <= 1e-10:
            fails.append(f"analyze->synthesize relative L2 error {err:.3e}")

        with open(os.path.join(opdir, "norm.json")) as fh:
            norm = json.load(fh)
        if not (math.isfinite(norm["value"]) and norm["value"] > 0 and not norm["warnings"]):
            fails.append(f"norm: {norm['value']!r} {norm['warnings']}")
        self.constants.append({"op": inp["i"], "K": fj["max_degree"], "F(0,1,2)": norm["value"]})

        Tf = np.loadtxt(os.path.join(opdir, "Tf.csv"), delimiter=",", skiprows=1, ndmin=2)
        vals = Tf[:, 1] + 1j * Tf[:, 2]
        if not np.all(np.isfinite(vals)):
            fails.append("apply: non-finite output")
        elif inp["symbol"]["kind"] == "multiplier":
            ref = multiplier_reference(f, 1, fj["max_degree"], [Tf[:, 0]])
            d = max_rel_diff(vals, ref)
            if not d <= 1e-10:
                fails.append(f"apply multiplier differs from c/(1+lambda) by {d:.3e}")
        if not fails:
            shutil.rmtree(opdir, ignore_errors=True)
        return fails

    def peak_rss_kb(self):
        return self.max_rss_kb


def corrupt_coefficients(path, fault):
    """Negative control: damage a coefficient file between analyze and synthesize."""
    if fault == "coeffs-truncated":
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
    elif fault == "coeffs-value":
        with open(path) as fh:
            d = json.load(fh)
        entry = max((e for lev in d["levels"] for e in lev["entries"]), key=lambda e: abs(e["re"]))
        entry["re"] += 1.0
        with open(path, "w") as fh:
            json.dump(d, fh)
    else:
        raise ValueError(f"unknown fault {fault!r}")


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


class InProcess(Workload):
    """Set-up imports the package and builds every tile level cold."""

    levels = {}     # dim -> top level built in set-up

    def import_package(self, tr):
        with tr.span("hermband.import"):
            import hermband
            from hermband import core, estimates, frames, lp, norms, symbols, tiles
        here = os.path.dirname(os.path.abspath(hermband.__file__))
        want = os.path.join(os.getcwd(), "src", "hermband")
        if os.path.realpath(here) != os.path.realpath(want):
            raise RuntimeError(f"imported hermband from {here}, expected {want}")
        self.core, self.estimates, self.frames = core, estimates, frames
        self.lp, self.norms, self.symbols, self.tiles = lp, norms, symbols, tiles

    def build_tiles(self, tr):
        self.cfg = {}
        nodes = 0
        for dim, top in sorted(self.levels.items()):
            self.cfg[dim] = self.tiles.TileConfig(dim=dim)
            for j in range(top + 1):
                with tr.span("tiles.build_level", level=j, dim=dim):
                    nodes += self.tiles.build_level(j, self.cfg[dim]).count
        tr.count("tiles.nodes_built", nodes)


class Frames2D(InProcess):
    """Warm 2-D band projections, analysis, synthesis, norms and evaluation:
    the dict-based spectral code at many points and few degrees.  Tiles are
    built in set-up; symbols and estimates do not run."""

    name = "frames-2d"

    def __init__(self, seed, smoke, workdir, fault=None):
        super().__init__(seed, smoke, workdir, fault)
        self.J = 3 if smoke else 4
        self.K = (2, 7) if smoke else inputs.FRAMES_K
        self.levels = {2: self.J}

    def sizes(self):
        return {"dim": 2, "J": self.J, "K_range": list(self.K),
                "norms": ["F(0,1,2)", "B(0.5,1,2)", "seq f(0,1,2)"],
                "eval_box_points_per_axis": 241}

    def setup(self, tr):
        self.import_package(tr)
        with tr.span("lp.bump_system"):
            self.sys = self.lp.bump_system()
        self.build_tiles(tr)
        SP = self.norms.SpaceParams
        self.F012, self.B0512 = SP("F", 0.0, 1.0, 2.0), SP("B", 0.5, 1.0, 2.0)
        self.F022, self.B022 = SP("F", 0.0, 2.0, 2.0), SP("B", 0.0, 2.0, 2.0)
        self.schedule = inputs.degree_schedule(*self.K, 100_000)

    def make_op(self, i):
        K = self.schedule[i]
        f = self.core.SpectralFunction.from_json_dict(
            inputs.spectral_json(2, K, inputs.rng_for(self.seed, "frames", i)))
        axes = self.norms.QuadratureBox.for_degree(K, 2).axes(2)
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        return {"f": f, "K": K, "axes": axes, "pts": pts}

    def run_op(self, inp, tr):
        f, sys_, J = inp["f"], self.sys, self.J
        lp, frames, norms = self.lp, self.frames, self.norms
        bands = []
        for j in range(J + 1):
            with tr.span("lp.apply_lp", j=j):
                bands.append(lp.apply_lp(sys_, j, f))
        with tr.span("frames.analyze"):
            s = frames.analyze(sys_, f, J, self.cfg[2])
        with tr.span("frames.synthesize"):
            g = frames.synthesize(sys_, s)
        with tr.span("norms.tl_norm"):
            F = norms.tl_norm(sys_, f, self.F012)
        with tr.span("norms.besov_norm"):
            B = norms.besov_norm(sys_, f, self.B0512)
        with tr.span("norms.seq_tl_norm"):
            Fs = norms.seq_tl_norm(s, self.F012)
        with tr.span("core.eval_grid"):
            grid = f.eval_grid(inp["axes"])
        with tr.span("core.eval_points"):
            pts = f.eval_points(inp["pts"])
        tr.count("frames.coeffs", sum(a.size for a in s.levels.values()))
        tr.count("frames.synth_terms", len(g.coeffs))
        return {"bands": bands, "g": g, "F": F, "B": B, "Fs": Fs, "grid": grid, "pts": pts}

    def check(self, inp, out):
        f, fails = inp["f"], []
        err = out["g"].sub(f).norm2() / f.norm2()
        if not err <= 1e-10:
            fails.append(f"analyze->synthesize relative L2 error {err:.3e}")
        total = out["bands"][0]
        for b in out["bands"][1:]:
            total = total.add(b)
        pou = total.sub(f).norm2() / f.norm2()
        if not pou <= 1e-12:
            fails.append(f"sum_j phi_j f differs from f by {pou:.3e}")
        for key in ("F", "B", "Fs"):
            if isinstance(out[key], tuple) or not math.isfinite(out[key]):
                fails.append(f"{key} norm not covered or not finite: {out[key]!r}")
        if not fails:
            self.constants.append({"K": inp["K"], "F(0,1,2)": out["F"], "B(0.5,1,2)": out["B"],
                                   "f(0,1,2) of the coefficients": out["Fs"]})
        F22 = self.norms.tl_norm(self.sys, f, self.F022)
        B22 = self.norms.besov_norm(self.sys, f, self.B022)
        if isinstance(F22, tuple) or isinstance(B22, tuple) or not abs(F22 - B22) <= 1e-8 * B22:
            fails.append(f"F(0,2,2) grid {F22!r} != B(0,2,2) Parseval {B22!r}")
        d = max_rel_diff(out["pts"].reshape(out["grid"].shape), out["grid"])
        if not d <= 1e-10:
            fails.append(f"eval_points differs from eval_grid by {d:.3e}")
        return fails


class EstimatesSweep(InProcess):
    """Nine verify suites and a 2-D multiplier apply: the symbols and
    estimates loops and needlet evaluation at few points and many degrees.
    cli and cold tiles are bypassed."""

    name = "estimates-sweep"

    def __init__(self, seed, smoke, workdir, fault=None):
        super().__init__(seed, smoke, workdir, fault)
        self.levels = {1: 2, 2: 2} if smoke else {1: 4, 2: 3}
        self.apply_K = 4 if smoke else inputs.SWEEP_APPLY_K
        small = {
            "tsmooth": dict(levels=1, tiles_per_level=1, grid_points=51),
            "tcanc": dict(levels=1, tiles_per_level=2),
            "molecules": dict(levels=1, tiles_per_level=2, grid_points=201),
            "boundedness": dict(K=4, n_funcs=2),
            "linearize": dict(K=6, n_funcs=1, grid_points=201),
            "synthesis": dict(J=2, n_sequences=2),
            "ao": dict(k_levels=(1, 2), tiles_per_level=1, grid_points=201),
            "embeddings": dict(n_funcs=3),
            "tiles": dict(levels=2, cubature_pairs=4),
        }
        full = {
            "tsmooth": dict(levels=2, tiles_per_level=2, grid_points=201),
            "tcanc": dict(levels=3),
            "molecules": dict(levels=3),
            "boundedness": dict(K=8, n_funcs=5),
            "linearize": dict(n_funcs=5),
            "synthesis": dict(n_sequences=10),
            "ao": dict(),
            "embeddings": dict(),
            "tiles": dict(levels=4),
        }
        self.params = small if smoke else full

    def sizes(self):
        return {"suites": {k: {kk: list(v) if isinstance(v, tuple) else v for kk, v in p.items()}
                           for k, p in self.params.items()},
                "apply": {"dim": 2, "K": self.apply_K, "symbol": inputs.MULTIPLIER},
                "tile_levels": {f"{d}d": top for d, top in self.levels.items()},
                "sweep_seed": f"{inputs.SWEEP_SEED} + op index, on every run"}

    def setup(self, tr):
        self.import_package(tr)
        with tr.span("lp.bump_system"):
            self.sys = self.lp.bump_system()
        self.build_tiles(tr)
        sm = self.symbols
        with tr.span("symbols.build"):
            self.sigma = {
                "band-sum-1d": sm.band_sum_symbol(self.sys, 1),
                "separable-1d": sm.separable_symbol(1),
                "band-sum-2d": sm.band_sum_symbol(self.sys, 2),
                "multiplier-2d": sm.symbol_from_descriptor(
                    {"kind": "multiplier", "dim": 2, "expression": inputs.MULTIPLIER}),
            }
        if tr.enabled:
            for sym in self.sigma.values():
                sym.evaluator = _counted(sym.evaluator, tr)
        self.axes = self.norms.QuadratureBox.for_degree(self.apply_K, 2).axes(2)
        est, P = self.estimates, self.params
        SP = self.norms.SpaceParams
        c1, c2, sys_, sg = self.cfg[1], self.cfg[2], self.sys, self.sigma
        self.suites = [
            ("tsmooth", lambda s: est.verify_tsmooth(sg["band-sum-1d"], sys_, c1, m=0, seed=s,
                                                     **P["tsmooth"])),
            ("tcanc", lambda s: est.verify_tcanc(sg["separable-1d"], sys_, c1, m=0, seed=s,
                                                 **P["tcanc"])),
            ("molecules", lambda s: est.verify_molecules(
                sys_, c1, est.MoleculeParams(1, 0.5, 2, 0.5, 3), seed=s, **P["molecules"])),
            ("boundedness", lambda s: est.verify_boundedness(
                sg["band-sum-2d"], 0.0, [SP("F", 0.0, 2.0, 2.0)], sys_, c2, seed=s,
                **P["boundedness"])),
            ("linearize", lambda s: est.verify_linearize(sys_, c1, seed=s, **P["linearize"])),
            ("synthesis", lambda s: est.verify_synthesis(sys_, c2, seed=s, **P["synthesis"])),
            ("ao", lambda s: est.verify_ao(sys_, c1, seed=s, **P["ao"])),
            ("embeddings", lambda s: est.verify_embeddings(sys_, c1, seed=s, **P["embeddings"])),
            ("tiles", lambda s: est.verify_tiles(c1, seed=s, **P["tiles"])),
        ]

    def make_op(self, i):
        f = self.core.SpectralFunction.from_json_dict(
            inputs.spectral_json(2, self.apply_K, inputs.rng_for(self.seed, "sweep", i)))
        return {"seed": inputs.SWEEP_SEED + i, "f": f}

    def run_op(self, inp, tr):
        reports = {}
        for name, fn in self.suites:
            with tr.span(f"estimates.verify_{name}"):
                reports[name] = fn(inp["seed"])
        with tr.span("symbols.apply_pseudomultiplier"):
            g = self.symbols.apply_pseudomultiplier(self.sigma["multiplier-2d"], inp["f"],
                                                    axes=self.axes)
        return {"reports": reports, "apply": g}

    def check(self, inp, out):
        fails = []
        for name, rep in out["reports"].items():
            if not bool(rep.passed):
                fails.append(f"verify {name} did not pass (constant {rep.constant!r})")
        # passed as reported: verify_tiles gives an np.bool_
        self.constants.append({"seed": inp["seed"], **{
            name: {"constant": rep.constant, "passed": rep.passed}
            for name, rep in out["reports"].items()}})
        lin = float(out["reports"]["linearize"].constant)
        if not lin <= 1e-12:
            fails.append(f"linearize sup error {lin:.3e} > 1e-12")
        f = inp["f"]
        ref = multiplier_reference(f.coeffs, 2, f.max_degree, self.axes)
        d = max_rel_diff(out["apply"].samples, ref)
        if not d <= 1e-10:
            fails.append(f"apply multiplier differs from c/(1+lambda) by {d:.3e}")
        return fails


def _counted(evaluator, tr):
    def ev(pts, xi):
        tr.count("symbols.sigma_calls")
        return evaluator(pts, xi)
    return ev


WORKLOADS = {w.name: w for w in (CliPipeline, Frames2D, EstimatesSweep)}
