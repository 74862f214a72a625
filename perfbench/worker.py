"""One workload in one fresh process: cold set-up, then a closed-loop timed phase.

Started by ``run.py`` with BLAS/OpenMP threads pinned.  Prints ``READY`` on
stdout when set-up is done (the parent times process start to that line),
then runs operations back to back from a single client for at most
``--seconds``, and writes a JSON report to ``--report``.

With ``--trace 1`` the timed phase is split in two halves: the first
untraced, the second recording spans around every call the benchmark
makes into the package.  The difference in throughput between the halves
is the tracing overhead; the spans go to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from collections import defaultdict

from spans import NullTracer, Tracer
from workloads import WORKLOADS


def timed_phase(wl, seconds, tr, first):
    """Run ops first, first+1, ... for at most ``seconds`` (at least one op).

    The next operation starts only while a median operation still fits in
    the time left, so a run of long operations does as many as fit and its
    count, and with it the mix of inputs, changes only when the machine's
    speed crosses a whole number of operations.  Input generation and
    checks run between operations; only the operation is inside its
    latency.
    """
    recs = []
    begin = time.perf_counter()
    i = first
    while True:
        inp = wl.make_op(i)
        t0 = time.perf_counter()
        try:
            with tr.operation(f"op.{wl.name}", i):
                out = wl.run_op(inp, tr)
            fails = None
        except Exception as e:   # a failed operation is counted; the run goes on
            fails = [f"{type(e).__name__}: {e}"]
            traceback.print_exc(limit=3)
        t1 = time.perf_counter()
        if fails is None:
            try:
                fails = wl.check(inp, out)
            except Exception as e:
                fails = [f"check raised {type(e).__name__}: {e}"]
                traceback.print_exc(limit=3)
        recs.append({"op": i, "latency_s": t1 - t0, "failures": fails})
        # free this op's data before the next one, so peak RSS is one op's,
        # and collect it here, outside the timed interval
        inp = out = None
        gc.collect()
        i += 1
        left = seconds - (time.perf_counter() - begin)
        if left < statistics.median(r["latency_s"] for r in recs):
            return recs


def end_to_end(recs):
    """ops_per_s, latency_p50_s, latency_tail_s (20+ ops) and error_rate."""
    ok = sorted(r["latency_s"] for r in recs if not r["failures"])
    busy = sum(r["latency_s"] for r in recs)
    lat = ok or sorted(r["latency_s"] for r in recs)
    n, failed = len(lat), sum(1 for r in recs if r["failures"])
    out = {
        "ops_per_s": {"value": len(ok) / busy, "unit": "1/s", "samples": len(recs)},
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s", "samples": n},
        "error_rate": {"value": failed / len(recs), "unit": "ratio", "samples": len(recs)},
    }
    if n >= 20:
        # the highest percentile with ten samples above it
        out["latency_tail_s"] = {"value": lat[n - 11], "unit": "s", "samples": n,
                                 "percentile": 100.0 * (n - 10) / n}
    return out


def _dur(s):
    return s[2] - s[1]


def layer_table(tr, wl):
    """Per-layer metrics of the traced phase (and of set-up, for tiles)."""
    def med(name, values, unit):
        table[name] = {"value": statistics.median(values), "unit": unit, "samples": len(values)}

    table = {}
    for name, totals in tr.per_op_totals().items():
        med(f"{name}_s", totals, "s")
    for name, counts in tr.per_op_counts().items():
        med(name, counts, "B" if name.endswith("_bytes") else "count")
    builds = defaultdict(list)
    for s in tr.spans:
        if s[0] == "tiles.build_level":
            builds[(s[5]["dim"], s[5]["level"])].append(_dur(s))
    tops = {}
    for (dim, level) in builds:
        tops[dim] = max(level, tops.get(dim, level))
    for dim, level in tops.items():
        med(f"tiles.build_l{level}_{dim}d_s", builds[(dim, level)], "s")
    if tops:
        top = max(tops.values())
        med("tiles.build_top_level_s",
            [d for (dim, level), ds in builds.items() if level == top for d in ds], "s")
    imports = [_dur(s) for s in tr.spans if s[0] == "hermband.import"]
    if imports:
        med("hermband.import_s", imports, "s")
    setup_nodes = tr.counters.get((None, "tiles.nodes_built"), 0)
    per_op = table.pop("tiles.nodes_built", {"value": 0})["value"]
    table["tiles.nodes_built"] = {"value": setup_nodes + per_op, "unit": "count",
                                  "samples": 1}
    rss = [s[5]["rss_kb"] for s in tr.spans if s[0].startswith("cli.") and "rss_kb" in s[5]]
    if rss:
        table["cli.import_s"] = dict(table["hermband.import_s"])
        table["cli.max_rss_mb"] = {"value": max(rss) / 1024.0, "unit": "MB", "samples": len(rss)}
    return table


def environment():
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
            "blas": blas, "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--fault", default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--report")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    tr = Tracer() if args.trace else NullTracer()
    wl = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir, args.fault)
    wl.setup(tr)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    report = {"workload": wl.name, "seed": args.seed, "smoke": args.smoke,
              "sizes": wl.sizes(), "client": "closed loop, 1 client"}
    if args.trace:
        plain = timed_phase(wl, args.seconds / 2.0, NullTracer(), 0)
        traced = timed_phase(wl, args.seconds / 2.0, tr, len(plain))
        recs = plain + traced
        a = end_to_end(plain)["ops_per_s"]["value"]
        b = end_to_end(traced)["ops_per_s"]["value"]
        report["tracing"] = {"untraced_ops_per_s": a, "traced_ops_per_s": b,
                             "overhead_ops_per_s": a - b,
                             "overhead_share": (a - b) / a if a else None,
                             "span_coverage": tr.coverage(),
                             "untraced_ops": len(plain), "traced_ops": len(traced)}
        report["per_layer"] = layer_table(tr, wl)
        tr.dump(args.trace_out)
    else:
        recs = timed_phase(wl, args.seconds, NullTracer(), 0)
    report["end_to_end"] = end_to_end(recs)
    report["attempted"] = len(recs)
    report["failed"] = sum(1 for r in recs if r["failures"])
    report["failures"] = [r for r in recs if r["failures"]][:5]
    report["latencies_s"] = [r["latency_s"] for r in recs]
    report["constants"] = wl.constants
    report["child_peak_rss_kb"] = wl.peak_rss_kb()
    report["environment"] = environment()
    with open(args.report, "w") as fh:
        json.dump(report, fh, default=_plain)
    return 0


def _plain(o):
    """JSON for NumPy scalars, including the np.bool_ some reports carry."""
    if hasattr(o, "tolist"):
        return o.tolist()
    raise TypeError(f"not serialisable: {type(o)}")


if __name__ == "__main__":
    sys.exit(main())
