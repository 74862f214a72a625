"""Paired benchmark runs of a base revision against the working tree.

    python tools/bench_pair.py --base REV [--out BENCH_<n>.json]

Run from the root of a hermband checkout.  The base revision is exported
with ``git archive`` and the working tree's files (tracked, and untracked
but not ignored) are copied, each into its own temporary directory, so
both sides start from a fresh checkout with nothing compiled.  For every
workload of BENCHMARK.json, pair i of ten runs
``perfbench/run.py --workload W --seed i --seconds S`` on both sides, one
after the other, with S the benchmark's ``run_seconds``; the side that goes
first alternates from pair to pair, so a drift in machine speed falls on
both alike.

The output holds the machine, the library versions, every run's result
line, and per end-to-end metric (names and directions from
BENCHMARK.json) the median and quartiles of each side and the number of
pairs the change won.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 10


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def export_base(rev, dest):
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def copy_working_tree(dest):
    for path in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if path and os.path.isfile(path):
            os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(path, os.path.join(dest, path))


def run_once(root, workload, seed, seconds):
    """One perfbench run; its result line, or the failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    t0 = time.time()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=20 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"started": t0, "exit": proc.returncode, "result": result,
            "stderr_tail": None if result else proc.stderr[-2000:]}


def machine():
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count()}
    for path, key, field in (("/proc/cpuinfo", "cpu", "model name"),
                             ("/proc/meminfo", "memory", "MemTotal")):
        try:
            with open(path) as fh:
                info[key] = next(line.split(":", 1)[1].strip() for line in fh
                                 if line.startswith(field))
        except (OSError, StopIteration):
            info[key] = None
    return info


def libraries():
    out = {}
    for name in ("numpy", "scipy"):
        try:
            out[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            out[name] = None
    return out


def quartiles(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def summarize(runs, metrics):
    """Per metric: each side's quartiles and how many complete pairs the change won."""
    out = {}
    for name, better in metrics.items():
        sides = {"base": {}, "change": {}}
        for r in runs:
            if r["result"] is not None and name in r["result"]["metrics"]:
                sides[r["side"]][r["pair"]] = r["result"]["metrics"][name]["value"]
        pairs = sorted(set(sides["base"]) & set(sides["change"]))
        wins = sum((sides["change"][i] < sides["base"][i]) == (better == "lower") and
                   sides["change"][i] != sides["base"][i] for i in pairs)
        out[name] = {"better": better,
                     "base": quartiles([sides["base"][i] for i in sorted(sides["base"])]),
                     "change": quartiles([sides["change"][i] for i in sorted(sides["change"])]),
                     "pairs": len(pairs), "change_wins": wins}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="the revision to compare against")
    p.add_argument("--out", default="BENCH.json", help="path of the report")
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    base_rev = git("rev-parse", args.base).strip()
    report = {"machine": machine(), "libraries": libraries(),
              "base": base_rev, "change": {"head": git("rev-parse", "HEAD").strip(),
                                           "dirty": bool(git("status", "--porcelain").strip())},
              "command": f"perfbench/run.py --workload W --seed PAIR --seconds {seconds}",
              "pairs": PAIRS, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"base": os.path.join(tmp, "base"), "change": os.path.join(tmp, "change")}
        for root in roots.values():
            os.makedirs(root)
        export_base(base_rev, roots["base"])
        copy_working_tree(roots["change"])
        for wl in workloads:
            runs = []
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for k, side in enumerate(order):
                    run = run_once(roots[side], wl, i, seconds)
                    runs.append({"pair": i, "side": side, "position": k, "seed": i, **run})
                    print(f"{wl} pair {i} {side}: "
                          f"{json.dumps(run['result']['metrics']) if run['result'] else 'FAILED'}",
                          file=sys.stderr)
            report["workloads"][wl] = {"runs": runs, "summary": summarize(runs, metrics)}
            with open(args.out, "w") as fh:     # written after each workload
                json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
