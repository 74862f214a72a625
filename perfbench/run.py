"""hermband benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hermband checkout; it imports the package from
``src/`` of that checkout and writes only under ``.perfbench_out/``.
Workloads: cli-pipeline-1d, frames-2d, estimates-sweep (see README.md).

Each workload runs in a fresh worker process with BLAS/OpenMP threads
pinned to one.  ``setup_s`` is the median of several cold set-ups, each in
its own process.  The full report (every end-to-end metric with its
sample count, the environment, and with ``--trace 1`` the per-layer
table and tracing overhead) is printed as one JSON line and written to
``.perfbench_out/``; the last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero, with no
result line, when the package is missing or a process fails or hangs.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from procs import THREADS, pinned_env, run_child

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("cli-pipeline-1d", "frames-2d", "estimates-sweep")
# the metrics of the result line; units as printed
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {"tiles.build_top_level_s": "s", "tiles.nodes_built": "count",
             "hermband.import_s": "s"}
SETUP_SAMPLES = {"cli-pipeline-1d": 6}     # default 2, the worker's own included
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn_worker(argv, env, root, deadline):
    """Start a worker; returns (seconds to READY, max_rss_kb).

    The worker leads its own process group, so a kill at the deadline also
    ends any CLI child it is waiting for.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, start_new_session=True)
    killed = []

    def kill():
        killed.append(True)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - time.perf_counter()), kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted (SIGTERM, Ctrl-C): take the whole group down with us
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed:
        raise BenchError("worker killed at the time limit")
    if line.strip() != b"READY" or proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode} (ready line {line!r})")
    return ready, usage.ru_maxrss


def source_identity(root):
    """Commit when the checkout is a git work tree, and a digest of src/ always."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=20).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run(args, root):
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    out = os.path.join(root, ".perfbench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out, f"work-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # the build: byte-compile the package so no run pays for it
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    env = pinned_env(root)

    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", workdir]
    if args.smoke:
        worker.append("--smoke")

    def setup_samples(count):
        """Time ``count`` cold set-ups, each in its own process."""
        times = []
        for _ in range(count):
            if args.workload == "cli-pipeline-1d":
                s, e, rc, _ = run_child([sys.executable, "-m", "hermband.cli", "--help"], workdir,
                                        env, max(1.0, deadline - time.perf_counter()))
                if rc != 0:
                    raise BenchError(f"hermband --help exited {rc}")
                times.append(e - s)
            else:
                times.append(spawn_worker(worker + ["--setup-only"], env, root, deadline)[0])
        return times

    # set-up samples are taken half before and half after the timed phase,
    # so their median spans the run's stretch of machine time
    extra = 0 if args.trace else SETUP_SAMPLES.get(args.workload, 2)
    if args.workload != "cli-pipeline-1d":
        extra = max(0, extra - 1)           # the main worker's own set-up is one
    setup = setup_samples(extra // 2)

    report_path = os.path.join(out, f"report-{tag}.json")
    trace_path = os.path.join(out, f"trace-{tag}.json")
    main = worker + ["--trace", str(args.trace), "--report", report_path, "--trace-out", trace_path]
    if args.fault:
        main += ["--fault", args.fault]
    ready, rss_kb = spawn_worker(main, env, root, deadline)
    setup += setup_samples(extra - extra // 2)
    with open(report_path) as fh:
        rep = json.load(fh)

    e2e = rep["end_to_end"]
    if rep["child_peak_rss_kb"] is not None:     # ops run in child processes
        rss_kb = rep["child_peak_rss_kb"]
        rss_of = "largest ru_maxrss of the CLI child processes"
    else:
        setup.append(ready)
        rss_of = "ru_maxrss of the worker process"
    if setup:
        e2e["setup_s"] = {"value": statistics.median(setup), "unit": "s",
                          "samples": len(setup), "values": setup}
    e2e["peak_rss_mb"] = {"value": rss_kb / 1024.0, "unit": "MB", "samples": 1, "of": rss_of}
    rep["environment"].update(source_identity(root))
    rep["environment"]["threads_pinned"] = THREADS
    rep["trace_file"] = os.path.relpath(trace_path, root) if args.trace else None
    with open(report_path, "w") as fh:
        json.dump(rep, fh, indent=1)
    if rep["failed"] == 0:
        shutil.rmtree(workdir, ignore_errors=True)

    source = rep["per_layer"] if args.trace else e2e
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in names.items():
        if source[name]["unit"] != unit:
            raise BenchError(f"{name}: unit {source[name]['unit']!r}, expected {unit!r}")
        metrics[name] = {"value": source[name]["value"], "unit": unit}
    return rep, {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
                 "failed": rep["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description="hermband benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--fault", choices=("coeffs-value", "coeffs-truncated"),
                   help="negative control: corrupt the first cli-pipeline coefficient file")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hermband", "__init__.py")):
        print("error: no src/hermband in the current directory; "
              "run from the root of a hermband checkout", file=sys.stderr)
        return 2
    try:
        rep, result = run(args, root)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(rep))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
