"""Child processes: a pinned environment and timed, reaped runs.

Imports nothing beyond the standard library, so the orchestrator can use
it before any numerical library is loaded.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time

THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pinned_env(root):
    """Environment for every process the benchmark starts.

    BLAS and OpenMP pools are pinned to THREADS, and ``src`` of the checkout
    is the only extra import path, so the package under test is the one in
    the checkout.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: str(THREADS) for k in _THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, cwd, env, timeout, stderr_path=None):
    """Run argv to completion; returns (start, end, exit_code, max_rss_kb).

    The child is reaped with ``os.wait4`` so its own peak RSS is read, and
    killed if it outlives ``timeout`` seconds.  ``env`` None inherits this
    process's environment.
    """
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    finally:
        if stderr_path:
            err.close()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss
