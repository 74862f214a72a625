"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Run from the repository root.  Smoke runs use ``--smoke`` (tiny sizes);
the negative controls corrupt a coefficient file mid-pipeline and expect
one failed operation in a run that keeps going.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from worker import end_to_end  # noqa: E402
from workloads import hermite_table  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def result_and_report(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_named_metric(workload, trace):
    seconds = "4" if trace else "2"
    res, rep = result_and_report(bench("--workload", workload, "--seed", "3", "--seconds", seconds,
                                       "--trace", str(trace), "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] > 0
    e2e = rep["end_to_end"]
    names = ["ops_per_s", "latency_p50_s", "peak_rss_mb", "error_rate"] + ["setup_s"] * (not trace)
    for name in names:
        assert {"value", "unit", "samples"} <= set(e2e[name])
    assert e2e["error_rate"]["value"] == 0.0
    env = rep["environment"]
    assert env["threads_pinned"] == 1 and env["src_sha256"] and env["numpy"]
    if trace:
        assert rep["tracing"]["span_coverage"]["min"] > 0.9
        assert os.path.isfile(os.path.join(ROOT, rep["trace_file"]))


@pytest.mark.parametrize("fault", ["coeffs-value", "coeffs-truncated"])
def test_corrupted_coefficients_count_as_one_failed_op(fault):
    res, rep = result_and_report(bench("--workload", "cli-pipeline-1d", "--seed", "4",
                                       "--seconds", "12", "--smoke", "--fault", fault))
    assert res["correct"] is False
    assert res["failed"] == 1 and res["attempted"] >= 2
    assert rep["failures"][0]["op"] == 0
    assert rep["end_to_end"]["error_rate"]["value"] == pytest.approx(1 / res["attempted"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "frames-2d", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    recs = [{"latency_s": float(i), "failures": []} for i in range(1, 26)]
    out = end_to_end(recs)
    assert out["latency_tail_s"]["value"] == 15.0
    assert sum(r["latency_s"] > 15.0 for r in recs) == 10
    assert out["latency_tail_s"]["percentile"] == pytest.approx(60.0)
    assert "latency_tail_s" not in end_to_end(recs[:19])


def test_failed_ops_count_against_throughput():
    recs = [{"latency_s": 1.0, "failures": []}, {"latency_s": 1.0, "failures": ["x"]}]
    out = end_to_end(recs)
    assert out["ops_per_s"]["value"] == 0.5
    assert out["error_rate"]["value"] == 0.5


def test_inputs_follow_the_seed():
    a = inputs.spectral_json(2, 5, inputs.rng_for(7, "frames", 3))
    b = inputs.spectral_json(2, 5, inputs.rng_for(7, "frames", 3))
    c = inputs.spectral_json(2, 5, inputs.rng_for(8, "frames", 3))
    assert a == b and a != c
    assert len(a["coeffs"]) == 21
    sched = inputs.degree_schedule(8, 24, 200)
    assert min(sched) == 8 and max(sched) == 24
    for n in (17, 40, 61, 200):
        counts = np.bincount(sched[:n], minlength=25)[8:]
        assert counts.max() - counts.min() <= 3
        assert abs(np.median(sched[:n]) - 16) <= 1
    assert inputs.cli_symbols(7) == inputs.cli_symbols(7)


def test_reference_hermite_functions_are_orthonormal():
    x, w = np.polynomial.hermite.hermgauss(60)
    H = hermite_table(20, x) * np.exp(0.5 * x * x)
    gram = (H * w) @ H.T
    assert np.allclose(gram, np.eye(21), atol=1e-12)
