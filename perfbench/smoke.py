"""Smoke tests for the benchmark, on small sizes of every workload.

    python -m pytest perfbench/smoke.py

They check that every metric named in BENCHMARK.json is printed with its
unit, that the correctness gate trips on corrupted solutions, and that
the benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from hbsolve import compression  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    out = run("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--size", "smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert np.isfinite(v["value"])
    if trace == 0:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] != 0, m["name"]


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    w = workloads.WORKLOADS["star-certified"]
    a = workloads.build_inputs(w, w.sizes["smoke"], 7)
    b = workloads.build_inputs(w, w.sizes["smoke"], 7)
    c = workloads.build_inputs(w, w.sizes["smoke"], 8)
    assert np.array_equal(a.F, b.F) and np.array_equal(a.exact, b.exact)
    assert not np.array_equal(a.F, c.F)


def test_gate_trips_on_corrupted_solution():
    w = workloads.WORKLOADS["star-certified"]
    inputs = workloads.build_inputs(w, w.sizes["smoke"], 3)
    cfg = compression.CompressionConfig(mode="proxy", tol=w.tol)
    q, report = compression.solve_workflow(inputs.grid, cfg, inputs.F[:, 0],
                                           estimate_error=True)
    bound = report["error_estimate"]["bound_factor"]
    gate = workloads.Gate(w, inputs)
    assert gate.check(q, 0, bound)

    nudged = q.copy()
    nudged[0] += 1e-3
    with_nan = q.copy()
    with_nan[5] = np.nan
    assert not gate.check(nudged, 0)            # wrong answer
    assert not gate.check(q, 1)                 # answer to another right-hand side
    assert not gate.check(with_nan, 0)          # non-finite
    assert not gate.check(q[:-1], 0)            # wrong length
    assert not gate.check(q, 0, bound=1.0)      # certificate too weak
    assert not gate.check(q, 0, bound=np.nan)
    assert (gate.attempted, gate.failed) == (7, 6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("--workload", "star-40k", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
