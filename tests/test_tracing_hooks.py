"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
module attribute.  These tests import it as it stands and install and remove
its hooks around a small solve, so removing or renaming a name it reaches
fails here, not only in the benchmark's own smoke run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hbsolve as hb
from hbsolve import (compression, diagnostics, geometry, hbs, inversion,
                     quadrature, serialization)
from conftest import star_grid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (compression, diagnostics, geometry, hbs, inversion, quadrature, serialization)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def module_functions():
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items() if callable(v)}


@pytest.mark.parametrize("install", ["install_full_trace", "install_stage_timers"])
def test_tracer_hooks_install_and_remove(tracing, install, tmp_path):
    before = module_functions()
    grid = star_grid(30, 10)
    rhs = quadrature.harmonic_trace(grid, (3.0, 0.0))
    tracer = getattr(tracing, install)()
    try:
        q, report = compression.solve_workflow(grid, hb.CompressionConfig(mode="proxy"),
                                               rhs, estimate_error=True)
        if install == "install_full_trace":
            serialization.save_inverse(tmp_path / "inv.hbs",
                                       tracer.kept["inversion.hbs_invert"])
            serialization.load(tmp_path / "inv.hbs")
            metrics = tracing.layer_metrics(tracer, grid.size)
            assert metrics["lowrank.id_row.calls"] > 0
            assert metrics["diagnostics.power_norm.iters"] > 0
            assert all(np.isfinite(v) for v in metrics.values())
    finally:
        tracer.remove()
    assert {"compression.compress", "inversion.hbs_invert"} <= set(tracer.kept)
    assert report["residual"] < 1e-8
    assert module_functions() == before
