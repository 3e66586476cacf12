"""Demos 01-04 run to completion, each in its own process.

Demo 05 only calls `hbsolve benchmark`'s scaling sweep (cli.scaling_sweep)
up to N = 40 000, 3 timed passes per size: 14 s on one BLAS thread of a
2-core VM, and longer with more threads on a busy machine.  It stays out of
the suite; test_cli and test_bench_files run the same sweep at small sizes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_geometry_and_quadrature", "02_compress_and_matvec", "03_direct_solver",
         "04_corner_refinement")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
