"""End-to-end direct solve of an interior Laplace problem.

The boundary value problem: find u harmonic inside the smooth star with
u = log|x - x0| on the boundary, for a source x0 outside.  The exact
solution is log|x - x0| itself, which lets us measure true errors at
interior points.

The solver represents u as a double-layer potential, discretizes the
second-kind integral equation with Nystrom quadrature, compresses the
system matrix in proxy mode, inverts the compressed matrix exactly with
the recursive block-separable identity, and applies the inverse.  A
block-iteration error bound comes along for free.
"""

import json

import numpy as np

import hbsolve as hb

star = hb.SmoothStar()
grid = hb.build_grid(star, hb.decompose(star, 80, 0), 10)
source = np.array([3.0, 0.0])
rhs = hb.harmonic_trace(grid, source)

cfg = hb.CompressionConfig(mode="proxy", tol=1e-10)
q, report = hb.solve_workflow(grid, cfg, rhs, estimate_error=True)

print(f"N = {report['n']}, {report['levels']} tree levels, {report['mode']} mode")
t = report["timings"]
print(f"timings: compress {t['compress']}s, invert {t['invert']}s, apply {t['apply']}s")
print(f"conditioning: worst reduced block {report['condition']['max_cond_Dtilde']:g}, "
      f"worst core {report['condition']['max_cond_core']:g}")
est = report["error_estimate"]
print(f"a posteriori bound: ||A - A_approx|| ~ {est['err_A']:g}, "
      f"||A_approx^-1|| ~ {est['norm_inv']:g}, relative bound {est['bound_factor']:g}")

targets = hb.interior_probe_points(grid, count=10)
u = hb.eval_dlp_potential(grid, q, targets)
exact = np.log(np.linalg.norm(targets - source, axis=1))
print("\ninterior check (10 probe points):")
print(f"  max error {np.max(np.abs(u - exact)):.2e}")
print(f"  rms error {np.sqrt(np.mean((u - exact) ** 2)):.2e}")

print("\nfull report:")
print(json.dumps(report, indent=2))
