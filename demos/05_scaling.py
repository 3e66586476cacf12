"""Measuring the O(N) scaling of the direct solver.

Runs the proxy-mode pipeline on the smooth star at a doubling sequence
of problem sizes and reports wall times per stage.  For a truly linear
algorithm each doubling should double the time; ratios drifting toward
4x would indicate quadratic behavior (e.g. if compression were sampling
dense blocks).

Compression costs O(N k^2), inversion O(N k^2), and applying the
factored inverse O(N k), where k is the (bounded) off-diagonal rank, so
all these columns should scale close to 2x per row.  The "apply x32"
column applies the inverse to a block of 32 right-hand sides in one
traversal of the tree; compare it with 32 times the single apply.
"""

import time

import numpy as np

import hbsolve as hb

star = hb.SmoothStar()
cfg = hb.CompressionConfig(mode="proxy", tol=1e-10)
sizes = [5000, 10000, 20000, 40000]

print(f"{'N':>8}{'compress':>11}{'invert':>11}{'apply':>11}{'apply x32':>11}"
      f"{'residual check':>17}")
prev = None
for n in sizes:
    grid = hb.build_grid(star, hb.decompose(star, n // 10, 0), 10)
    rhs = hb.harmonic_trace(grid, np.array([3.0, 0.0]))

    t0 = time.monotonic()
    Ah, _ = hb.compress(grid, cfg)
    t1 = time.monotonic()
    inv = hb.hbs_invert(Ah)
    t2 = time.monotonic()
    q = hb.apply_inverse(inv, rhs)
    t3 = time.monotonic()
    sources = [np.array([3.0 * np.cos(a), 3.0 * np.sin(a)])
               for a in np.linspace(0, 2 * np.pi, 32, endpoint=False)]
    F = np.column_stack([hb.harmonic_trace(grid, x0) for x0 in sources])
    t4 = time.monotonic()
    Q = hb.apply_inverse(inv, F)
    t5 = time.monotonic()

    # verify the single solve and the block through the compressed operator
    # (the dense matrix would not fit)
    resid = max(np.linalg.norm(hb.hbs_matvec(Ah, q) - rhs) / np.linalg.norm(rhs),
                np.linalg.norm(hb.hbs_matvec(Ah, Q) - F) / np.linalg.norm(F))
    row = (t1 - t0, t2 - t1, t3 - t2, t5 - t4)
    ratios = "" if prev is None else "  (x" + ", x".join(
        f"{b / a:.2f}" for a, b in zip(prev, row)) + ")"
    print(f"{grid.size:>8}{row[0]:>10.2f}s{row[1]:>10.2f}s{row[2]:>10.3f}s{row[3]:>10.3f}s"
          f"{resid:>17.2e}{ratios}")
    prev = row
