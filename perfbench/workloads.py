"""The benchmark workloads and the inputs each one draws from a seed.

Every workload solves the interior Dirichlet problem whose exact
solution is u(z) = log|z - x0| for sources x0 outside the contour, so
each computed density is checked against the exact interior values at
probe points.  The seed jitters the contour parameters slightly (enough
to change the inputs, not the work) and places the sources.

A workload run factors once per iteration through `solve_workflow`,
stores and reloads the factorization, then serves a closed loop of
single right-hand sides (one client, each waiting for its answer) and
one block of right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hbsolve import geometry, quadrature

PROBES = 10
SOURCE_RADII = (2.8, 3.2)   # sources lie on this annulus around the origin
# columns of the block right-hand side: ROADMAP item 3's m = 32, on every
# workload, so that batch_rhs_per_s rewards the same block width everywhere
BLOCK_RHS = 32


@dataclass(frozen=True)
class Size:
    panels: int          # base panel count handed to decompose
    corner_levels: int
    closed_rhs: int      # single right-hand sides per iteration


@dataclass(frozen=True)
class Workload:
    name: str
    contour: object      # rng -> Contour
    nodes_per_panel: int
    tol: float
    estimate_error: bool
    # seconds that the factorization, the reload and the block each add up
    # to per untraced iteration
    repeat_s: float
    # correctness gate, fixed up front: worst interior-probe error of any
    # one solve, and (certified solves) the report's bound_factor
    max_error: float
    max_bound: float
    sizes: dict


def _u(rng):
    return rng.uniform(-1.0, 1.0)


WORKLOADS = {w.name: w for w in [
    # measured before any optimization, 60 seeds: worst probe error 9.6e-11
    Workload(
        name="star-40k",
        contour=lambda rng: geometry.SmoothStar(arms=5, amplitude=0.3 + 0.01 * _u(rng)),
        nodes_per_panel=16, tol=1e-10,
        estimate_error=False, repeat_s=0.5, max_error=1e-9, max_bound=np.inf,
        sizes={"full": Size(2500, 0, 34), "smoke": Size(100, 0, 4)},
    ),
    # measured before any optimization, 60 seeds: worst probe error 4.5e-11, set
    # by the corner grading (20 levels), not by tol
    Workload(
        name="corner-rhs",
        contour=lambda rng: geometry.CornerStar(
            segments=10, radii=(0.9 + 0.01 * _u(rng), 1.1 + 0.01 * _u(rng))),
        nodes_per_panel=16, tol=1e-12,
        estimate_error=False, repeat_s=0.5, max_error=1e-8, max_bound=np.inf,
        sizes={"full": Size(85, 20, 100), "smoke": Size(2, 20, 20)},
    ),
    # the README quick start; measured before any optimization, 60 seeds: worst
    # probe error 4.1e-12, bound_factor 6.0e-10
    Workload(
        name="star-certified",
        contour=lambda rng: geometry.SmoothStar(arms=5, amplitude=0.3 + 0.01 * _u(rng)),
        nodes_per_panel=10, tol=1e-10,
        # its short steps take 0.4 ms to 0.1 s against a 4 s certified solve,
        # so each is sampled for longer than on the other workloads
        estimate_error=True, repeat_s=1.0, max_error=1e-9, max_bound=1e-8,
        sizes={"full": Size(80, 0, 1000), "smoke": Size(40, 0, 10)},
    ),
]}


@dataclass
class Inputs:
    grid: quadrature.QuadratureGrid
    F: np.ndarray        # (N, s) Dirichlet data, one column per source
    probes: np.ndarray   # (PROBES, 2) interior points
    exact: np.ndarray    # (PROBES, s) exact interior values

    @property
    def n(self):
        return self.grid.size


def build_inputs(w: Workload, size: Size, seed: int) -> Inputs:
    """Grid, right-hand sides and probe values; the same seed gives the
    same inputs.  Column 0 is the one-shot solve, then the closed-loop
    columns, then the block."""
    rng = np.random.default_rng(seed)
    contour = w.contour(rng)
    panels = geometry.decompose(contour, size.panels, size.corner_levels)
    grid = quadrature.build_grid(contour, panels, w.nodes_per_panel)

    count = 1 + size.closed_rhs + BLOCK_RHS
    theta = rng.uniform(0.0, 2 * np.pi, count)
    radius = rng.uniform(*SOURCE_RADII, count)
    sources = radius[:, None] * np.column_stack(
        [np.cos(theta), np.sin(theta)])
    # column-major, so every right-hand side is a contiguous vector
    F = np.empty((grid.size, count), order="F")
    for j, x0 in enumerate(sources):
        F[:, j] = quadrature.harmonic_trace(grid, x0)
    probes = quadrature.interior_probe_points(grid, count=PROBES)
    exact = np.log(np.linalg.norm(probes[:, None, :] - sources[None, :, :], axis=2))
    return Inputs(grid, F, probes, exact)


class Gate:
    """Counts attempted and failed solves against the workload's fixed
    accuracy threshold.  A solve fails when it raised, returned
    non-finite values, or missed the threshold."""

    def __init__(self, w: Workload, inputs: Inputs):
        self.w = w
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0

    def error(self, q, col):
        """Worst interior-probe error of density q for right-hand side col."""
        inp = self.inputs
        q = np.asarray(q, float)
        if q.shape != (inp.n,) or not np.all(np.isfinite(q)):
            return np.inf
        u = quadrature.eval_dlp_potential(inp.grid, q, inp.probes)
        return float(np.max(np.abs(u - inp.exact[:, col])))

    def check(self, q, col, bound=0.0):
        err = self.error(q, col)
        self.attempted += 1
        # NaN never passes: the comparisons are written to fail on it
        ok = err <= self.w.max_error and bound <= self.w.max_bound
        if not ok:
            self.failed += 1
        self.worst = max(self.worst, err)
        return ok

    def fail(self):
        self.attempted += 1
        self.failed += 1
