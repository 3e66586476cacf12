"""Composite Gauss-Legendre grids and the Laplace double-layer system.

The Nystrom system solved here is the interior Dirichlet boundary integral
equation

    (1/2) q(x) + int_Gamma K(x, x') q(x') dl(x') = f(x),

with the double-layer kernel evaluated using the *inward* unit normal,

    K(x, x') = n_in(x') . (x - x') / (2 pi |x - x'|^2),

so that the operator applied to the constant density equals +1 on a closed
contour and 1/2 I + K is invertible (on the unit circle K is the constant
+1/(4 pi)).  The diagonal entry uses the smooth limit K(x, x) =
kappa(x) / (4 pi) with kappa the signed curvature of the CCW
parameterization.  Interior values of the solution are recovered from the
same kernel: u(z) = sum_j K(z, x_j) w_j q_j for z inside.

Every kernel block is evaluated from two n x m coordinate-difference arrays
and r^2: weights, normals and -1/(2 pi) fold into per-column scales applied
in place, and self pairs (equal global indices, r^2 == 0) are overwritten
with the curvature limit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .config import _whole
from .geometry import Contour, PanelDecomposition

COINCIDENT_NODE_TOL = 1e-14
# rows per panel when the exact matrix is formed or streamed whole
DENSE_BLOCK_ROWS = 1024


class DegenerateGridError(ValueError):
    """Raised when distinct quadrature nodes (nearly) coincide."""


def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    if not 1 <= n <= 64:
        raise ValueError(f"gauss_legendre supports 1 <= n <= 64, got {n}")
    return np.polynomial.legendre.leggauss(int(n))


@dataclass
class QuadratureGrid:
    """Nystrom grid: parameter nodes, plane points, outward normals, weights."""

    t: np.ndarray          # (N,) parameter values
    points: np.ndarray     # (N, 2)
    normals: np.ndarray    # (N, 2) outward unit normals
    weights: np.ndarray    # (N,) Gauss weight times curve speed
    panel_of: np.ndarray   # (N,) node -> panel index
    curvature: np.ndarray  # (N,) signed curvature at the nodes

    @property
    def size(self):
        return self.t.shape[0]

    @property
    def panel_count(self):
        return int(self.panel_of[-1]) + 1 if self.size else 0


def build_grid(contour: Contour, panels: PanelDecomposition, nodes_per_panel: int) -> QuadratureGrid:
    """Composite Gauss-Legendre grid over a panel decomposition.

    Node ordering follows the parameter, so each panel occupies a
    contiguous index block.
    """
    if nodes_per_panel < 2:
        raise ValueError(f"need at least 2 nodes per panel, got {nodes_per_panel}")
    xg, wg = gauss_legendre(nodes_per_panel)
    a = panels.panels[:, 0][:, None]
    b = panels.panels[:, 1][:, None]
    t = (0.5 * (a + b) + 0.5 * (b - a) * xg[None, :]).ravel()
    w_ref = (0.5 * (b - a) * wg[None, :]).ravel()
    points, normals, speed, curvature = contour.frame(t)
    return QuadratureGrid(
        t=t,
        points=points,
        normals=normals,
        weights=w_ref * speed,
        panel_of=np.repeat(np.arange(panels.count), nodes_per_panel),
        curvature=curvature,
    )


def _differences(targets, sources):
    """dx, dy and r2 = dx^2 + dy^2 between target points (rows) and source
    points (columns), as three n x m arrays."""
    dx = np.subtract.outer(targets[:, 0], sources[:, 0])
    dy = np.subtract.outer(targets[:, 1], sources[:, 1])
    r2 = dx * dx
    r2 += dy * dy
    return dx, dy, r2


def _dipole(dx, dy, r2, normals, scale):
    """scale_j n_in(x_j) . (z_i - x_j) / (2 pi r2_ij), written over dx.

    The inward normal, the weights in `scale` and -1/(2 pi) fold into one
    scale per coordinate and column, so the block costs four in-place passes.
    """
    s = scale / (-2 * np.pi)
    dx *= normals[:, 0] * s
    dy *= normals[:, 1] * s
    dx += dy
    dx /= r2
    return dx


def _grid_block(grid, rows, cols, scale):
    """Dipole block between grid nodes with the self pairs (i, j) left for
    the caller to overwrite; coincident *distinct* nodes raise.

    A self pair (rows[i] == cols[j]) has r2 == 0 exactly, so one min over
    r2 finds both: only a block with a near-zero distance (in practice a
    leaf's diagonal block) looks at its hits, and any hit between distinct
    indices is a degenerate grid."""
    dx, dy, r2 = _differences(grid.points[rows], grid.points[cols])
    i = j = np.empty(0, dtype=np.intp)
    if r2.size and r2.min() < COINCIDENT_NODE_TOL**2:
        i, j = np.nonzero(r2 < COINCIDENT_NODE_TOL**2)
        if np.any(rows[i] != cols[j]):
            raise DegenerateGridError(
                f"distinct quadrature nodes closer than {COINCIDENT_NODE_TOL:g}"
            )
        r2[i, j] = 1.0  # dx = dy = 0 there, so the entry is a finite 0
    return _dipole(dx, dy, r2, grid.normals[cols], scale), i, j


def nystrom_block(grid: QuadratureGrid, rows, cols):
    """Submatrix A(rows, cols) of the Nystrom system (1/2) I + K diag(w)."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    w = grid.weights[cols]
    A, i, j = _grid_block(grid, rows, cols, w)
    if i.size:
        A[i, j] = grid.curvature[cols[j]] / (4 * np.pi) * w[j] + 0.5
    return A


def _row_panels(grid: QuadratureGrid):
    """(rows, A(rows, :)) for each panel of DENSE_BLOCK_ROWS rows, in order."""
    idx = np.arange(grid.size)
    for start in range(0, grid.size, DENSE_BLOCK_ROWS):
        rows = idx[start : start + DENSE_BLOCK_ROWS]
        yield rows, nystrom_block(grid, rows, idx)


def assemble_dlp(grid: QuadratureGrid) -> np.ndarray:
    """Dense N x N Nystrom matrix for the double-layer equation, filled by
    row panels, so the peak is the matrix plus one panel's temporaries."""
    if grid.size == 0:
        raise ValueError("empty grid")
    if grid.panel_count < 2:
        raise ValueError("grid needs at least 2 panels")
    if grid.size <= DENSE_BLOCK_ROWS:  # one panel: return it, no second N x N copy
        return next(_row_panels(grid))[1]
    A = np.empty((grid.size, grid.size))
    for rows, block in _row_panels(grid):
        A[rows] = block
    return A


def dense_matvec(grid: QuadratureGrid, q):
    """A @ q assembled row panel by row panel; never stores the N x N matrix."""
    q = np.asarray(q, float)
    out = np.empty_like(q)
    for rows, block in _row_panels(grid):
        out[rows] = block @ q
    return out


def dense_matvec_transpose(grid: QuadratureGrid, q):
    """A.T @ q summed over the same row panels as dense_matvec."""
    q = np.asarray(q, float)
    out = np.zeros_like(q)
    for rows, block in _row_panels(grid):
        out += block.T @ q[rows]
    return out


def eval_dlp_potential(grid: QuadratureGrid, density, targets):
    """Double-layer potential at off-curve target points."""
    targets = np.atleast_2d(np.asarray(targets, float))
    dx, dy, r2 = _differences(targets, grid.points)
    return _dipole(dx, dy, r2, grid.normals, grid.weights) @ np.asarray(density, float)


def _row_chunks(count, n):
    """Slices of range(count) whose rows against n nodes hold ~2^20 entries,
    so per-pair temporaries stay a few MiB at any N."""
    rows = max(1, 2**20 // n)
    return (slice(a, a + rows) for a in range(0, count, rows))


def winding_number(grid: QuadratureGrid, targets):
    """Winding number of the (ordered, closed) node polygon around targets,
    as exact integers.

    Each target's rightward horizontal ray is tested against the edges:
    an upward crossing with the target on the edge's left counts +1, a
    downward crossing with the target on its right counts -1.  A node on
    the ray counts as above it when its y is greater than the target's, so
    a ray through a node crosses exactly once where the polygon passes it.
    Only the straddling edges form a cross product.
    """
    targets = np.atleast_2d(np.asarray(targets, float))
    closed = np.concatenate([grid.points, grid.points[:1]])  # edge e: node e -> e + 1
    y = np.ascontiguousarray(closed[:, 1])
    out = np.zeros(targets.shape[0], dtype=np.intp)
    for rows in _row_chunks(targets.shape[0], grid.size):
        tx, ty = targets[rows, 0], targets[rows, 1]
        above = y > ty[:, None]
        # flat indices: a 2-D nonzero is ~20x slower than a 1-D one
        i, e = np.divmod(np.flatnonzero(above[:, :-1] != above[:, 1:]), grid.size)
        upward = above[i, e + 1]
        dx0, dy0 = closed[e, 0] - tx[i], closed[e, 1] - ty[i]
        dx1, dy1 = closed[e + 1, 0] - tx[i], closed[e + 1, 1] - ty[i]
        cross = dx0 * dy1 - dy0 * dx1  # > 0: the target is left of the edge
        n = tx.shape[0]
        out[rows] = (np.bincount(i[upward & (cross > 0)], minlength=n)
                     - np.bincount(i[~upward & (cross < 0)], minlength=n))
    return out


def interior_probe_points(grid: QuadratureGrid, count=10):
    """Heuristic well-separated interior points for harmonic spot checks.

    Candidates are boundary nodes pulled toward the node centroid and
    nodes offset along the inward normal; candidates whose winding number
    (an exact integer) is not 1 are dropped, and the deepest survivors
    (farthest from their nearest node) win.  `count` must be a positive
    whole number; fewer points come back when fewer candidates are inside.
    """
    count = _whole(count, "count")
    if count < 1:
        raise ValueError(f"count must be a positive whole number, got {count!r}")
    pts = grid.points
    c = pts.mean(axis=0)
    scale = np.max(np.linalg.norm(pts - c, axis=1))
    stride = max(1, grid.size // (4 * count))
    seeds = pts[::stride]
    normals = grid.normals[::stride]
    cands = [c + s * (seeds - c) for s in (0.2, 0.4, 0.6)]
    cands += [seeds - d * scale * normals for d in (0.02, 0.05, 0.1)]
    cands = np.concatenate(cands, axis=0)

    cands = cands[winding_number(grid, cands) == 1]
    if cands.shape[0] == 0:
        raise ValueError("no interior probe points found; geometry too thin?")
    # each candidate's clearance: its squared distance to the nearest node,
    # an exact minimum over all nodes; ranked by the distance, not its square,
    # so that squares which round to one distance tie as equal distances
    clearance = np.empty(cands.shape[0])
    for rows in _row_chunks(cands.shape[0], grid.size):
        clearance[rows] = _differences(cands[rows], pts)[2].min(axis=1)
    order = np.argsort(-np.sqrt(clearance))
    return cands[order[:count]]


def interior_error(grid: QuadratureGrid, density, source):
    """Largest error of the density's double-layer potential against
    log|z - source| at 10 interior probe points."""
    targets = interior_probe_points(grid, count=10)
    u = eval_dlp_potential(grid, density, targets)
    return float(np.max(np.abs(u - log_distance(targets, source))))


def log_distance(points, source):
    """log|z - source| at each of the (n, 2) points z: the harmonic field
    whose boundary values `harmonic_trace` gives."""
    source = np.asarray(source, float)
    dx = points[:, 0] - source[0]
    dy = points[:, 1] - source[1]
    r = dx * dx
    r += dy * dy
    np.sqrt(r, out=r)
    return np.log(r, out=r)


def harmonic_trace(grid: QuadratureGrid, source):
    """Boundary values of u(x) = log|x - source| (source outside the domain)."""
    return log_distance(grid.points, source)


# ---------------------------------------------------------------------------
# File formats: grid CSV and dense binary dumps
# ---------------------------------------------------------------------------

GRID_CSV_FIELDS = ("t", "x", "y", "nx", "ny", "w", "panel")
# build_grid writes unit normals to 17 digits; a loaded normal may be off by this
UNIT_NORMAL_TOL = 1e-8


def save_grid_csv(path, grid: QuadratureGrid):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(GRID_CSV_FIELDS)
        for i in range(grid.size):
            writer.writerow(
                [
                    f"{grid.t[i]:.17g}",
                    f"{grid.points[i, 0]:.17g}",
                    f"{grid.points[i, 1]:.17g}",
                    f"{grid.normals[i, 0]:.17g}",
                    f"{grid.normals[i, 1]:.17g}",
                    f"{grid.weights[i]:.17g}",
                    int(grid.panel_of[i]),
                ]
            )


def _curvature_from_panels(t, points, panel_of):
    """Signed curvature recovered per panel from a polynomial fit in t.

    The Gauss nodes of a panel interpolate the (analytic) coordinate
    functions to near machine precision, so differentiating the fit gives
    an accurate curvature without knowing the underlying contour.
    """
    kappa = np.zeros(len(t))
    for p in np.unique(panel_of):
        sel = np.where(panel_of == p)[0]
        ts = t[sel]
        deg = len(sel) - 1
        cx = np.polynomial.chebyshev.Chebyshev.fit(ts, points[sel, 0], deg)
        cy = np.polynomial.chebyshev.Chebyshev.fit(ts, points[sel, 1], deg)
        dx, dy = cx.deriv()(ts), cy.deriv()(ts)
        ddx, ddy = cx.deriv(2)(ts), cy.deriv(2)(ts)
        kappa[sel] = (dx * ddy - dy * ddx) / np.hypot(dx, dy) ** 3
    return kappa


def load_grid_csv(path) -> QuadratureGrid:
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    data = np.genfromtxt(lines, delimiter=",", names=True).reshape(-1) if lines else ()
    if len(data) == 0:  # genfromtxt fails on no lines and reads a header alone as 0 rows
        raise ValueError(f"{path}: no data rows")
    for name in GRID_CSV_FIELDS:
        bad = np.flatnonzero(~np.isfinite(data[name]))
        if bad.size:
            raise ValueError(f"{path}: non-finite or unreadable {name!r} in data row {bad[0] + 1}")
    length = np.hypot(data["nx"], data["ny"])
    for field, bad, rule in (("'w'", data["w"] <= 0, "weights must be positive"),
                             ("'nx', 'ny'", np.abs(length - 1) > UNIT_NORMAL_TOL,
                              "normals must have unit length")):
        if bad.any():
            raise ValueError(f"{path}: bad {field} in data row {np.argmax(bad) + 1}: {rule}")
    t = data["t"]
    points = np.stack([data["x"], data["y"]], axis=-1)
    panel_of = data["panel"].astype(int)
    panels, first, counts = np.unique(panel_of, return_index=True, return_counts=True)
    if np.any(counts < 2):  # build_grid's rule; the curvature fit needs 2 nodes
        i = np.argmax(counts < 2)
        raise ValueError(f"{path}: panel {panels[i]} (data row {first[i] + 1}) has one "
                         f"node; every panel needs at least 2")
    return QuadratureGrid(
        t=t,
        points=points,
        normals=np.stack([data["nx"], data["ny"]], axis=-1),
        weights=data["w"],
        panel_of=panel_of,
        curvature=_curvature_from_panels(t, points, panel_of),
    )
