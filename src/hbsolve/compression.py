"""HBS compression of Nystrom systems, dense and proxy-accelerated.

Both modes run the same level-by-level skeletonization, fine to coarse.
At each node an interpolatory decomposition of a row block and a column
block of the matrix picks skeleton indices and interpolation bases; at
higher levels the procedure repeats on the submatrix indexed by the
children's skeletons, so parent skeletons nest inside the children's.
Sibling interaction blocks are exact submatrices of the original matrix.

The dense mode samples the full off-diagonal row/column blocks and needs
the assembled matrix (guarded to moderate N).  The proxy mode replaces
the far field with a small ring of proxy points: the harmonic far field
of a source cluster is reproduced by monopole charges on a circle around
it, so a node's interaction with everything outside its proxy circle is
captured by log-kernel columns against that ring.  Only near-field
entries (points of other nodes inside the circle, found with a k-d tree
per level) are evaluated directly, which keeps the total cost O(N).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import quadrature as quad
from .hbs import HbsMatrix
# inverse_to_hbs stays importable here: perfbench's tracer wraps compression.inverse_to_hbs
from .inversion import apply_inverse, hbs_invert, inverse_to_hbs  # noqa: F401
from .lowrank import id_row
from .quadrature import QuadratureGrid
from .tree import IndexTree, build_tree

DENSE_MODE_GUARD = 8000


@dataclass(frozen=True)
class CompressionConfig:
    tol: float = 1e-10
    proxy_points: int = 50
    proxy_radius_factor: float = 1.5
    symmetrize: bool = False
    target_leaf: int = 64
    mode: str = "dense"

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.proxy_points < 8:
            raise ValueError("proxy_points must be >= 8")
        if self.proxy_radius_factor <= 1:
            raise ValueError("proxy_radius_factor must exceed 1")
        if self.target_leaf < 2:
            raise ValueError("target_leaf must be >= 2")
        if self.mode not in ("dense", "proxy"):
            raise ValueError(f"mode must be 'dense' or 'proxy', got {self.mode!r}")


@dataclass
class SkeletonSet:
    """Global row/column skeleton indices per tree node."""

    row: dict
    col: dict


class NystromDlpKernel:
    """Entry oracle for the double-layer Nystrom matrix plus the proxy
    interactions used in far-field compression."""

    def __init__(self, grid: QuadratureGrid):
        self.grid = grid

    def matrix(self, rows, cols):
        return quad.nystrom_block(self.grid, rows, cols)

    def row_proxy(self, rows, proxy_pts):
        """Monopole basis log|x_i - z_j| spanning incoming harmonic fields."""
        _, _, r2 = quad._differences(self.grid.points[rows], proxy_pts)
        np.log(r2, out=r2)
        r2 *= 0.5
        return r2

    def col_proxy(self, cols, proxy_pts):
        """Outgoing field of the weighted dipole sources at proxy targets,
        transposed to (len(cols), J)."""
        g = self.grid
        dx, dy, r2 = quad._differences(proxy_pts, g.points[cols])
        return quad._dipole(dx, dy, r2, g.normals[cols], g.weights[cols]).T


def _node_id(R, C, tol, symmetrize):
    """Skeletonize one node from its row block R and (transposed) column
    block C; returns (row ID, col ID) with equal ranks."""
    if symmetrize:
        shared = id_row(np.hstack([R, C]), tol)
        return shared, shared
    idr, idc = id_row(R, tol), id_row(C, tol)
    # the recursive inversion needs square V* D~^-1 U, so pin both sides
    # to the larger adaptive rank, truncating each side's own CPQR
    k = max(idr.rank, idc.rank)
    return idr.truncate(k), idc.truncate(k)


def _compress(tree: IndexTree, cfg: CompressionConfig, sampler, entry):
    """Shared level loop.  `sampler(level, tau, active_r, active_c, ctx)`
    returns the node's row/column sample blocks (C transposed); `entry`
    is the exact submatrix oracle."""
    if tree.levels == 0:
        idx = tree.indices(1)
        A = HbsMatrix(tree=tree, D={1: entry(idx, idx)}, U={}, V={}, B12={}, B21={})
        return A, SkeletonSet(row={1: idx}, col={1: idx})

    active_r = {tau: tree.indices(tau) for tau in tree.leaves}
    active_c = {tau: tree.indices(tau) for tau in tree.leaves}
    U, V, row_skel, col_skel, local_skel = {}, {}, {}, {}, {}

    for level in range(tree.levels, 0, -1):
        ctx = sampler.level_context(level, active_r, active_c)
        for tau in tree.nodes_at_level(level):
            R, C = sampler.sample(level, tau, active_r[tau], active_c[tau], ctx)
            idr, idc = _node_id(R, C, cfg.tol, cfg.symmetrize)
            U[tau], V[tau] = idr.coeffs, idc.coeffs
            row_skel[tau] = active_r[tau][idr.skeleton]
            col_skel[tau] = active_c[tau][idc.skeleton]
            local_skel[tau] = (idr.skeleton, idc.skeleton)
        if level > 1:
            for parent in tree.nodes_at_level(level - 1):
                s1, s2 = 2 * parent, 2 * parent + 1
                active_r[parent] = np.concatenate([row_skel[s1], row_skel[s2]])
                active_c[parent] = np.concatenate([col_skel[s1], col_skel[s2]])

    B12, B21 = {}, {}
    for level in range(0, tree.levels):
        for parent in tree.nodes_at_level(level):
            s1, s2 = 2 * parent, 2 * parent + 1
            B12[parent] = entry(row_skel[s1], col_skel[s2])
            B21[parent] = entry(row_skel[s2], col_skel[s1])
    D = {tau: entry(tree.indices(tau), tree.indices(tau)) for tau in tree.leaves}

    A = HbsMatrix(
        tree=tree, D=D, U=U, V=V, B12=B12, B21=B21,
        interpolatory=True, local_skeletons=local_skel,
    )
    return A, SkeletonSet(row=row_skel, col=col_skel)


class _DenseSampler:
    def __init__(self, A_dense, tree):
        self.A = A_dense
        self.tree = tree

    def level_context(self, level, active_r, active_c):
        return None

    def sample(self, level, tau, active_r, active_c, ctx):
        start, stop = self.tree.ranges[tau]
        comp = np.r_[0:start, stop : self.tree.n]
        R = self.A[np.ix_(active_r, comp)]
        C = self.A[np.ix_(comp, active_c)].T
        return R, C


class _ProxySampler:
    def __init__(self, grid, kernel, tree, cfg):
        self.grid = grid
        self.kernel = kernel
        self.tree = tree
        self.cfg = cfg

    def level_context(self, level, active_r, active_c):
        """Per-level k-d trees over the active points, for near-field lookup."""
        ctx = {}
        for name, active in (("r", active_r), ("c", active_c)):
            nodes = list(self.tree.nodes_at_level(level))
            idx = np.concatenate([active[tau] for tau in nodes])
            owner = np.concatenate(
                [np.full(len(active[tau]), tau) for tau in nodes]
            )
            ctx[name] = (cKDTree(self.grid.points[idx]), idx, owner)
        return ctx

    def _near(self, ctx_part, tau, center, radius):
        kd, idx, owner = ctx_part
        hits = kd.query_ball_point(center, radius)
        hits = np.asarray(hits, dtype=int)
        if hits.size == 0:
            return np.empty(0, dtype=int)
        keep = owner[hits] != tau
        return idx[hits[keep]]

    def sample(self, level, tau, active_r, active_c, ctx):
        pts = self.grid.points[np.union1d(active_r, active_c)]
        center = pts.mean(axis=0)
        radius = np.max(np.linalg.norm(pts - center, axis=1))
        proxy_radius = self.cfg.proxy_radius_factor * max(radius, 1e-8)
        theta = 2 * np.pi * np.arange(self.cfg.proxy_points) / self.cfg.proxy_points
        proxy = center + proxy_radius * np.column_stack([np.cos(theta), np.sin(theta)])

        near_c = self._near(ctx["c"], tau, center, proxy_radius)
        near_r = self._near(ctx["r"], tau, center, proxy_radius)
        R = np.hstack([
            self.kernel.matrix(active_r, near_c),
            self.kernel.row_proxy(active_r, proxy),
        ])
        C = np.hstack([
            self.kernel.matrix(near_r, active_c).T,
            self.kernel.col_proxy(active_c, proxy),
        ])
        return R, C


def compress_dense(A_dense, tree: IndexTree, cfg: CompressionConfig):
    """Baseline compression from the assembled matrix (oracle scale)."""
    A_dense = np.asarray(A_dense, float)
    if tree.n > DENSE_MODE_GUARD:
        raise ValueError(
            f"dense mode is guarded to N <= {DENSE_MODE_GUARD} "
            f"(got N = {tree.n}); use proxy mode"
        )
    if A_dense.shape != (tree.n, tree.n):
        raise ValueError("matrix shape does not match the tree")
    entry = lambda rows, cols: A_dense[np.ix_(rows, cols)].copy()
    return _compress(tree, cfg, _DenseSampler(A_dense, tree), entry)


def compress_proxy(grid: QuadratureGrid, kernel, tree: IndexTree, cfg: CompressionConfig):
    """Proxy-circle compression; never forms an N x N array."""
    sampler = _ProxySampler(grid, kernel, tree, cfg)
    return _compress(tree, cfg, sampler, kernel.matrix)


def compress(grid: QuadratureGrid, cfg: CompressionConfig, tree=None):
    """Compress the double-layer Nystrom system per the config's mode."""
    if tree is None:
        tree = build_tree(grid.size, cfg.target_leaf)
    if cfg.mode == "dense":
        return compress_dense(quad.assemble_dlp(grid), tree, cfg)
    return compress_proxy(grid, NystromDlpKernel(grid), tree, cfg)


def _rank_stats(A: HbsMatrix):
    stats = {}
    for level in range(A.tree.levels, 0, -1):
        ks = [A.rank_of(tau) for tau in A.tree.nodes_at_level(level)]
        stats[level] = {
            "min": int(min(ks)), "max": int(max(ks)),
            "mean": round(float(np.mean(ks)), 2),
        }
    return stats


def _sig3(x):
    return float(f"{x:.3g}")


def solve_workflow(grid: QuadratureGrid, cfg: CompressionConfig, rhs, *,
                   estimate_error=False, seed=0):
    """End-to-end pipeline: compress, invert, apply.

    rhs is one right-hand side (N,) or a block (N, m) of them, all served
    by the same factorization.  Returns (solution of rhs's shape, report);
    the report carries per-step timings, per-level rank statistics, and
    conditioning telemetry, all JSON-safe.
    """
    rhs = np.asarray(rhs, float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != grid.size:
        raise ValueError(f"rhs of shape {rhs.shape} does not match grid size {grid.size}: "
                         f"expected ({grid.size},) or ({grid.size}, m)")
    bad = np.argwhere(~np.isfinite(rhs.reshape(grid.size, -1)))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"rhs has {len(bad)} non-finite entries, "
                         f"the first at index {row} of column {col}")

    t0 = time.monotonic()
    A, skel = compress(grid, cfg)
    t1 = time.monotonic()
    inv = hbs_invert(A)
    t2 = time.monotonic()
    q = apply_inverse(inv, rhs)
    t3 = time.monotonic()

    conds = [tel for tel in inv.telemetry.values()]
    report = {
        "schema_version": 2,
        "n": int(grid.size),
        "levels": int(A.tree.levels),
        "mode": cfg.mode,
        "tol": cfg.tol,
        "proxy_points": cfg.proxy_points,
        "proxy_radius_factor": cfg.proxy_radius_factor,
        "symmetrize": cfg.symmetrize,
        "target_leaf": cfg.target_leaf,
        "proxy_kernel": "monopole rows, weighted dipole columns",
        "timings": {
            "compress": _sig3(t1 - t0),
            "invert": _sig3(t2 - t1),
            "apply": _sig3(t3 - t2),
        },
        "ranks": _rank_stats(A),
        "condition": {
            "max_cond_Dtilde": _sig3(max(t.get("cond_Dtilde", 1.0) for t in conds)),
            "max_cond_core": _sig3(max(t.get("cond_core", 1.0) for t in conds)),
        },
    }

    if estimate_error:
        if grid.size > DENSE_MODE_GUARD:
            raise ValueError(
                "error estimation needs the dense matvec oracle and is "
                f"capped at N <= {DENSE_MODE_GUARD}"
            )
        from .diagnostics import estimate_solver_error

        err_A, norm_inv, bound = estimate_solver_error(grid, A, inv, seed=seed)
        report["error_estimate"] = {
            "err_A": _sig3(err_A),
            "norm_inv": _sig3(norm_inv),
            "bound_factor": _sig3(err_A * norm_inv),
        }
    return q, report
