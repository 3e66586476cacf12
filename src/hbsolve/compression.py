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
entries (points of other nodes inside the circle, found by one cell search
over the level's active points per level and side) are evaluated directly,
which keeps the total cost O(N).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import quadrature as quad
from .config import CompressionConfig
from .diagnostics import _sig3, error_estimate
from .hbs import HbsMatrix, _ranges, allocate_stacks, as_real, block_views, hbs_matvec
# inverse_to_hbs stays importable here: perfbench's tracer wraps compression.inverse_to_hbs
from .inversion import apply_inverse, hbs_invert, inverse_to_hbs  # noqa: F401
from .lowrank import id_row
from .quadrature import QuadratureGrid
from .tree import IndexTree, build_tree

DENSE_MODE_GUARD = 8000


@dataclass
class SkeletonSet:
    """Global row/column skeleton indices per non-root node; the root is
    never skeletonized, so at depth 0 both dicts are empty."""

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
    """One fine-to-coarse level loop that skeletonizes a level's nodes, puts
    their blocks into the level's stacks, then gives each parent its
    children's skeletons as active sets.  `sampler.sample(level, tau,
    active_r, active_c, ctx)` returns a node's row/column sample blocks (C
    transposed); `entry` is the exact submatrix oracle.  At depth 0 no level
    runs and the one leaf holds D."""
    active_r = {tau: tree.indices(tau) for tau in tree.leaves}
    active_c = dict(active_r)
    stacks = {name: {} for name in HbsMatrix.NAMES}
    row_skel, col_skel, local_skel, ranks = {}, {}, {}, {}

    def store(level, coeffs):
        """Put one level's blocks into new stacks, allocated from the ranks:
        the IDs' coefficients `coeffs` ({name: {node: U or V}}), and, each
        evaluated by `entry` straight into its slot, a leaf's D or a
        parent's B pair between its children's skeletons."""
        level_stacks = allocate_stacks(tree, ranks, False, [level])
        slots = block_views(level_stacks)
        for name, of in coeffs.items():
            for tau, b in of.items():
                slots[name][tau][...] = b
        for tau in tree.nodes_at_level(level):
            if tree.is_leaf(tau):
                slots["D"][tau][...] = entry(active_r[tau], active_c[tau])
            else:
                slots["B12"][tau][...] = entry(row_skel[2 * tau], col_skel[2 * tau + 1])
                slots["B21"][tau][...] = entry(row_skel[2 * tau + 1], col_skel[2 * tau])
        for name, levels in level_stacks.items():
            stacks[name].update(levels)

    for level in range(tree.levels, 0, -1):
        ctx = sampler.level_context(level, active_r, active_c)
        coeffs = {"U": {}, "V": {}}
        for tau in tree.nodes_at_level(level):
            R, C = sampler.sample(level, tau, active_r[tau], active_c[tau], ctx)
            idr, idc = _node_id(R, C, cfg.tol, cfg.symmetrize)
            coeffs["U"][tau], coeffs["V"][tau] = idr.coeffs, idc.coeffs
            ranks[tau] = idr.rank
            row_skel[tau] = active_r[tau][idr.skeleton]
            col_skel[tau] = active_c[tau][idc.skeleton]
            local_skel[tau] = (idr.skeleton, idc.skeleton)
        store(level, coeffs)
        for parent in tree.nodes_at_level(level - 1):
            s1, s2 = 2 * parent, 2 * parent + 1
            active_r[parent] = np.concatenate([row_skel[s1], row_skel[s2]])
            active_c[parent] = np.concatenate([col_skel[s1], col_skel[s2]])
    store(0, {})

    A = HbsMatrix(tree, local_skeletons=local_skel, stacks=stacks)
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
    """Proxy rings and near-field lists are built once per level; a node's
    sample then reads its own entries of them."""

    def __init__(self, grid, kernel, tree, cfg):
        self.grid = grid
        self.kernel = kernel
        self.tree = tree
        self.cfg = cfg
        theta = 2 * np.pi * np.arange(cfg.proxy_points) / cfg.proxy_points
        self.unit_ring = np.column_stack([np.cos(theta), np.sin(theta)])

    def level_context(self, level, active_r, active_c):
        """The level's (p, P, 2) proxy rings and, per side, each node's
        near field: the other nodes' active points inside its ring.

        A ring is centered on the mean of the node's active row and column
        points and has proxy_radius_factor times their largest distance
        from it.  A node's active points lie in its contiguous index range,
        so one mask over the level, read in index order, holds every node's
        union of them back to back."""
        nodes = self.tree.nodes_at_level(level)
        mark = np.zeros(self.tree.n, dtype=bool)
        for active in (active_r, active_c):
            mark[np.concatenate([active[tau] for tau in nodes])] = True
        union = np.flatnonzero(mark)
        starts = np.searchsorted(union, [self.tree.ranges[tau][0] for tau in nodes])
        sizes = np.diff(starts, append=union.size)
        pts = self.grid.points[union]
        centers = np.add.reduceat(pts, starts) / sizes[:, None]
        d = pts - np.repeat(centers, sizes, axis=0)
        r2 = np.maximum.reduceat(d[:, 0] ** 2 + d[:, 1] ** 2, starts)
        radii = self.cfg.proxy_radius_factor * np.maximum(np.sqrt(r2), 1e-8)
        rings = centers[:, None, :] + radii[:, None, None] * self.unit_ring
        near_r = _near(self.grid.points, [active_r[tau] for tau in nodes], centers, radii)
        if all(active_c[tau] is active_r[tau] for tau in nodes):  # leaves: one search
            return rings, near_r, near_r
        return rings, near_r, _near(self.grid.points, [active_c[tau] for tau in nodes],
                                    centers, radii)

    def sample(self, level, tau, active_r, active_c, ctx):
        rings, near_r, near_c = ctx
        i = tau - 2**level
        R = np.hstack([
            self.kernel.matrix(active_r, near_c[i]),
            self.kernel.row_proxy(active_r, rings[i]),
        ])
        C = np.hstack([
            self.kernel.matrix(near_r[i], active_c).T,
            self.kernel.col_proxy(active_c, rings[i]),
        ])
        return R, C


def _near(points, groups, centers, radii):
    """For each ring i (centers[i], radii[i]), the indices of the other
    groups' points p with |p - center|^2 <= radius^2, in the order of
    concatenate(groups).

    A fixed-radius cell search: the points are binned into square cells
    whose side is the largest radius, so a ring's hits lie in the 3 x 3
    block of cells around its centre's.  Keys sort the cells column by
    column, so each of the block's three columns is one run of the sorted
    points, found by two binary searches.  The side is a hair above the
    largest radius, so that rounding in the binning cannot push a point at
    exactly that radius out of the block, and at least 2^-20 of the
    cloud's span, so that the keys stay small."""
    idx = np.concatenate(groups)
    owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    pts = points[idx]
    low, high = pts.min(axis=0), pts.max(axis=0)
    side = max(radii.max(), np.max(high - low) * 2**-20) * (1 + 2**-20)
    cells = np.floor((pts - low) / side).astype(np.intp)
    height = cells[:, 1].max() + 1
    keys = cells[:, 0] * height + cells[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
    at = np.floor((centers - low) / side).astype(np.intp)
    columns = (at[:, :1] + (-1, 0, 1)) * height
    first = np.searchsorted(keys, columns + np.maximum(at[:, 1:] - 1, 0))
    last = np.searchsorted(keys, columns + np.minimum(at[:, 1:] + 1, height - 1), side="right")
    counts = np.maximum(last - first, 0).ravel()
    ring = np.repeat(np.arange(3 * len(groups)) // 3, counts)
    cand = order[_ranges(first.ravel(), counts)]
    d = pts[cand] - centers[ring]
    keep = (d[:, 0] ** 2 + d[:, 1] ** 2 <= radii[ring] ** 2) & (owner[cand] != ring)
    # ascending (ring, position in idx)
    hits = np.sort(ring[keep] * idx.size + cand[keep])
    per_ring = np.bincount(ring[keep], minlength=len(groups))
    return np.split(idx[hits % idx.size], np.cumsum(per_ring)[:-1])


def _guard_dense(n):
    """Refuse dense mode above DENSE_MODE_GUARD, before any N x N array exists."""
    if n > DENSE_MODE_GUARD:
        raise ValueError(
            f"dense mode is guarded to N <= {DENSE_MODE_GUARD} "
            f"(got N = {n}); use proxy mode"
        )


def compress_dense(A_dense, tree: IndexTree, cfg: CompressionConfig):
    """Baseline compression from the assembled matrix (oracle scale)."""
    _guard_dense(tree.n)
    A_dense = np.asarray(A_dense, float)
    if A_dense.shape != (tree.n, tree.n):
        raise ValueError("matrix shape does not match the tree")
    entry = lambda rows, cols: A_dense[np.ix_(rows, cols)]
    return _compress(tree, cfg, _DenseSampler(A_dense, tree), entry)


def compress_proxy(grid: QuadratureGrid, kernel, tree: IndexTree, cfg: CompressionConfig):
    """Proxy-circle compression; never forms an N x N array.  A leaf of more
    than DENSE_MODE_GUARD nodes, whose D block dense mode would refuse as
    the whole matrix, raises ValueError before any block is sampled."""
    leaf = tree.size_of(1 << tree.levels)  # the first leaf: splits give the left the ceiling
    if leaf > DENSE_MODE_GUARD:
        raise ValueError(f"a leaf of {leaf} nodes exceeds N = {DENSE_MODE_GUARD}, the largest "
                         f"dense block; lower target_leaf (got {cfg.target_leaf})")
    sampler = _ProxySampler(grid, kernel, tree, cfg)
    return _compress(tree, cfg, sampler, kernel.matrix)


def compress(grid: QuadratureGrid, cfg: CompressionConfig):
    """Compress the double-layer Nystrom system per the config's mode."""
    tree = build_tree(grid.size, cfg.target_leaf)
    if cfg.mode == "dense":
        _guard_dense(grid.size)
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


def _residual(A: HbsMatrix, q, rhs):
    """Largest column-wise ||A q - f|| / ||f|| over (N,) or (N, m) input;
    a zero column counts 0."""
    n = rhs.shape[0]
    r = np.linalg.norm((hbs_matvec(A, q) - rhs).reshape(n, -1), axis=0)
    f = np.linalg.norm(rhs.reshape(n, -1), axis=0)
    return float(np.max(np.divide(r, f, out=np.zeros_like(r), where=f > 0), initial=0.0))


def solve_workflow(grid: QuadratureGrid, cfg: CompressionConfig, rhs, *,
                   estimate_error=False, seed=0):
    """End-to-end pipeline: compress, invert, apply.

    rhs is one right-hand side (N,) or a block (N, m) of them, all served
    by the same factorization.  Returns (solution of rhs's shape, report);
    the report carries per-step timings, per-level rank statistics,
    conditioning telemetry and the residual of A_approx, all JSON-safe.

    With estimate_error the report also carries the a posteriori error
    certificate, by the method diagnostics.error_estimate picks for N.
    """
    rhs = as_real(rhs, "rhs")
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
        "schema_version": 3,
        "n": int(grid.size),
        "levels": int(A.tree.levels),
        **asdict(cfg),
        "proxy_kernel": "monopole rows, weighted dipole columns",
        "timings": {
            "compress": _sig3(t1 - t0),
            "invert": _sig3(t2 - t1),
            "apply": _sig3(t3 - t2),
        },
        "residual": _sig3(_residual(A, q, rhs)),
        "ranks": _rank_stats(A),
        "condition": {
            "max_cond_Dtilde": _sig3(max(t.get("cond_Dtilde", 1.0) for t in conds)),
            "max_cond_core": _sig3(max(t.get("cond_core", 1.0) for t in conds)),
        },
    }

    if estimate_error:
        report["error_estimate"] = error_estimate(grid, A, inv, seed)
    return q, report
