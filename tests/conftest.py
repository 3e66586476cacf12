"""Shared builders for the test suite."""

import numpy as np
import pytest

import hbsolve as hb


def circle_grid(n_panels=16, nodes=10):
    c = hb.UnitCircle()
    return hb.build_grid(c, hb.decompose(c, n_panels, 0), nodes)


def star_grid(n_panels=80, nodes=10):
    c = hb.SmoothStar()
    return hb.build_grid(c, hb.decompose(c, n_panels, 0), nodes)


# contours for dense_compression: every rank of the circle is 1 (its
# double-layer kernel is constant), the star's ranks are > 1 and differ
# between siblings
COMPRESSED_CONTOURS = ("circle", "smooth_star")


def dense_compression(contour, n_panels, target_leaf=64):
    """(grid, A, A_hbs): a dense-mode compression at N = 10 n_panels."""
    grid = {"circle": circle_grid, "smooth_star": star_grid}[contour](n_panels, 10)
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, target_leaf)
    Ah, _ = hb.compress_dense(A, tree, hb.CompressionConfig(mode="dense"))
    return grid, A, Ah


def random_hbs(rng, n=256, target_leaf=32, max_rank=6):
    """Random well-formed HBS matrix with heterogeneous ranks."""
    tree = hb.build_tree(n, target_leaf)
    D, U, V, B12, B21 = {}, {}, {}, {}, {}
    ranks = {}
    for tau in tree.leaves:
        m = tree.size_of(tau)
        k = int(rng.integers(1, min(max_rank, m) + 1))
        ranks[tau] = k
        D[tau] = rng.standard_normal((m, m))
        if tau > 1:  # a depth-0 root is a leaf that holds only D
            U[tau] = rng.standard_normal((m, k))
            V[tau] = rng.standard_normal((m, k))
    for level in range(tree.levels - 1, 0, -1):
        for tau in tree.nodes_at_level(level):
            rows = ranks[2 * tau] + ranks[2 * tau + 1]
            k = int(rng.integers(1, min(max_rank, rows) + 1))
            ranks[tau] = k
            U[tau] = rng.standard_normal((rows, k))
            V[tau] = rng.standard_normal((rows, k))
    for level in range(0, tree.levels):
        for tau in tree.nodes_at_level(level):
            B12[tau] = rng.standard_normal((ranks[2 * tau], ranks[2 * tau + 1]))
            B21[tau] = rng.standard_normal((ranks[2 * tau + 1], ranks[2 * tau]))
    return hb.HbsMatrix(tree=tree, D=D, U=U, V=V, B12=B12, B21=B21)


def with_blocks(A, **stores):
    """A new HbsMatrix from A's blocks and skeletons, with `stores` ({name:
    {node: block}}) in place of the named ones.  Blocks are read-only
    mappings, so tests build a modified or defective matrix this way."""
    blocks = {name: getattr(A, name) for name in A.NAMES}
    return hb.HbsMatrix(A.tree, **{**blocks, **stores}, local_skeletons=A.local_skeletons)


def random_block_separable(rng, p=4, n=6, k=2):
    """Random invertible single-level block-separable matrix."""
    from hbsolve.inversion import BlockSeparableMatrix

    D = [rng.standard_normal((n, n)) + 3 * np.eye(n) for _ in range(p)]
    U = [rng.standard_normal((n, k)) for _ in range(p)]
    V = [rng.standard_normal((n, k)) for _ in range(p)]
    core = rng.standard_normal((p * k, p * k))
    for i in range(p):
        core[i * k : (i + 1) * k, i * k : (i + 1) * k] = 0.0
    return BlockSeparableMatrix(D=D, U=U, V=V, core=core)


# block widths the (N, m) tests run: one column, a few, and ROADMAP's 32
BLOCK_WIDTHS = (1, 2, 7, 32)


def depth_zero_hbs(rng, n=5):
    """A matrix too small to split: the tree has one node, D[1] is all of it."""
    tree = hb.build_tree(n, 10)
    D = rng.standard_normal((n, n)) + 3 * np.eye(n)
    return hb.HbsMatrix(tree=tree, D={1: D}, U={}, V={}, B12={}, B21={})


def assert_block_matches_columns(apply, X, tol=1e-12):
    """apply(X) for an (N, m) block has m columns, and each matches apply on
    that column of X alone to tol in relative 2-norm; returns apply(X)."""
    Y = apply(X)
    assert Y.ndim == 2 and Y.shape[1] == X.shape[1]
    for j in range(X.shape[1]):
        y = apply(X[:, j])
        assert y.shape == Y.shape[:1]
        assert np.linalg.norm(Y[:, j] - y) <= tol * np.linalg.norm(y), j
    return Y


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def smooth_star_600():
    """Smooth star, N = 600, proxy-compressed: (grid, HbsMatrix, HbsInverse)."""
    grid = star_grid(60, 10)
    A, _ = hb.compress(grid, hb.CompressionConfig(mode="proxy"))
    return grid, A, hb.hbs_invert(A)


@pytest.fixture(scope="session")
def corner_star_8000():
    """Corner star graded 5 levels deep into each corner, N = 8000,
    proxy-compressed: (grid, HbsMatrix, HbsInverse)."""
    c = hb.CornerStar()
    grid = hb.build_grid(c, hb.decompose(c, 40, 5), 16)
    A, _ = hb.compress(grid, hb.CompressionConfig(mode="proxy"))
    return grid, A, hb.hbs_invert(A)
