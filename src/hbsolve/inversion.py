"""Exact inversion of block-separable and HBS matrices.

A single-level block-separable matrix A = U Atilde V* + D (block-diagonal
U, V, D) inverts through the variable substitution

    A^-1 = E (Atilde + Dhat)^-1 F* + G

with, per diagonal block,

    Dhat = (V* D^-1 U)^-1
    E    = D^-1 U Dhat
    F*   = Dhat V* D^-1
    G    = D^-1 - D^-1 U Dhat V* D^-1.

Applying the same identity recursively level by level inverts an HBS
matrix in O(N k^2): each parent's reduced diagonal block is assembled
from its children's Dhat factors and the sibling interaction blocks, and
the top-level (Atilde + Dhat) is a small dense matrix inverted directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .hbs import HbsMatrix, StackedBlocks, _telescope, allocate_stacks, block_views, transposed

COND_WARN_THRESHOLD = 1e13


class SingularBlockError(np.linalg.LinAlgError):
    """An intermediate block to invert is singular; message names the block."""


def _inv(M, what):
    """Dense inverse from one LU, with a singularity error naming the block,
    plus the LAPACK 1-norm condition estimate from that same LU."""
    if M.shape[0] == 0:
        return M.reshape(0, 0).copy(), 1.0
    lu, piv, info = lapack.dgetrf(M)
    if info > 0:
        raise SingularBlockError(f"singular matrix while inverting {what}")
    out, _ = lapack.dgetri(lu, piv)
    if not np.all(np.isfinite(out)):
        raise SingularBlockError(f"non-finite inverse of {what}")
    rcond, _ = lapack.dgecon(lu, np.linalg.norm(M, 1))
    cond = 1.0 / rcond if rcond > 0 else np.inf
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(f"ill-conditioned {what}: cond = {cond:.3e}", RuntimeWarning)
    return out, float(cond)


def _node_factors(Dt, U, V, what, out):
    """Write E, F, G, Dhat of one block, from its (reduced) diagonal block
    Dt, into `out`, four arrays of their shapes; returns the block's
    condition estimates."""
    E, F, G, Dhat = out
    Dtinv, cond_Dt = _inv(Dt, what)
    DiU = Dtinv @ U
    ViDi = V.T @ Dtinv
    Dh, cond_M = _inv(V.T @ DiU, f"V* D~^-1 U of {what}")
    np.matmul(DiU, Dh, out=E)
    np.subtract(Dtinv, np.matmul(E, ViDi, out=G), out=G)
    F[...], Dhat[...] = (Dh @ ViDi).T, Dh
    return {"cond_Dtilde": cond_Dt, "cond_core": cond_M}


# ---------------------------------------------------------------------------
# Single-level block-separable matrices
# ---------------------------------------------------------------------------


@dataclass
class BlockSeparableMatrix:
    """A = U Atilde V* + D with p diagonal blocks; Atilde has zero
    diagonal blocks and couples the blocks' rank-k spaces."""

    D: list      # p blocks, (n_i, n_i)
    U: list      # p blocks, (n_i, k_i)
    V: list      # p blocks, (n_i, k_i)
    core: np.ndarray  # (sum k_i, sum k_i), zero diagonal blocks

    def to_dense(self):
        from scipy.linalg import block_diag

        U = block_diag(*self.U)
        V = block_diag(*self.V)
        return U @ self.core @ V.T + block_diag(*self.D)


@dataclass
class BlockSeparableInverse:
    E: list
    F: list
    G: list
    Dhat: list
    core_inverse: np.ndarray  # inverse of (Atilde + blockdiag(Dhat))
    telemetry: dict

    def apply(self, v):
        v = np.asarray(v, float)
        sizes = [g.shape[0] for g in self.G]
        splits = np.cumsum(sizes)[:-1]
        parts = np.split(v, splits)
        w = np.concatenate([F.T @ p for F, p in zip(self.F, parts)])
        y = self.core_inverse @ w
        ranks = [e.shape[1] for e in self.E]
        ysplit = np.split(y, np.cumsum(ranks)[:-1])
        return np.concatenate(
            [E @ yi + G @ p for E, G, yi, p in zip(self.E, self.G, ysplit, parts)]
        )


def bs_invert(A: BlockSeparableMatrix) -> BlockSeparableInverse:
    """Invert a single-level block-separable matrix via the substitution
    identity; cost ~ p n^3 + (p k)^3."""
    E, F, G, Dhat = [], [], [], []
    telemetry = {}
    for i, (Di, Ui, Vi) in enumerate(zip(A.D, A.U, A.V)):
        n, k = Ui.shape
        E.append(np.empty((n, k)))
        F.append(np.empty((n, k)))
        G.append(np.empty((n, n)))
        Dhat.append(np.empty((k, k)))
        telemetry[i] = _node_factors(Di, Ui, Vi, f"block {i}", (E[-1], F[-1], G[-1], Dhat[-1]))
    from scipy.linalg import block_diag

    shifted = A.core + block_diag(*Dhat) if Dhat else A.core
    core_inv, cond = _inv(shifted, "shifted core")
    telemetry["core"] = {"cond": cond}
    return BlockSeparableInverse(E, F, G, Dhat, core_inv, telemetry)


# ---------------------------------------------------------------------------
# Recursive HBS inversion
# ---------------------------------------------------------------------------


class HbsInverse(StackedBlocks):
    """Per-node inverse factors, E, F, G and Dhat as Blocks mappings over
    `stacks` (allocate_stacks); G[1] is the dense inverse of the root's
    reduced block: the 2x2 block system, or at depth 0 the whole matrix."""

    NAMES = ("E", "F", "G", "Dhat")
    UP, DOWN, DIAG = "F", "E", "G"

    def __init__(self, tree, telemetry=None, *, stacks):
        super().__init__(tree, stacks)
        self.telemetry = {} if telemetry is None else telemetry

    def coupling(self, level, start, k1, k2):
        """A parent's G maps its children's stacked values, in parent order."""
        return [(S, None) for _, S in self.stacks["G"].get(level, [])], None


def hbs_invert(A: HbsMatrix) -> HbsInverse:
    """Recursive inversion, fine to coarse; exact up to rounding.  The
    inverse's stacks are allocated at once from A's ranks, and each node's
    factors are written into their slots."""
    tree = A.tree
    stacks = allocate_stacks(tree, {tau: A.rank_of(tau) for tau in A.U}, True,
                             range(tree.levels + 1))
    slots, telemetry = block_views(stacks), {}
    E, F, G, Dhat = (slots.get(name, {}) for name in ("E", "F", "G", "Dhat"))

    def reduced_block(tau):
        if tree.is_leaf(tau):
            return A.D[tau]
        s1, s2 = 2 * tau, 2 * tau + 1
        k1, k2 = Dhat[s1].shape[0], Dhat[s2].shape[0]
        Dt = np.empty((k1 + k2, k1 + k2))
        Dt[:k1, :k1] = Dhat[s1]
        Dt[:k1, k1:] = A.B12[tau]
        Dt[k1:, :k1] = A.B21[tau]
        Dt[k1:, k1:] = Dhat[s2]
        return Dt

    for level in range(tree.levels, 0, -1):
        for tau in tree.nodes_at_level(level):
            telemetry[tau] = _node_factors(
                reduced_block(tau), A.U[tau], A.V[tau], f"node {tau} (level {level})",
                (E[tau], F[tau], G[tau], Dhat[tau]))
    G[1][...], cond = _inv(reduced_block(1), "node 1 (level 0)")
    telemetry[1] = {"cond_Dtilde": cond}
    return HbsInverse(tree, telemetry=telemetry, stacks=stacks)


def apply_inverse(inv: HbsInverse, u):
    """q = A^-1 u for u of shape (N,) or (N, m): upward pass through F, dense
    root solve, downward pass through E and G.  Cost O(N k) per column.
    Raises ValueError on a complex u, and LinAlgError if q has a NaN or Inf
    entry (a non-finite u, or a factor corrupted on disk: `load` does not
    scan an inverse's entries)."""
    q = _telescope(inv, u)
    if not np.isfinite(q).all():
        raise np.linalg.LinAlgError("non-finite result of apply_inverse: the right-hand "
                                    "side or the inverse's factors hold NaN or Inf")
    return q


def inverse_transpose(inv: HbsInverse) -> HbsInverse:
    """Factored form of (A^-1)^T over inv's own stacks: E and F swap roles,
    G and Dhat become transposed views; no block is copied."""
    s = inv.stacks
    return HbsInverse(inv.tree, telemetry=inv.telemetry,
                      stacks={"E": s["F"], "F": s["E"], "G": transposed(s["G"]),
                              "Dhat": transposed(s["Dhat"])})


def inverse_to_hbs(inv: HbsInverse) -> HbsMatrix:
    """Reformat the factored inverse into a standard HBS matrix.

    Coarse to fine: each node's G splits into its children's sibling
    interaction blocks plus diagonal corrections, which fold into the
    children's G via G_sigma += E_sigma H F_sigma*.  The leaves' corrected
    G become the D blocks; E and F serve as U and V.
    """
    tree = inv.tree
    G, B12, B21 = dict(inv.G), {}, {}  # entries are rebound, never edited in place
    for level in range(0, tree.levels):
        for tau in tree.nodes_at_level(level):
            s1, s2 = 2 * tau, 2 * tau + 1
            k1 = inv.Dhat[s1].shape[0]
            B12[tau] = G[tau][:k1, k1:]
            B21[tau] = G[tau][k1:, :k1]
            G[s1] = G[s1] + inv.E[s1] @ G[tau][:k1, :k1] @ inv.F[s1].T
            G[s2] = G[s2] + inv.E[s2] @ G[tau][k1:, k1:] @ inv.F[s2].T
    return HbsMatrix(tree, D={tau: G[tau] for tau in tree.leaves}, U=inv.E, V=inv.F,
                     B12=B12, B21=B21)


def reformat_orthonormal(A: HbsMatrix) -> HbsMatrix:
    """Equivalent HBS matrix with orthonormal U, V and diagonal B blocks.

    Fine to coarse: QR the bases, push the triangular factors into the
    sibling B blocks, diagonalize those by full SVD, and absorb the
    rotations into the parent's bases.  The represented matrix is
    unchanged.
    """
    tree = A.tree
    # new dicts over A's blocks: the loop rebinds entries, and the result
    # copies every block into its own stacks
    U, V, B12, B21 = dict(A.U), dict(A.V), dict(A.B12), dict(A.B21)

    R, S = {}, {}
    for level in range(tree.levels, 0, -1):
        for tau in tree.nodes_at_level(level):
            U[tau], R[tau] = np.linalg.qr(U[tau])
            V[tau], S[tau] = np.linalg.qr(V[tau])
        for parent in tree.nodes_at_level(level - 1):
            s1, s2 = 2 * parent, 2 * parent + 1
            X1, sv12, Y2t = np.linalg.svd(R[s1] @ B12[parent] @ S[s2].T)
            X2, sv21, Y1t = np.linalg.svd(R[s2] @ B21[parent] @ S[s1].T)
            U[s1] = U[s1] @ X1
            U[s2] = U[s2] @ X2
            V[s1] = V[s1] @ Y1t.T
            V[s2] = V[s2] @ Y2t.T
            d12 = np.zeros((X1.shape[1], Y2t.shape[0]))
            np.fill_diagonal(d12, sv12)
            d21 = np.zeros((X2.shape[1], Y1t.shape[0]))
            np.fill_diagonal(d21, sv21)
            B12[parent] = d12
            B21[parent] = d21
            if level > 1:
                r1, r2 = X1.shape[1], X2.shape[1]
                TU = np.zeros((r1 + r2, U[parent].shape[0]))
                TU[:r1, : R[s1].shape[1]] = X1.T @ R[s1]
                TU[r1:, R[s1].shape[1] :] = X2.T @ R[s2]
                TV = np.zeros((r1 + r2, V[parent].shape[0]))
                TV[:r1, : S[s1].shape[1]] = Y1t @ S[s1]
                TV[r1:, S[s1].shape[1] :] = Y2t @ S[s2]
                U[parent] = TU @ U[parent]
                V[parent] = TV @ V[parent]
    return HbsMatrix(tree, D=A.D, U=U, V=V, B12=B12, B21=B21)
