"""Hierarchically block-separable (HBS) matrix container and core ops.

An HBS matrix over an IndexTree stores, per the telescoping factorization:

  - leaf tau:        D[tau] (n x n), U[tau] (n x k), V[tau] (n x k)
  - non-root parent: U[tau], V[tau] of shape (k_left + k_right) x k
  - every parent:    sibling interaction blocks B12[tau], B21[tau]
                     coupling the children's outgoing/incoming spaces

The root holds only its B pair; a depth-0 tree degenerates to a single
dense D[1].  Per-node ranks may differ, but each node's row and column
rank agree (U and V have the same column count), which the recursive
inversion relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .tree import IndexTree

EXPAND_DENSE_GUARD = 5000


@dataclass
class HbsMatrix:
    tree: IndexTree
    D: dict                     # leaf -> (n, n); whole matrix at node 1 if levels == 0
    U: dict                     # non-root node -> basis (empty dict if levels == 0)
    V: dict
    B12: dict                   # parent -> A~(left child, right child)
    B21: dict
    # node -> (local row skeleton, local col skeleton) of an interpolatory
    # factorization: U[tau][row skeleton] = I and V[tau][col skeleton] = I
    local_skeletons: dict = field(default_factory=dict, repr=False)

    @property
    def shape(self):
        return (self.tree.n, self.tree.n)

    def rank_of(self, node):
        return self.U[node].shape[1]

    def storage_count(self):
        """Total number of stored matrix entries."""
        blocks = [*self.D.values(), *self.U.values(), *self.V.values(),
                  *self.B12.values(), *self.B21.values()]
        return sum(b.size for b in blocks)


def _telescope(tree, x, up, couple, down, diag):
    """y = diag x + down (couple (up* x)) in one traversal of the tree, for x
    of shape (N,) or (N, m); y has x's shape and each node costs one product.

    Upward, a node maps its rows of x (leaf) or its children's stacked values
    through up[tau].T.  couple(tau, z, k1, out) writes the children's incoming
    values from their stacked outgoing values z (the first k1 rows are the
    left child's); at the root it acts on level 1.  Downward, each node adds
    down[tau] @ (its incoming values), and leaves add diag[tau] @ x[rows].
    One contiguous array holds each level's values, children in adjacent rows.
    """
    x = np.asarray(x, float)
    if x.ndim not in (1, 2) or x.shape[0] != tree.n:
        raise ValueError(f"expected shape ({tree.n},) or ({tree.n}, m), got {x.shape}")
    if tree.levels == 0:
        return diag[1] @ x

    offsets, outgoing = {}, {}
    for level in range(tree.levels, 0, -1):
        nodes = tree.nodes_at_level(level)
        off, below = [0, *accumulate(up[t].shape[1] for t in nodes)], offsets.get(level + 1)
        offsets[level], outgoing[level] = off, np.empty((off[-1], *x.shape[1:]))
        for i, tau in enumerate(nodes):
            src = (x[slice(*tree.ranges[tau])] if level == tree.levels
                   else outgoing[level + 1][below[2 * i] : below[2 * i + 2]])
            np.matmul(up[tau].T, src, out=outgoing[level][off[i] : off[i + 1]])

    incoming = np.empty_like(outgoing[1])
    couple(1, outgoing[1], offsets[1][1], incoming)
    for level in range(1, tree.levels):
        off, below = offsets[level], offsets[level + 1]
        z, out = outgoing[level + 1], np.empty_like(outgoing[level + 1])
        for i, tau in enumerate(tree.nodes_at_level(level)):
            a, mid, b = below[2 * i : 2 * i + 3]
            couple(tau, z[a:b], mid - a, out[a:b])
            out[a:b] += down[tau] @ incoming[off[i] : off[i + 1]]
        incoming = out

    y = np.empty(x.shape)
    off = offsets[tree.levels]
    for i, tau in enumerate(tree.leaves):
        rows = slice(*tree.ranges[tau])
        np.matmul(down[tau], incoming[off[i] : off[i + 1]], out=y[rows])
        y[rows] += diag[tau] @ x[rows]
    return y


def hbs_matvec(A: HbsMatrix, q):
    """u = A @ q for q of shape (N,) or (N, m), O(sum n_tau k_tau) per column."""

    def couple(tau, z, k1, out):
        np.matmul(A.B12[tau], z[k1:], out=out[:k1])
        np.matmul(A.B21[tau], z[:k1], out=out[k1:])

    return _telescope(A.tree, q, A.V, couple, A.U, A.D)


def hbs_transpose(A: HbsMatrix) -> HbsMatrix:
    """A.T in HBS form: new dicts over A's own arrays.  U and V swap roles,
    D and the swapped B blocks become transposed views; no block is copied."""
    return HbsMatrix(
        tree=A.tree, U=dict(A.V), V=dict(A.U),
        D={tau: D.T for tau, D in A.D.items()},
        B12={tau: B.T for tau, B in A.B21.items()},
        B21={tau: B.T for tau, B in A.B12.items()},
        local_skeletons={tau: (c, r) for tau, (r, c) in A.local_skeletons.items()},
    )


def _extended_basis(A: HbsMatrix, node, which):
    """Map a node's outgoing (U) or incoming (V) rank space to its indices."""
    basis = A.U if which == "U" else A.V
    if A.tree.is_leaf(node):
        return basis[node]
    left = _extended_basis(A, 2 * node, which)
    right = _extended_basis(A, 2 * node + 1, which)
    big = np.zeros((left.shape[0] + right.shape[0], left.shape[1] + right.shape[1]))
    big[: left.shape[0], : left.shape[1]] = left
    big[left.shape[0] :, left.shape[1] :] = right
    return big @ basis[node]


def _expand_node(A: HbsMatrix, node):
    if A.tree.is_leaf(node):
        return A.D[node]
    s1, s2 = 2 * node, 2 * node + 1
    A11 = _expand_node(A, s1)
    A22 = _expand_node(A, s2)
    U1 = _extended_basis(A, s1, "U")
    U2 = _extended_basis(A, s2, "U")
    V1 = _extended_basis(A, s1, "V")
    V2 = _extended_basis(A, s2, "V")
    n1 = A11.shape[0]
    out = np.empty((n1 + A22.shape[0], n1 + A22.shape[0]))
    out[:n1, :n1] = A11
    out[n1:, n1:] = A22
    out[:n1, n1:] = U1 @ A.B12[node] @ V2.T
    out[n1:, :n1] = U2 @ A.B21[node] @ V1.T
    return out


def expand_dense(A: HbsMatrix):
    """Exact dense matrix represented by the factors (oracle-scale only)."""
    if A.tree.n > EXPAND_DENSE_GUARD:
        raise ValueError(
            f"expand_dense is an oracle for N <= {EXPAND_DENSE_GUARD}, got N = {A.tree.n}"
        )
    if A.tree.levels == 0:
        return A.D[1].copy()
    return _expand_node(A, 1)


def validate(A: HbsMatrix):
    """Dimensional and structural audit; returns a list of violation strings."""
    tree = A.tree
    issues = []

    def check(cond, msg):
        if not cond:
            issues.append(msg)

    if tree.levels == 0:
        n = tree.n
        check(1 in A.D and A.D[1].shape == (n, n), f"node 1: expected dense D of shape ({n}, {n})")
        check(not A.U and not A.V and not A.B12, "depth-0 tree must carry only D[1]")
        if 1 in A.D:
            check(np.all(np.isfinite(A.D[1])), "node 1: non-finite entries in D")
        return issues

    for tau in tree.leaves:
        n = tree.size_of(tau)
        for name, store in (("D", A.D), ("U", A.U), ("V", A.V)):
            check(tau in store, f"leaf {tau}: missing {name}")
        if tau in A.D:
            check(A.D[tau].shape == (n, n), f"leaf {tau}: D shape {A.D[tau].shape}, expected ({n}, {n})")
        if tau in A.U and tau in A.V:
            check(A.U[tau].shape[0] == n, f"leaf {tau}: U has {A.U[tau].shape[0]} rows, expected {n}")
            check(A.V[tau].shape[0] == n, f"leaf {tau}: V has {A.V[tau].shape[0]} rows, expected {n}")
            check(A.U[tau].shape[1] == A.V[tau].shape[1],
                  f"leaf {tau}: U rank {A.U[tau].shape[1]} != V rank {A.V[tau].shape[1]}")

    for level in range(tree.levels - 1, -1, -1):
        for tau in tree.nodes_at_level(level):
            s1, s2 = 2 * tau, 2 * tau + 1
            if s1 not in A.U or s2 not in A.U:
                continue
            k1, k2 = A.U[s1].shape[1], A.U[s2].shape[1]
            check(tau in A.B12 and tau in A.B21, f"parent {tau}: missing B blocks")
            if tau in A.B12:
                check(A.B12[tau].shape == (k1, k2),
                      f"parent {tau}: B12 shape {A.B12[tau].shape}, expected ({k1}, {k2})")
            if tau in A.B21:
                check(A.B21[tau].shape == (k2, k1),
                      f"parent {tau}: B21 shape {A.B21[tau].shape}, expected ({k2}, {k1})")
            if tau == 1:
                check(1 not in A.U and 1 not in A.V, "root must not carry U/V")
            else:
                check(tau in A.U and tau in A.V, f"parent {tau}: missing U/V")
                if tau in A.U:
                    check(A.U[tau].shape[0] == k1 + k2,
                          f"parent {tau}: U has {A.U[tau].shape[0]} rows, expected {k1 + k2}")
                if tau in A.V:
                    check(A.V[tau].shape[0] == k1 + k2,
                          f"parent {tau}: V has {A.V[tau].shape[0]} rows, expected {k1 + k2}")
                if tau in A.U and tau in A.V:
                    check(A.U[tau].shape[1] == A.V[tau].shape[1],
                          f"parent {tau}: U rank {A.U[tau].shape[1]} != V rank {A.V[tau].shape[1]}")

    for name, store in (("D", A.D), ("U", A.U), ("V", A.V), ("B12", A.B12), ("B21", A.B21)):
        for tau, block in store.items():
            if not np.all(np.isfinite(block)):
                issues.append(f"node {tau}: non-finite entries in {name}")

    for tau, (rloc, cloc) in A.local_skeletons.items():
        if tau in A.U and len(rloc) == A.U[tau].shape[1]:
            if not np.array_equal(A.U[tau][rloc], np.eye(len(rloc))):
                issues.append(f"node {tau}: U skeleton rows are not the identity")
        if tau in A.V and len(cloc) == A.V[tau].shape[1]:
            if not np.array_equal(A.V[tau][cloc], np.eye(len(cloc))):
                issues.append(f"node {tau}: V skeleton rows are not the identity")
    return issues
