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
    interpolatory: bool = False
    # node -> (local row skeleton, local col skeleton) when interpolatory:
    # U[tau][row skeleton] = I and V[tau][col skeleton] = I
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


def hbs_matvec(A: HbsMatrix, q):
    """u = A @ q through the telescoping factorization, O(sum n_tau k_tau)."""
    q = np.asarray(q, float)
    tree = A.tree
    if q.shape != (tree.n,):
        raise ValueError(f"expected vector of length {tree.n}, got shape {q.shape}")
    if tree.levels == 0:
        return A.D[1] @ q

    qhat = {}
    for tau in tree.leaves:
        qhat[tau] = A.V[tau].T @ q[tree.indices(tau)]
    for level in range(tree.levels - 1, 0, -1):
        for tau in tree.nodes_at_level(level):
            qhat[tau] = A.V[tau].T @ np.concatenate([qhat[2 * tau], qhat[2 * tau + 1]])

    # root: the children see each other only through the root's B pair
    uhat = {2: A.B12[1] @ qhat[3], 3: A.B21[1] @ qhat[2]}
    for level in range(1, tree.levels):
        for tau in tree.nodes_at_level(level):
            s1, s2 = 2 * tau, 2 * tau + 1
            local = A.U[tau] @ uhat[tau]
            k1 = qhat[s1].shape[0]
            uhat[s1] = A.B12[tau] @ qhat[s2] + local[:k1]
            uhat[s2] = A.B21[tau] @ qhat[s1] + local[k1:]

    u = np.empty(tree.n)
    for tau in tree.leaves:
        idx = tree.indices(tau)
        u[idx] = A.U[tau] @ uhat[tau] + A.D[tau] @ q[idx]
    return u


def hbs_transpose(A: HbsMatrix) -> HbsMatrix:
    """A.T in HBS form: U and V swap roles, B blocks swap and transpose."""
    return HbsMatrix(
        tree=A.tree,
        D={tau: D.T.copy() for tau, D in A.D.items()},
        U={tau: V.copy() for tau, V in A.V.items()},
        V={tau: U.copy() for tau, U in A.U.items()},
        B12={tau: B.T.copy() for tau, B in A.B21.items()},
        B21={tau: B.T.copy() for tau, B in A.B12.items()},
        interpolatory=A.interpolatory,
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

    if A.interpolatory:
        for tau, (rloc, cloc) in A.local_skeletons.items():
            if tau in A.U and len(rloc) == A.U[tau].shape[1]:
                if not np.array_equal(A.U[tau][rloc], np.eye(len(rloc))):
                    issues.append(f"node {tau}: U skeleton rows are not the identity")
            if tau in A.V and len(cloc) == A.V[tau].shape[1]:
                if not np.array_equal(A.V[tau][cloc], np.eye(len(cloc))):
                    issues.append(f"node {tau}: V skeleton rows are not the identity")
    return issues
