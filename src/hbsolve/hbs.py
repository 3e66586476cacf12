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
    D: dict = field(default_factory=dict)    # leaf -> (n, n); all of it at node 1 if levels == 0
    U: dict = field(default_factory=dict)    # non-root node -> basis (empty if levels == 0)
    V: dict = field(default_factory=dict)
    B12: dict = field(default_factory=dict)  # parent -> A~(left child, right child)
    B21: dict = field(default_factory=dict)
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


def block_layout(levels, tau, inverse=False, n=0, k=0, k1=0, k2=0):
    """Node tau's blocks in HBS1 record order, as ((name, (rows, cols)), ...),
    in a depth-`levels` HBS matrix or, if `inverse`, its factored inverse.

    The shapes hold for n the node's size at a leaf and its children's
    stacked ranks k1 + k2 at a parent, and k its rank.
    """
    if inverse:
        if tau == 1:
            return (("G", (n, n)),)
        return (("E", (n, k)), ("F", (n, k)), ("G", (n, n)), ("Dhat", (k, k)))
    if levels == 0:
        return (("D", (n, n)),)
    if tau == 1:
        return (("B12", (k1, k2)), ("B21", (k2, k1)))
    if tau >> levels:  # a leaf
        return (("D", (n, n)), ("U", (n, k)), ("V", (n, k)))
    return (("U", (n, k)), ("V", (n, k)), ("B12", (k1, k2)), ("B21", (k2, k1)))


def block_errors(tree, stores, inverse=False):
    """Missing, extra and misshapen blocks in `stores` ({name: {node:
    block}}) of an HBS matrix or, if `inverse`, its factored inverse, against
    block_layout.  A node's rank is its U's column count (matrix) or its
    Dhat's order (inverse).  Nodes are checked fine to coarse, so a block
    that misstates its node's rank is reported before the parent's blocks
    that the wrong rank then misfits."""
    axis = 0 if inverse else 1
    rank = {tau: b.shape[axis] for tau, b in stores.get("Dhat" if inverse else "U", {}).items()}
    levels, errors, found = tree.levels, [], 0
    for tau in range(tree.node_count, 0, -1):
        if tau >> levels:  # a leaf
            start, stop = tree.ranges[tau]
            n, k1, k2 = stop - start, 0, 0
        else:
            k1, k2 = rank.get(2 * tau, 0), rank.get(2 * tau + 1, 0)
            n = k1 + k2
        for name, shape in block_layout(levels, tau, inverse, n, rank.get(tau, 0), k1, k2):
            block = stores[name].get(tau)
            if block is None:
                errors.append(f"node {tau}: missing {name}")
                continue
            found += 1
            if block.shape != shape:
                errors.append(f"node {tau}: {name} shape {block.shape}, expected {shape}")
    if sum(map(len, stores.values())) > found:  # a block that no node's layout names
        errors += [f"node {tau}: unexpected {name}" for name, store in stores.items()
                   for tau in store if tau not in range(1, tree.node_count + 1)
                   or name not in dict(block_layout(levels, tau, inverse))]
    return errors


def validate(A: HbsMatrix):
    """Dimensional and structural audit; returns a list of violation strings:
    block_errors, non-finite entries, and skeleton rows of U or V that are
    not the identity."""
    stores = {"D": A.D, "U": A.U, "V": A.V, "B12": A.B12, "B21": A.B21}
    issues = block_errors(A.tree, stores)
    for name, store in stores.items():
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
