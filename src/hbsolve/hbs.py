"""Hierarchically block-separable (HBS) matrix container and core ops.

An HBS matrix over an IndexTree stores, per the telescoping factorization:

  - leaf tau:        D[tau] (n x n), U[tau] (n x k), V[tau] (n x k)
  - non-root parent: U[tau], V[tau] of shape (k_left + k_right) x k
  - every parent:    sibling interaction blocks B12[tau], B21[tau]
                     coupling the children's outgoing/incoming spaces

The root holds only its B pair; a depth-0 root is a leaf and holds only
D[1], the whole matrix.  Per-node ranks may differ, but each node's row
and column rank agree (U and V have the same column count), which the
recursive inversion relies on.

The tree and the per-node ranks fix every block's name and shape, for a
matrix and for its factored inverse alike (block_layout).  Blocks live in
stacks allocated from that table: all of a level's blocks of one name and
shape are one (count, rows, cols) array, and `A.U[tau]` and the like are
read-only mappings from a node to a view of its slot (allocate_stacks,
Blocks).  One traversal of the stacks, level by level, serves the matvec
and the factored inverse's apply (_telescope).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property

import numpy as np

from .tree import IndexTree

EXPAND_DENSE_GUARD = 5000


def as_real(x, what):
    """x as a float64 array.  A complex x raises ValueError naming its dtype,
    where a float conversion would keep only the real part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"{what} has complex dtype {x.dtype}; only real input is supported")
    return x.astype(float, copy=False)


class Blocks(Mapping):
    """Read-only node -> block mapping over views of stack slots.

    A block edited in place (`blocks[tau] += x`, `blocks[tau][i, j] = v`)
    writes through to its stack.  Rebinding or deleting an entry raises
    TypeError: build a new object from dicts instead."""

    def __init__(self, views):
        self._views = views

    def __getitem__(self, tau):
        return self._views[tau]

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)

    def __setitem__(self, tau, block):
        # `blocks[tau] += x` edits the view, then stores that same view back
        if tau not in self._views or block is not self._views[tau]:
            raise TypeError(f"cannot rebind the block of node {tau}: blocks are views "
                            "of their stacks; build a new object from dicts instead")

    def __delitem__(self, tau):
        raise TypeError(f"cannot delete the block of node {tau}: blocks are views of their stacks")

    def __repr__(self):
        return f"Blocks(nodes={sorted(self._views)})"


def block_layout(tree, ranks, tau, inverse):
    """Node tau's blocks as ((name, (rows, cols)), ...) in an HBS matrix over
    `tree` or, if `inverse`, its factored inverse, for the per-node ranks
    `ranks` ({node: k}; a missing rank reads 0).  A matrix's leaf holds D,
    a non-root node U and V, a parent B12 and B21; an inverse's non-root
    node holds E, F, G and Dhat, its root G.  With n the node's size at a
    leaf and its children's stacked ranks k1 + k2 at a parent, and k its
    rank: D and G are n x n, U, V, E and F n x k, Dhat k x k, B12 k1 x k2
    and B21 k2 x k1.  This table is the one source of every block's name
    and shape; its order of names fixes the order of a level's stacks
    (allocate_stacks, and so an HBS2 file's)."""
    leaf = tau >> tree.levels
    if leaf:
        start, stop = tree.ranges[tau]
        n = stop - start
    else:
        k1, k2 = ranks.get(2 * tau, 0), ranks.get(2 * tau + 1, 0)
        n = k1 + k2
    k = ranks.get(tau, 0)
    if inverse:
        return (("G", (n, n)),) if tau == 1 else (("E", (n, k)), ("F", (n, k)), ("G", (n, n)),
                                                  ("Dhat", (k, k)))
    if leaf:
        return (("D", (n, n)), ("U", (n, k)), ("V", (n, k))) if tau > 1 else (("D", (n, n)),)
    pair = (("B12", (k1, k2)), ("B21", (k2, k1)))
    return (("U", (n, k)), ("V", (n, k))) + pair if tau > 1 else pair


def block_ranks(tree, shapes):
    """The per-node ranks (U's column counts) of an HBS matrix over `tree`
    whose blocks have the given shapes ({name: {node: (rows, cols)}}).

    Raises ValueError naming up to three of the missing, extra and misshapen
    blocks against block_layout for those ranks.  Nodes are checked fine to
    coarse, so a block that misstates its node's rank is reported before the
    parent's blocks that the wrong rank then misfits."""
    ranks = {tau: s[1] for tau, s in shapes.get("U", {}).items()}
    errors, found = [], 0
    for tau in range(tree.node_count, 0, -1):
        for name, shape in block_layout(tree, ranks, tau, False):
            got = shapes.get(name, {}).get(tau)
            if got is None:
                errors.append(f"node {tau}: missing {name}")
                continue
            found += 1
            if tuple(got) != shape:
                errors.append(f"node {tau}: {name} shape {tuple(got)}, expected {shape}")
    if sum(map(len, shapes.values())) > found:  # a block that no node's layout names
        errors += [f"node {tau}: unexpected {name}" for name, of in shapes.items()
                   for tau in of if tau not in range(1, tree.node_count + 1)
                   or name not in dict(block_layout(tree, ranks, tau, False))]
    if errors:
        raise ValueError(f"malformed HBS matrix: {'; '.join(errors[:3])}")
    return ranks


def allocate_stacks(tree, ranks, inverse, levels):
    """Empty stacks for the blocks at the given tree levels of an HBS matrix
    over `tree` or, if `inverse`, its factored inverse, shaped by
    block_layout for the per-node ranks `ranks`.

    Returns {name: {level: [(nodes, stack), ...]}}, each stack one
    (len(nodes), rows, cols) array, all of them views of one buffer (which
    numpy backs with huge pages when it is large, so filling it faults few
    pages).  The buffer holds the levels in the order given, each level's
    names in block_layout order, and each name's stacks in turn.  A level's
    nodes are sorted by their blocks' shapes, in block_layout order, then by
    number; every stack lists its nodes in that order, and a name's stacks
    follow the order of their first nodes.  So the stacks of a
    name whose shape is fixed by a prefix of that key (a leaf's D and an
    inverse's G, by the node's size) each cover a run of consecutive stacks
    of the finer names (its U and V, or E and F, by size and rank).
    """
    buckets = {}  # (name, level, shape) -> nodes, in the order of the first ones
    for level in levels:
        groups = {}  # a layout -> its nodes, by number
        for tau in tree.nodes_at_level(level):
            layout = block_layout(tree, ranks, tau, inverse)
            nodes = groups.get(layout)
            if nodes is None:
                groups[layout] = [tau]
            else:
                nodes.append(tau)
        layouts = sorted(groups)
        for i, (name, _) in enumerate(layouts[0]):
            for layout in layouts:
                nodes = buckets.get((name, level, layout[i][1]))
                if nodes is None:
                    buckets[name, level, layout[i][1]] = groups[layout][:]
                else:
                    nodes += groups[layout]
    stacks = {}
    sizes = [len(nodes) * math.prod(shape) for (*_, shape), nodes in buckets.items()]
    pool, at = np.empty(sum(sizes)), 0
    for ((name, level, shape), nodes), size in zip(buckets.items(), sizes):
        stacks.setdefault(name, {}).setdefault(level, []).append(
            (nodes, pool[at:at + size].reshape(len(nodes), *shape)))
        at += size
    return stacks


def block_views(stacks):
    """{name: {node: view of its slot}} over stacks from allocate_stacks."""
    return {name: {tau: block for buckets in levels.values() for nodes, S in buckets
                   for tau, block in zip(nodes, S)}
            for name, levels in stacks.items()}


def stack_blocks(tree, blocks):
    """Stacks holding a copy of each block of an HBS matrix over `tree`,
    given as {name: {node: block}}; missing, extra and misshapen blocks
    raise ValueError (block_ranks)."""
    shapes = {name: {tau: np.shape(b) for tau, b in of.items()} for name, of in blocks.items()}
    ranks = block_ranks(tree, shapes)
    stacks = allocate_stacks(tree, ranks, False, range(tree.levels + 1))
    for name, views in block_views(stacks).items():
        for tau, slot in views.items():
            slot[...] = blocks[name][tau]
    return stacks


def transposed(levels):
    """One name's stacks with every block transposed, as views."""
    return {level: [(nodes, S.transpose(0, 2, 1)) for nodes, S in buckets]
            for level, buckets in levels.items()}


class StackedBlocks:
    """Blocks named NAMES, stored in stacks (allocate_stacks) and read
    through one Blocks mapping per name.  UP, DOWN and DIAG name the blocks
    that _telescope applies upward (transposed), downward and at the leaves."""

    NAMES = ()

    def __init__(self, tree: IndexTree, stacks):
        self.tree, self.stacks = tree, {name: stacks.get(name, {}) for name in self.NAMES}
        for name, views in block_views(self.stacks).items():
            setattr(self, name, Blocks(views))

    def storage_count(self):
        """Total number of stored matrix entries."""
        return sum(S.size for levels in self.stacks.values()
                   for buckets in levels.values() for _, S in buckets)

    def coupling(self, level, start, k1, k2):
        """The products that map the outgoing values of level + 1, in parent
        order (see _Route), to its incoming ones, as (gather, stacks,
        scatter): `gather` indexes those values so that each stack reads a
        contiguous run (_products), and `scatter` indexes the products into
        parent order; a None index leaves its values as they are.  start, k1
        and k2 run over level's nodes by number: where a node's children's
        values start in parent order, and their ranks."""
        raise NotImplementedError

    @cached_property
    def _route(self):
        return _Route(self)


class HbsMatrix(StackedBlocks):
    """An HBS matrix; D, U, V, B12 and B21 are Blocks mappings.  Built from
    dicts {node: block}, each block is copied into its stack, and blocks
    that do not fit block_layout raise ValueError; `stacks`, from
    allocate_stacks, is used as it is instead."""

    NAMES = ("D", "U", "V", "B12", "B21")
    UP, DOWN, DIAG = "V", "U", "D"

    def __init__(self, tree, D=None, U=None, V=None, B12=None, B21=None,
                 local_skeletons=None, *, stacks=None):
        if stacks is None:
            stacks = stack_blocks(tree, dict(zip(self.NAMES, (D or {}, U or {}, V or {},
                                                              B12 or {}, B21 or {}))))
        super().__init__(tree, stacks)
        # node -> (local row skeleton, local col skeleton) of an interpolatory
        # factorization: U[tau][row skeleton] = I and V[tau][col skeleton] = I
        self.local_skeletons = {} if local_skeletons is None else local_skeletons

    @property
    def shape(self):
        return (self.tree.n, self.tree.n)

    def rank_of(self, node):
        return self.U[node].shape[1]

    def coupling(self, level, start, k1, k2):
        """B12 maps a parent's right child's values into its left child's,
        B21 the reverse.  One gather lines up the sources of B12's stacks,
        then B21's, and one scatter puts the results into parent order."""
        stacks, sources, targets = [], [], []
        for name in ("B12", "B21"):
            buckets = self.stacks[name][level]
            i = np.concatenate([nodes for nodes, _ in buckets]) - (1 << level)
            left, right = (start[i], k1[i]), (start[i] + k1[i], k2[i])  # first row, count
            into, source = (left, right) if name == "B12" else (right, left)
            stacks += [S for _, S in buckets]
            sources.append(_ranges(*source))
            targets.append(_ranges(*into))
        return np.concatenate(sources), stacks, _inverse_permutation(np.concatenate(targets))


def _ranges(starts, lengths):
    """The ranges [start, start + length), concatenated, in one pass."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if ends.size else 0)


def _inverse_permutation(p):
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size)
    return inv


class _Route:
    """Every gather of one traversal of an object's blocks, and its stacks.

    Level l's values, outgoing and incoming, hold each node's rows in the
    order of the DOWN stacks at level l (bucket order).  `leaf_rows` lists
    the leaves' indices in bucket order, which the leaves' UP and DIAG
    stacks share (allocate_stacks).  `children[l]` gathers, for level l's
    nodes in bucket order, each one's children's values at level l + 1,
    left then right (parent order); `parents[l]` takes parent order back to
    bucket order; `coupling[l]` is obj.coupling's.  `up[l]` (transposed),
    `down[l]` and `diag` hold only stacks.  Every index is built with a few
    vectorized calls per level.
    """

    def __init__(self, obj: StackedBlocks):
        tree, levels = obj.tree, obj.tree.levels
        order, rank = [np.ones(1, np.intp)], [None]
        for level in range(1, levels + 1):
            buckets = obj.stacks[obj.DOWN].get(level, [])
            order.append(np.array([tau for nodes, _ in buckets for tau in nodes], np.intp))
            rank.append(np.repeat(np.array([S.shape[2] for _, S in buckets], np.intp),
                                  [len(nodes) for nodes, _ in buckets]))
        bounds = np.array([tree.ranges[tau] for tau in order[levels].tolist()]).reshape(-1, 2)
        self.leaf_rows = _ranges(bounds[:, 0], bounds[:, 1] - bounds[:, 0])

        def stacks(name, level):
            return [S for _, S in obj.stacks[name].get(level, [])]

        self.up = [[S.transpose(0, 2, 1) for S in stacks(obj.UP, level)]
                   for level in range(levels + 1)]
        self.down = [stacks(obj.DOWN, level) for level in range(levels + 1)]
        self.diag = stacks(obj.DIAG, levels)
        self.children, self.parents, self.coupling = [], [], []
        for level in range(levels):
            first = 1 << level  # level's first node
            at = np.empty(2 * first, np.intp)  # a child's place in bucket order
            at[order[level + 1] - 2 * first] = np.arange(2 * first)
            kids = at[2 * order[level][:, None] + (0, 1) - 2 * first]  # (nodes, 2)
            k = rank[level + 1][kids]
            rows = _ranges((np.cumsum(rank[level + 1]) - rank[level + 1])[kids].ravel(), k.ravel())
            self.children.append(rows)
            self.parents.append(_inverse_permutation(rows))
            # by node number: where its children's values start in parent order, their ranks
            by_node = np.empty(first, np.intp)
            by_node[order[level] - first] = np.arange(first)
            starts, k = (np.cumsum(k.sum(1)) - k.sum(1))[by_node], k[by_node]
            self.coupling.append(obj.coupling(level, starts, k[:, 0], k[:, 1]))


def _products(stacks, v, into=None):
    """Products of each stack (c, r, s) with the next c s rows of v, an
    (rows, m) array, read as c blocks of s rows.  Returns the c r rows of
    every stack's result, stacked in stack order; given `into`, adds them to
    it instead, one stack's result at a time."""
    m = v.shape[1]
    out = np.empty((sum(S.shape[0] * S.shape[1] for S in stacks), m)) if into is None else into
    i = o = 0
    for S in stacks:
        c, r, s = S.shape
        src, dst = v[i:i + c * s].reshape(c, s, m), out[o:o + c * r].reshape(c, r, m)
        if into is None:
            np.matmul(S, src, out=dst)
        else:
            dst += S @ src
        i, o = i + c * s, o + c * r
    return out


def _telescope(obj: StackedBlocks, x):
    """y = diag x + down (coupling (up* x)) in one traversal of obj's stacks,
    for x of shape (N,) or (N, m); y has x's shape.

    x's leaf rows are gathered once, in bucket order (see _Route); the
    leaves' DIAG and UP stacks both read that block.  Upward, each level
    above maps its children's values, gathered into parent order, through
    its UP stacks.  Downward, each level's coupling and its DOWN stacks map
    into its children's incoming values in parent order, one gather puts
    them into the children's bucket order, and at the leaves the DOWN
    products are added to the DIAG ones and scattered back to index order.
    _Route holds every gather; each stack costs one np.matmul, whatever the
    number of its nodes.
    """
    n, levels = obj.tree.n, obj.tree.levels
    x = as_real(x, "the input")
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"expected shape ({n},) or ({n}, m), got {x.shape}")
    route = obj._route
    leaf = (x if x.ndim == 2 else x[:, None])[route.leaf_rows]
    y = _products(route.diag, leaf)
    z = _products(route.up[levels], leaf)
    leaf = None  # let it go before the upward pass
    below = [None] * levels  # each level's children's values, in parent order
    for level in range(levels - 1, -1, -1):
        below[level] = z[route.children[level]]
        if level:
            z = _products(route.up[level], below[level])
    incoming = None
    for level in range(levels):
        gather, stacks, scatter = route.coupling[level]
        t = _products(stacks, below[level] if gather is None else below[level][gather])
        below[level] = None
        if scatter is not None:
            t = t[scatter]
        if level:
            _products(route.down[level], incoming, into=t)
        incoming = t[route.parents[level]]
    if levels:
        _products(route.down[levels], incoming, into=y)
    incoming = None  # let it go before the result is allocated
    out = np.empty_like(y)
    out[route.leaf_rows] = y
    return out.reshape(x.shape)


def hbs_matvec(A: HbsMatrix, q):
    """u = A @ q for q of shape (N,) or (N, m), O(sum n_tau k_tau) per column."""
    return _telescope(A, q)


def hbs_transpose(A: HbsMatrix) -> HbsMatrix:
    """A.T in HBS form over A's own stacks: U and V swap roles, D and the
    swapped B blocks become transposed views; no block is copied."""
    s = A.stacks
    return HbsMatrix(
        A.tree, stacks={"D": transposed(s["D"]), "U": s["V"], "V": s["U"],
                        "B12": transposed(s["B21"]), "B21": transposed(s["B12"])},
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


def _expand_node(A: HbsMatrix, node, out):
    """Write node's diagonal block of the dense matrix into out."""
    if A.tree.is_leaf(node):
        out[...] = A.D[node]
        return
    s1, s2 = 2 * node, 2 * node + 1
    n1 = A.tree.size_of(s1)
    _expand_node(A, s1, out[:n1, :n1])
    _expand_node(A, s2, out[n1:, n1:])
    U1 = _extended_basis(A, s1, "U")
    U2 = _extended_basis(A, s2, "U")
    V1 = _extended_basis(A, s1, "V")
    V2 = _extended_basis(A, s2, "V")
    out[:n1, n1:] = U1 @ A.B12[node] @ V2.T
    out[n1:, :n1] = U2 @ A.B21[node] @ V1.T


def expand_dense(A: HbsMatrix):
    """Exact dense matrix represented by the factors (oracle-scale only)."""
    if A.tree.n > EXPAND_DENSE_GUARD:
        raise ValueError(
            f"expand_dense is an oracle for N <= {EXPAND_DENSE_GUARD}, got N = {A.tree.n}"
        )
    out = np.empty(A.shape)
    _expand_node(A, 1, out)
    return out


def nonfinite_blocks(obj: StackedBlocks):
    """One "node: non-finite entries in name" line per block holding a NaN
    or Inf, found with one scan per stack."""
    return [f"node {tau}: non-finite entries in {name}"
            for name, levels in obj.stacks.items() for buckets in levels.values()
            for nodes, S in buckets
            for tau, ok in zip(nodes, np.isfinite(S).all(axis=(1, 2))) if not ok]


def validate(A: HbsMatrix):
    """Audit of the entries; returns a list of violation strings: non-finite
    entries, and skeleton rows of U or V that are not the identity.  Block
    shapes need no audit: the constructors allow only block_layout's."""
    issues = nonfinite_blocks(A)
    for tau, (rloc, cloc) in A.local_skeletons.items():
        if tau in A.U and len(rloc) == A.U[tau].shape[1]:
            if not np.array_equal(A.U[tau][rloc], np.eye(len(rloc))):
                issues.append(f"node {tau}: U skeleton rows are not the identity")
        if tau in A.V and len(cloc) == A.V[tau].shape[1]:
            if not np.array_equal(A.V[tau][cloc], np.eye(len(cloc))):
                issues.append(f"node {tau}: V skeleton rows are not the identity")
    return issues
