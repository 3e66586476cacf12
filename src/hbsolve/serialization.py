"""Binary container for HBS matrices and their factored inverses.

Layout: a 16-byte header (magic "HBS1", u32 N, u32 levels, u32
target_leaf, all little-endian), then one record per tree node in node
number order.  A record is (u32 node_id, u32 role, u32 block_count)
followed by the blocks, each as (u32 rows, u32 cols, row-major float64
data).  Roles identify the block inventory:

    0  dense matrix at a depth-0 root         [D]
    1  leaf of an HBS matrix                  [D, U, V]
    2  non-root parent of an HBS matrix       [U, V, B12, B21]
    3  root of an HBS matrix                  [B12, B21]
    9  non-root node of a factored inverse    [E, F, G, Dhat]
    10 root of a factored inverse             [G]

Round trips are bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .hbs import HbsMatrix
from .inversion import HbsInverse
from .tree import tree_with_levels

HBS_MAGIC = b"HBS1"


def _write_record(f, node, role, blocks):
    f.write(struct.pack("<III", node, role, len(blocks)))
    for b in blocks:
        b = np.ascontiguousarray(b, dtype=np.float64)
        f.write(struct.pack("<II", b.shape[0], b.shape[1]))
        f.write(b.tobytes())


def _read_record(f):
    node, role, nblocks = struct.unpack("<III", f.read(12))
    blocks = []
    for _ in range(nblocks):
        rows, cols = struct.unpack("<II", f.read(8))
        data = np.frombuffer(f.read(rows * cols * 8), dtype=np.float64)
        blocks.append(data.reshape(rows, cols).copy())
    return node, role, blocks


def save_hbs(path, A: HbsMatrix, target_leaf=0):
    tree = A.tree
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIII", HBS_MAGIC, tree.n, tree.levels, target_leaf))
        if tree.levels == 0:
            _write_record(f, 1, 0, [A.D[1]])
            return
        _write_record(f, 1, 3, [A.B12[1], A.B21[1]])
        for tau in range(2, tree.node_count + 1):
            if tree.is_leaf(tau):
                _write_record(f, tau, 1, [A.D[tau], A.U[tau], A.V[tau]])
            else:
                _write_record(f, tau, 2, [A.U[tau], A.V[tau], A.B12[tau], A.B21[tau]])


def save_inverse(path, inv: HbsInverse, target_leaf=0):
    tree = inv.tree
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIII", HBS_MAGIC, tree.n, tree.levels, target_leaf))
        _write_record(f, 1, 10, [inv.G[1]])
        for tau in range(2, tree.node_count + 1):
            _write_record(f, tau, 9, [inv.E[tau], inv.F[tau], inv.G[tau], inv.Dhat[tau]])


def load(path):
    """Load either an HbsMatrix or an HbsInverse, as the roles dictate."""
    with open(path, "rb") as f:
        magic, n, levels, _ = struct.unpack("<4sIII", f.read(16))
        if magic != HBS_MAGIC:
            raise ValueError(f"not an HBS1 file: bad magic {magic!r}")
        tree = tree_with_levels(n, levels)
        node, role, blocks = _read_record(f)
        if node != 1:
            raise ValueError(f"first record must be node 1, got {node}")
        if role == 0:
            return HbsMatrix(tree=tree, D={1: blocks[0]}, U={}, V={}, B12={}, B21={})
        if role in (3, 2, 1):
            A = HbsMatrix(tree=tree, D={}, U={}, V={},
                          B12={1: blocks[0]}, B21={1: blocks[1]})
            for _ in range(2, tree.node_count + 1):
                tau, role, blocks = _read_record(f)
                if role == 1:
                    A.D[tau], A.U[tau], A.V[tau] = blocks
                elif role == 2:
                    A.U[tau], A.V[tau], A.B12[tau], A.B21[tau] = blocks
                else:
                    raise ValueError(f"unexpected role {role} at node {tau}")
            return A
        if role == 10:
            inv = HbsInverse(tree=tree, E={}, F={}, G={1: blocks[0]}, Dhat={})
            for _ in range(2, tree.node_count + 1):
                tau, role, blocks = _read_record(f)
                if role != 9:
                    raise ValueError(f"unexpected role {role} at node {tau}")
                inv.E[tau], inv.F[tau], inv.G[tau], inv.Dhat[tau] = blocks
            return inv
        raise ValueError(f"unknown role {role} at node 1")
