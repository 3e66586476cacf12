"""Binary container for HBS matrices and their factored inverses.

Layout: a 16-byte header (magic "HBS1", u32 N, u32 levels, u32
target_leaf, all little-endian), then one record per tree node in node
number order.  A record is (u32 node_id, u32 role, u32 block_count)
followed by the blocks, each as (u32 rows, u32 cols, row-major float64
data).  The role numbers the node's place; its blocks are hbs.block_layout
in that order:

    0  dense matrix at a depth-0 root         [D]
    1  leaf of an HBS matrix                  [D, U, V]
    2  non-root parent of an HBS matrix       [U, V, B12, B21]
    3  root of an HBS matrix                  [B12, B21]
    9  non-root node of a factored inverse    [E, F, G, Dhat]
    10 root of a factored inverse             [G]

Round trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
from collections import defaultdict

import numpy as np

from .hbs import HbsMatrix, block_errors, block_layout, validate
from .inversion import HbsInverse
from .tree import tree_with_levels

HBS_MAGIC = b"HBS1"
_HEADER, _RECORD, _SHAPE = struct.Struct("<4sIII"), struct.Struct("<III"), struct.Struct("<II")


def _role(levels, tau, inverse):
    """Role of node tau's record in a file over a depth-`levels` tree."""
    if inverse:
        return 10 if tau == 1 else 9
    if levels == 0:
        return 0
    return 3 if tau == 1 else 1 if tau >= 1 << levels else 2


def _save(path, obj, inverse, target_leaf):
    tree = obj.tree
    with open(path, "wb") as f:
        f.write(_HEADER.pack(HBS_MAGIC, tree.n, tree.levels, target_leaf))
        for tau in range(1, tree.node_count + 1):
            blocks = block_layout(tree.levels, tau, inverse)
            f.write(_RECORD.pack(tau, _role(tree.levels, tau, inverse), len(blocks)))
            for name, _ in blocks:
                b = np.ascontiguousarray(getattr(obj, name)[tau], dtype=np.float64)
                f.write(_SHAPE.pack(*b.shape))
                f.write(b.tobytes())


def save_hbs(path, A: HbsMatrix, target_leaf=0):
    _save(path, A, False, target_leaf)


def save_inverse(path, inv: HbsInverse, target_leaf=0):
    _save(path, inv, True, target_leaf)


class _Reader:
    """HBS1 reader over the whole file, read at once into one float64
    buffer whose views are the blocks (numpy gives so large a buffer huge
    pages, so few page faults); a read past the end of the file raises,
    naming what was being read and its byte offset."""

    def __init__(self, f):
        size = os.fstat(f.fileno()).st_size
        self.pool = np.empty(-(-size // 8))
        self.raw = self.pool.view(np.uint8)
        self.size = f.readinto(self.raw[:size])
        self.at, self.role_names = 0, {}

    def skip(self, nbytes, what, tau=0):
        """Claim the next nbytes, raising if the file ends first."""
        left = self.size - self.at
        if nbytes > left:
            of_node = f" of node {tau}" if tau else ""
            raise ValueError(f"truncated HBS1 file: {what}{of_node} at byte "
                             f"{self.at} needs {nbytes} bytes, {left} left")
        self.at += nbytes

    def take(self, fields, what, tau=0):
        """Unpack the struct `fields` from the next fields.size bytes."""
        at = self.at
        self.skip(fields.size, what, tau)
        return fields.unpack_from(self.raw, at)

    def record(self, tau, levels, kinds):
        """Kind (True for an inverse) and named blocks of node tau's record
        in a depth-`levels` file; its role must be that of one of `kinds`."""
        at = self.at
        node, role, count = self.take(_RECORD, "record", tau)
        if node != tau:
            raise ValueError(f"record at byte {at} is for node {node}, expected "
                             f"node {tau}: records must follow node order")
        for inverse in kinds:
            if role == _role(levels, tau, inverse):
                break
        else:
            expected = (str(_role(levels, tau, inverse)) for inverse in kinds)
            raise ValueError(f"unexpected role {role} at node {tau} (byte {at}), "
                             f"expected {' or '.join(expected)}")
        names = self.role_names.get(role)
        if names is None:  # a role fixes the node's place, so its block names
            names = self.role_names[role] = [name for name, _ in block_layout(levels, tau, inverse)]
        if count != len(names):
            raise ValueError(f"node {tau} (byte {at}): role {role} has "
                             f"{len(names)} blocks, the record says {count}")
        blocks = {}
        for name in names:
            rows, cols = self.take(_SHAPE, name, tau)
            at = self.at
            self.skip(8 * rows * cols, name, tau)
            if at % 8:  # every other record is off the 8-byte grid: move over `cols`
                self.raw[at - 4:self.at - 4] = self.raw[at:self.at]
                at -= 4
            blocks[name] = self.pool[at // 8:at // 8 + rows * cols].reshape(rows, cols)
        return inverse, blocks

    def end(self):
        if self.at != self.size:
            raise ValueError(f"{self.size - self.at} trailing bytes after the "
                             f"last record, at byte {self.at}")


def load(path):
    """Load either an HbsMatrix or an HbsInverse, as the root's role dictates.

    Any malformed file raises ValueError: a short read (naming the node and
    byte offset), trailing bytes, records out of node order, a role or
    block count that does not fit the node's place in the tree, or block
    shapes that do not fit the tree's sizes and the neighbouring ranks.
    These checks cost O(#records); a loaded HbsMatrix also passes
    `validate`, which scans every entry.  An HbsInverse's entries are not
    scanned here: `apply_inverse` raises on a non-finite result.
    """
    with open(path, "rb") as f:
        r = _Reader(f)
        magic, n, levels, _ = r.take(_HEADER, "header")
        if magic != HBS_MAGIC:
            raise ValueError(f"not an HBS1 file: bad magic {magic!r}")
        if n >> levels == 0:
            raise ValueError(f"header: N = {n} cannot fill the 2^{levels} leaves "
                             f"of a depth-{levels} tree")
        kinds, stores = (False, True), defaultdict(dict)
        for tau in range(1, 2 << levels):
            inverse, blocks = r.record(tau, levels, kinds)
            kinds = (inverse,)
            for name, block in blocks.items():
                stores[name][tau] = block
        r.end()
    # the file held a record per node, so the tree is no larger than the file
    tree = tree_with_levels(n, levels)
    out = (HbsInverse if inverse else HbsMatrix)(tree, **stores)
    errors = block_errors(tree, stores, inverse=True) if inverse else validate(out)
    if errors:
        raise ValueError(f"inconsistent HBS1 file: {'; '.join(errors[:3])}")
    return out
