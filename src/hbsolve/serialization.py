"""Binary container for HBS matrices and their factored inverses: HBS2.

An HBS2 file is little-endian: a 16-byte header (magic "HBS2", u32 kind, 0 for
a matrix or 1 for an inverse, u32 N, u32 levels); the ranks of nodes 2 to
2^(levels+1) - 1 as one u32 array (a matrix's U column counts, its inverse's
Dhat orders); then every stack's float64 data in hbs.allocate_stacks order:
level 0 to levels, in a level the names in hbs.block_layout order, each name's
stacks in bucket order.  Before it allocates, `load` raises ValueError on a
file cut short (naming the part and byte offset) or too long, a bad magic
(HBS1 files are not read), an unknown kind, a depth that N cannot fill, or
ranks whose blocks do not fill the file; then on a NaN or Inf in a matrix,
naming the node.  An inverse is not scanned: `apply_inverse` raises on a
non-finite result.  A big-endian host is refused, not served by byte-swapping.
"""

from __future__ import annotations

import math
import os
import struct
import sys

import numpy as np

from .hbs import HbsMatrix, allocate_stacks, block_layout, nonfinite_blocks
from .inversion import HbsInverse
from .tree import tree_with_levels

HBS_MAGIC, _HEADER = b"HBS2", struct.Struct("<4sIII")


def _stacks(obj, inverse):
    """obj's stacks in file order, whose bytes are the file's: so the host must
    be little-endian."""
    if sys.byteorder != "little":
        raise ValueError(f"HBS2 files are little-endian: a {sys.byteorder}-endian host is refused")
    return [S for level in range(obj.tree.levels + 1)
            for name, _ in block_layout(obj.tree, {}, 1 << level, inverse)
            for _, S in obj.stacks[name].get(level, ())]


def _save(path, obj, inverse):
    tree, basis, stacks = obj.tree, obj.Dhat if inverse else obj.U, _stacks(obj, inverse)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(HBS_MAGIC, inverse, tree.n, tree.levels))
        f.write(np.array([basis[tau].shape[1] for tau in range(2, tree.node_count + 1)], "<u4"))
        for S in stacks:
            f.write(np.ascontiguousarray(S))  # copies only a transposed view's stack


def save_hbs(path, A: HbsMatrix):
    _save(path, A, False)


def save_inverse(path, inv: HbsInverse):
    _save(path, inv, True)


def _claim(size, at, nbytes, what):
    """The offset after `what`'s nbytes at byte `at`; raises if the file ends first."""
    if size - at < nbytes:
        raise ValueError(f"truncated HBS2 file: {what} at byte {at}: {nbytes} bytes "
                         f"expected, {max(size - at, 0)} left")
    return at + nbytes


def _read(f, a):
    """The contiguous array a, filled from f's next bytes, looping on short reads."""
    view, got = a.reshape(-1).view(np.uint8), 0
    while got < view.size:
        n = f.readinto(view[got:])
        if not n:
            raise ValueError("HBS2 file ended early: it changed while it was read")
        got += n
    return a


def load(path):
    """Load either an HbsMatrix or an HbsInverse, as the header's kind says;
    a malformed file raises ValueError (see the module docstring)."""
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        at = _claim(size, 0, _HEADER.size, "header")
        magic, kind, n, levels = _HEADER.unpack(_read(f, np.empty(_HEADER.size, np.uint8)))
        if magic != HBS_MAGIC:
            old = "; HBS1 files are no longer read" if magic == b"HBS1" else ""
            raise ValueError(f"not an HBS2 file: bad magic {magic!r}{old}")
        if kind > 1:
            raise ValueError(f"header: kind {kind}, expected 0 (matrix) or 1 (inverse)")
        if n >> levels == 0:
            raise ValueError(f"header: N = {n} cannot fill the leaves of a depth-{levels} tree")
        nodes = range(2, 2 << levels)
        at = _claim(size, at, 4 * len(nodes), "ranks")  # the tree is then no larger than the file
        ranks = dict(zip(nodes, _read(f, np.empty(len(nodes), "<u4")).tolist()))
        inverse, tree = bool(kind), tree_with_levels(n, levels)
        nbytes = 8 * sum(math.prod(shape) for tau in range(1, 2 << levels)
                         for _, shape in block_layout(tree, ranks, tau, inverse))
        end = _claim(size, at, nbytes, "data for the stated ranks")
        if size > end:
            raise ValueError(f"{size - end} trailing bytes after the ranks' data, at byte {end}")
        out = (HbsInverse if inverse else HbsMatrix)(
            tree, stacks=allocate_stacks(tree, ranks, inverse, range(levels + 1)))
        for S in _stacks(out, inverse):
            _read(f, S)
    if not inverse and not all(np.isfinite(S).all() for S in _stacks(out, False)):
        raise ValueError(f"HBS2 file: {'; '.join(nonfinite_blocks(out)[:3])}")
    return out
