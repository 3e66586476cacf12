"""Binary container for HBS matrices and their factored inverses.

Layout: a 16-byte header (magic "HBS1", u32 N, u32 levels, u32 reserved,
all little-endian; the reserved field is written as 0 and not read), then
one record per tree node in node number order.  A record is (u32 node_id,
u32 role, u32 block_count) followed by the blocks, each as (u32 rows, u32
cols, row-major float64 data).  The role names the node's blocks, which
hbs.block_names lists in record order:

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

from .hbs import HbsMatrix, allocate_stacks, block_names, block_ranks, nonfinite_blocks
from .inversion import HbsInverse
from .tree import tree_with_levels

HBS_MAGIC = b"HBS1"
_HEADER, _RECORD, _SHAPE = struct.Struct("<4sIII"), struct.Struct("<III"), struct.Struct("<II")
_IOV_MAX = 1024  # buffers per preadv: Linux's IOV_MAX
_ROLES = {("D",): 0, ("D", "U", "V"): 1, ("U", "V", "B12", "B21"): 2, ("B12", "B21"): 3,
          ("E", "F", "G", "Dhat"): 9, ("G",): 10}  # a record's block names -> its role


def _save(path, obj, inverse):
    tree = obj.tree
    with open(path, "wb") as f:
        f.write(_HEADER.pack(HBS_MAGIC, tree.n, tree.levels, 0))
        for tau in range(1, tree.node_count + 1):
            names = block_names(tree.levels, tau, inverse)
            f.write(_RECORD.pack(tau, _ROLES[names], len(names)))
            for name in names:
                b = np.ascontiguousarray(getattr(obj, name)[tau], dtype=np.float64)
                f.write(_SHAPE.pack(*b.shape))
                f.write(b.tobytes())


def save_hbs(path, A: HbsMatrix):
    _save(path, A, False)


def save_inverse(path, inv: HbsInverse):
    _save(path, inv, True)


class _Scan:
    """Pass over the record and block headers of an open HBS1 file of
    `size` bytes, one pread per header (a record's header and its first
    block's shape share one); block data is skipped, not read.  A header or
    block that runs past the end of the file raises, naming what was being
    read and its byte offset."""

    def __init__(self, fd, size):
        self.fd, self.size, self.at = fd, size, 0

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
        return fields.unpack(os.pread(self.fd, fields.size, at))

    def record(self, tau, levels, kinds, shapes):
        """Kind (True for an inverse) of node tau's record in a depth-`levels`
        file, and its blocks' names, in file order; their shapes go into
        `shapes`, {name: {node: (rows, cols)}}.  The role must be that of one
        of `kinds`."""
        at = self.at
        head = os.pread(self.fd, _RECORD.size + _SHAPE.size, at)
        self.skip(_RECORD.size, "record", tau)
        node, role, count = _RECORD.unpack_from(head)
        if node != tau:
            raise ValueError(f"record at byte {at} is for node {node}, expected "
                             f"node {tau}: records must follow node order")
        for inverse in kinds:
            names = block_names(levels, tau, inverse)
            if role == _ROLES[names]:
                break
        else:
            expected = (str(_ROLES[block_names(levels, tau, inverse)]) for inverse in kinds)
            raise ValueError(f"unexpected role {role} at node {tau} (byte {at}), "
                             f"expected {' or '.join(expected)}")
        if count != len(names):
            raise ValueError(f"node {tau} (byte {at}): role {role} has "
                             f"{len(names)} blocks, the record says {count}")
        fd, size, at, shape = self.fd, self.size, self.at, head[_RECORD.size:]
        for name in names:  # a load's hottest loop: one pass per block, inlined
            if size - at < _SHAPE.size:
                self.at = at
                self.skip(_SHAPE.size, name, tau)  # raises
            rows, cols = _SHAPE.unpack(shape or os.pread(fd, _SHAPE.size, at))
            shape = b""
            at += _SHAPE.size
            if size - at < 8 * rows * cols:
                self.at = at
                self.skip(8 * rows * cols, name, tau)  # raises
            at += 8 * rows * cols
            shapes[name][tau] = (rows, cols)
        self.at = at
        return inverse, names

    def end(self):
        if self.at != self.size:
            raise ValueError(f"{self.size - self.at} trailing bytes after the "
                             f"last record, at byte {self.at}")


def _read_into(fd, buffers, at, end):
    """Fill the arrays `buffers` in turn from the file's bytes at offset
    `at` on, which end at byte `end`: one preadv per IOV_MAX buffers,
    resumed inside a buffer that a short read leaves part filled."""
    buffers, i = list(buffers), 0  # a part-filled buffer is replaced by its rest
    while i < len(buffers):
        chunk = buffers[i:i + _IOV_MAX]
        got = os.preadv(fd, chunk, at)
        at += got
        # the usual case: the whole chunk was read (the last one ends the file)
        if at == end if i + len(chunk) == len(buffers) else got == sum(b.nbytes for b in chunk):
            i += len(chunk)
            continue
        if not got:
            raise ValueError(f"HBS1 file ended at byte {at} while its blocks were "
                             "read: it changed after its headers were")
        for b in chunk:
            if got < b.nbytes:
                if got:
                    buffers[i] = b.reshape(-1).view(np.uint8)[got:]
                break
            got -= b.nbytes
            i += 1


def load(path):
    """Load either an HbsMatrix or an HbsInverse, as the root's role dictates.

    A first pass reads only the record and block headers and checks them:
    any malformed file raises ValueError, for a short read (naming the node
    and byte offset), trailing bytes, records out of node order, a role or
    block count that does not fit the node's place in the tree, or block
    shapes that do not fit the tree's sizes and the neighbouring ranks.
    Only then are the stacks allocated, and each block is read once from
    the file into its slot.  These checks cost O(#records); a loaded
    HbsMatrix also has every entry checked to be finite.  An HbsInverse's
    entries are not scanned here: `apply_inverse` raises on a non-finite
    result.
    """
    with open(path, "rb", buffering=0) as f:
        scan = _Scan(f.fileno(), os.fstat(f.fileno()).st_size)
        magic, n, levels, _ = scan.take(_HEADER, "header")
        if magic != HBS_MAGIC:
            raise ValueError(f"not an HBS1 file: bad magic {magic!r}")
        if n >> levels == 0:
            raise ValueError(f"header: N = {n} cannot fill the 2^{levels} leaves "
                             f"of a depth-{levels} tree")
        kinds, records, shapes = (False, True), [], defaultdict(dict)
        for tau in range(1, 2 << levels):
            inverse, names = scan.record(tau, levels, kinds, shapes)
            kinds = (inverse,)
            records.append(names)
        scan.end()
        kind = HbsInverse if inverse else HbsMatrix
        # the file held a record per node, so the tree is no larger than the file
        tree = tree_with_levels(n, levels)
        ranks = block_ranks(tree, shapes, inverse, "inconsistent HBS1 file")
        out = kind(tree, stacks=allocate_stacks(tree, ranks, inverse, range(levels + 1)))
        # the file after its header is, record by record, the record's header
        # and each block's shape and data: one read fills every slot
        record, shape, buffers = np.empty(_RECORD.size, np.uint8), np.empty(_SHAPE.size, np.uint8), []
        blocks = {name: getattr(out, name) for name in kind.NAMES}
        for tau, names in enumerate(records, 1):
            buffers.append(record)
            for name in names:
                buffers += (shape, blocks[name][tau])
        _read_into(f.fileno(), buffers, _HEADER.size, scan.size)
    errors = [] if inverse else nonfinite_blocks(out)
    if errors:
        raise ValueError(f"inconsistent HBS1 file: {'; '.join(errors[:3])}")
    return out
