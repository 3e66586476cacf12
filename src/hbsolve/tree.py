"""Fully populated binary partition of the index range [0, N).

Nodes are numbered breadth-first with root 1 and children of tau at
2 tau and 2 tau + 1, so level l holds nodes 2^l .. 2^(l+1) - 1.  Each node
owns a contiguous half-open index range; a parent's range is the ordered
disjoint union of its children's, with the left child taking the ceiling
half of each split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IndexTree:
    n: int
    levels: int
    ranges: dict = field(repr=False)  # node -> (start, stop), half-open

    @property
    def node_count(self):
        return 2 ** (self.levels + 1) - 1

    def nodes_at_level(self, level):
        return range(2**level, 2 ** (level + 1))

    @property
    def leaves(self):
        return self.nodes_at_level(self.levels)

    def indices(self, node):
        start, stop = self.ranges[node]
        return np.arange(start, stop)

    def size_of(self, node):
        start, stop = self.ranges[node]
        return stop - start

    def is_leaf(self, node):
        return node >= 2**self.levels


def tree_with_levels(n, levels):
    """The depth-`levels` tree over [0, n); each split gives the left child
    the ceiling half, so leaf sizes differ by at most one."""
    ranges = {1: (0, n)}
    for tau in range(1, 2**levels):
        start, stop = ranges[tau]
        mid = start + math.ceil((stop - start) / 2)
        ranges[2 * tau] = (start, mid)
        ranges[2 * tau + 1] = (mid, stop)
    return IndexTree(n=n, levels=levels, ranges=ranges)


def build_tree(n, target_leaf):
    """Depth L = max(0, ceil(log2(n / target_leaf)))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if target_leaf < 2:
        raise ValueError(f"target_leaf must be >= 2, got {target_leaf}")
    levels = max(0, math.ceil(math.log2(n / target_leaf))) if n > target_leaf else 0
    return tree_with_levels(n, levels)
