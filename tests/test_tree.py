import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbsolve.tree import build_tree


def test_depth_three_example():
    tree = build_tree(400, 50)
    assert tree.levels == 3
    assert tree.node_count == 15
    assert list(tree.leaves) == list(range(8, 16))
    assert tree.ranges[8] == (0, 50)
    assert tree.ranges[9] == (50, 100)
    assert all(tree.size_of(t) == 50 for t in tree.leaves)
    assert tree.ranges[2] == (0, 200) and tree.ranges[3] == (200, 400)


def test_underfilled_root():
    tree = build_tree(7, 100)
    assert tree.levels == 0
    assert tree.ranges[1] == (0, 7)
    assert tree.is_leaf(1)


def test_ceil_split_recursion():
    tree = build_tree(100, 30)
    assert tree.levels == 2
    assert [tree.size_of(t) for t in tree.leaves] == [25, 25, 25, 25]
    # odd sizes: left child takes the ceiling half
    tree = build_tree(101, 30)
    assert [tree.size_of(t) for t in tree.leaves] == [26, 25, 25, 25]


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_tree(0, 10)
    with pytest.raises(ValueError):
        build_tree(10, 1)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5000), st.integers(2, 200))
def test_partition_invariants(n, target):
    tree = build_tree(n, target)
    # parent ranges are the ordered disjoint union of their children's
    for tau in range(1, 2**tree.levels):
        s, e = tree.ranges[tau]
        ls, le = tree.ranges[2 * tau]
        rs, re = tree.ranges[2 * tau + 1]
        assert (ls, re) == (s, e) and le == rs
    sizes = [tree.size_of(t) for t in tree.leaves]
    assert sum(sizes) == n
    assert max(sizes) <= 2 * target
    if tree.levels > 0:
        assert max(sizes) - min(sizes) <= 1
