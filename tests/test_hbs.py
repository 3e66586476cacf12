import re

import numpy as np
import pytest

import hbsolve as hb
from hbsolve.hbs import EXPAND_DENSE_GUARD, _extended_basis, allocate_stacks
from hbsolve.inversion import HbsInverse
from hbsolve.serialization import load, save_hbs, save_inverse
from conftest import (
    BLOCK_WIDTHS,
    COMPRESSED_CONTOURS,
    assert_block_matches_columns,
    dense_compression,
    depth_zero_hbs,
    random_hbs,
    with_blocks,
)


def block_diagonal_hbs(rng, n=64, target_leaf=16):
    """All ranks zero: the matrix is exactly diag of leaf blocks."""
    tree = hb.build_tree(n, target_leaf)
    D = {t: rng.standard_normal((tree.size_of(t),) * 2) for t in tree.leaves}
    U = {}
    V = {}
    for tau in range(2, tree.node_count + 1):
        rows = tree.size_of(tau) if tree.is_leaf(tau) else 0
        U[tau] = np.zeros((rows, 0))
        V[tau] = np.zeros((rows, 0))
    B12, B21 = {}, {}
    for level in range(0, tree.levels):
        for tau in tree.nodes_at_level(level):
            B12[tau] = np.zeros((0, 0))
            B21[tau] = np.zeros((0, 0))
    return hb.HbsMatrix(tree=tree, D=D, U=U, V=V, B12=B12, B21=B21)


def test_block_diagonal_matvec(rng):
    A = block_diagonal_hbs(rng)
    q = rng.standard_normal(64)
    u = hb.hbs_matvec(A, q)
    for tau in A.tree.leaves:
        idx = A.tree.indices(tau)
        assert np.allclose(u[idx], A.D[tau] @ q[idx])
    assert np.array_equal(hb.hbs_matvec(A, np.zeros(64)), np.zeros(64))


def test_matvec_matches_dense_oracle(rng):
    for contour in COMPRESSED_CONTOURS:
        _, A_dense, Ah = dense_compression(contour, 64)  # N = 640
        for _ in range(20):
            q = rng.standard_normal(640)
            u = hb.hbs_matvec(Ah, q)
            ref = A_dense @ q
            assert np.linalg.norm(u - ref) <= 10 * 1e-10 * np.linalg.norm(ref)


def test_matvec_dimension_check():
    Ah = dense_compression("circle", 32)[2]
    with pytest.raises(ValueError):
        hb.hbs_matvec(Ah, np.zeros(10))


def test_expand_one_level_by_hand(rng):
    # A = U B V* + D on a two-leaf tree, multiplied out manually
    tree = hb.build_tree(8, 4)
    assert tree.levels == 1
    D = {2: rng.standard_normal((4, 4)), 3: rng.standard_normal((4, 4))}
    U = {2: rng.standard_normal((4, 2)), 3: rng.standard_normal((4, 2))}
    V = {2: rng.standard_normal((4, 2)), 3: rng.standard_normal((4, 2))}
    B12 = {1: rng.standard_normal((2, 2))}
    B21 = {1: rng.standard_normal((2, 2))}
    A = hb.HbsMatrix(tree=tree, D=D, U=U, V=V, B12=B12, B21=B21)
    ref = np.zeros((8, 8))
    ref[:4, :4] = D[2]
    ref[4:, 4:] = D[3]
    ref[:4, 4:] = U[2] @ B12[1] @ V[3].T
    ref[4:, :4] = U[3] @ B21[1] @ V[2].T
    assert np.allclose(hb.expand_dense(A), ref, atol=1e-14)
    q = rng.standard_normal(8)
    assert np.allclose(hb.hbs_matvec(A, q), ref @ q, atol=1e-12)


def test_expand_block_diagonal(rng):
    A = block_diagonal_hbs(rng)
    E = hb.expand_dense(A)
    import scipy.linalg

    assert np.array_equal(E, scipy.linalg.block_diag(*[A.D[t] for t in A.tree.leaves]))


def test_expand_matches_dense():
    for contour in COMPRESSED_CONTOURS:
        _, A_dense, Ah = dense_compression(contour, 32)  # N = 320
        err = np.linalg.norm(hb.expand_dense(Ah) - A_dense)
        assert err <= 10 * 1e-10 * np.linalg.norm(A_dense)


def test_expand_guard(rng):
    A = block_diagonal_hbs(rng, n=EXPAND_DENSE_GUARD + 1, target_leaf=64)
    with pytest.raises(ValueError, match="oracle"):
        hb.expand_dense(A)


def test_matvec_expand_consistency(rng):
    A = random_hbs(rng)
    E = hb.expand_dense(A)
    for _ in range(5):
        q = rng.standard_normal(A.tree.n)
        ref = E @ q
        assert np.linalg.norm(hb.hbs_matvec(A, q) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_transpose(rng):
    A = random_hbs(rng)
    E = hb.expand_dense(A)
    X = rng.standard_normal((A.tree.n, max(BLOCK_WIDTHS)))
    before = hb.hbs_matvec(A, X)
    At = hb.hbs_transpose(A)
    assert np.allclose(hb.expand_dense(At), E.T, atol=1e-13)
    # views over A's own blocks, roles swapped
    for store, t_store in ((A.D, At.D), (A.U, At.V), (A.V, At.U),
                           (A.B12, At.B21), (A.B21, At.B12)):
        assert store.keys() == t_store.keys()
        assert all(np.shares_memory(store[tau], t_store[tau]) for tau in store)
    for m in BLOCK_WIDTHS:
        Y = assert_block_matches_columns(lambda x: hb.hbs_matvec(At, x), X[:, :m])
        ref = E.T @ X[:, :m]
        assert np.linalg.norm(Y - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(hb.hbs_matvec(A, X), before)


def test_extended_basis_factorizes_offdiagonal(rng):
    # a random matrix, and a smooth star's (N = 320, three levels)
    for A in (random_hbs(rng, n=128, target_leaf=16), dense_compression("smooth_star", 32)[2]):
        E = hb.expand_dense(A)
        tree = A.tree
        s1, s2 = 2, 3
        U1 = _extended_basis(A, s1, "U")
        V2 = _extended_basis(A, s2, "V")
        i1, i2 = tree.indices(s1), tree.indices(s2)
        assert np.allclose(E[np.ix_(i1, i2)], U1 @ A.B12[1] @ V2.T, atol=1e-12)


def test_each_block_is_stored_once(tmp_path, smooth_star_600):
    _, A, inv = smooth_star_600
    save_hbs(tmp_path / "a.hbs", A)
    save_inverse(tmp_path / "i.hbs", inv)
    for obj in (A, inv, load(tmp_path / "a.hbs"), load(tmp_path / "i.hbs"),
                hb.hbs_transpose(A), hb.inverse_transpose(inv)):
        stacks = [S for levels in obj.stacks.values() for buckets in levels.values()
                  for _, S in buckets]
        blocks = [b for name in obj.NAMES for b in getattr(obj, name).values()]
        assert all(any(np.shares_memory(b, S) for S in stacks) for b in blocks)
        assert sum(S.size for S in stacks) == sum(b.size for b in blocks)
    back = load(tmp_path / "i.hbs")
    tau = max(back.G)
    with pytest.raises(TypeError, match=f"node {tau}"):
        back.G[tau] = back.G[tau].copy()
    with pytest.raises(TypeError, match=f"node {tau}"):
        del back.G[tau]
    with pytest.raises(TypeError, match="node 1000000"):
        A.U[10**6] = None  # no such node: its missing view is not this None
    back.G[tau] += 1.0  # an in-place edit reaches the stack
    assert np.array_equal(back.G[tau], inv.G[tau] + 1.0)
    assert any(np.shares_memory(back.G[tau], S) for _, S in back.stacks["G"][back.tree.levels])


def stack_layout(stacks):
    """{name: {level: [(nodes, block shape), ...]}} of an object's stacks."""
    return {name: {level: [(list(nodes), S.shape[1:]) for nodes, S in buckets]
                   for level, buckets in levels.items()}
            for name, levels in stacks.items() if levels}


def test_every_producer_allocates_stacks_from_the_ranks(tmp_path, rng, smooth_star_600,
                                                        corner_star_8000):
    # whatever built an object, its stacks are those allocate_stacks gives for
    # its tree and ranks, and each leaf DIAG stack (D or G) covers a run of
    # consecutive UP stacks (V or F), as _Route relies on
    grid, A, inv = smooth_star_600
    objects = [A, inv, corner_star_8000[1], corner_star_8000[2],
               hb.compress(grid, hb.CompressionConfig(mode="dense"))[0],
               hb.hbs_transpose(A), hb.inverse_transpose(inv),
               hb.inverse_to_hbs(inv), hb.reformat_orthonormal(A),
               random_hbs(rng), depth_zero_hbs(rng)]  # the last two from dicts
    save_hbs(tmp_path / "a.hbs", A)
    save_inverse(tmp_path / "i.hbs", inv)
    objects += [load(tmp_path / "a.hbs"), load(tmp_path / "i.hbs")]
    for obj in objects:
        inverse, tree = isinstance(obj, HbsInverse), obj.tree
        ranks = ({tau: obj.Dhat[tau].shape[0] for tau in obj.Dhat} if inverse
                 else {tau: obj.rank_of(tau) for tau in obj.U})
        expected = allocate_stacks(tree, ranks, inverse, range(tree.levels + 1))
        assert stack_layout(obj.stacks) == stack_layout(expected)
        up = [list(nodes) for nodes, _ in obj.stacks[obj.UP].get(tree.levels, [])]
        at = 0
        for nodes, _ in obj.stacks[obj.DIAG][tree.levels] if tree.levels else []:
            run = []
            while len(run) < len(nodes):
                run, at = run + up[at], at + 1
            assert run == list(nodes)
        assert at == len(up)


def test_storage_is_data_sparse():
    Ah = dense_compression("circle", 64)[2]
    kmax = max(Ah.rank_of(t) for t in Ah.U)
    n = Ah.tree.n
    leaf_max = max(Ah.tree.size_of(t) for t in Ah.tree.leaves)
    # leaf diagonal blocks plus O(n k) for the low-rank factors,
    # far below the n^2 dense count
    assert Ah.storage_count() <= n * leaf_max + 8 * n * kmax
    assert Ah.storage_count() < n * n / 10


def test_validate_well_formed(rng):
    A = random_hbs(rng)
    assert hb.validate(A) == []
    Ah = dense_compression("circle", 32)[2]
    assert hb.validate(Ah) == []


def test_validate_detects_defects(rng):
    # a misshapen block is refused when the matrix is built; validate audits
    # the entries
    A = random_hbs(rng)
    rows, k = A.U[2].shape
    with pytest.raises(ValueError, match=re.escape(
            f"node 2: U shape ({rows + 1}, {k}), expected ({rows}, {k})")):
        with_blocks(A, U={**A.U, 2: np.zeros((rows + 1, k))})  # wrong row count

    B = random_hbs(rng)
    B.D[B.tree.node_count][0, 0] = np.nan
    assert any("non-finite" in s for s in hb.validate(B))

    C = random_hbs(rng)
    wider = np.hstack([C.V[3], C.V[3][:, :1]])  # non-leaf V one column wider
    with pytest.raises(ValueError, match=re.escape(
            f"node 3: V shape {wider.shape}, expected {C.U[3].shape}")):
        with_blocks(C, V={**C.V, 3: wider})


def test_validate_reports_missing_and_extra_blocks(rng):
    # missing and extra blocks are refused when the matrix is built
    A = random_hbs(rng)
    leaf = A.tree.node_count
    V = dict(A.V)
    del V[leaf]
    with pytest.raises(ValueError, match="malformed HBS matrix") as err:
        with_blocks(A, V=V,
                    U={**A.U, 1: np.eye(2)},  # the root carries no basis
                    D={**A.D, 2 * leaf: np.eye(2)})  # nor does a node outside the tree
    issues = str(err.value).split(": ", 1)[1].split("; ")
    for issue in (f"node {leaf}: missing V", "node 1: unexpected U",
                  f"node {2 * leaf}: unexpected D"):
        assert issue in issues
    B = depth_zero_hbs(rng)
    with pytest.raises(ValueError, match="^malformed HBS matrix: node 1: unexpected B12$"):
        with_blocks(B, B12={**B.B12, 1: np.eye(1)})


def test_validate_checks_interpolatory_identity():
    for contour in COMPRESSED_CONTOURS:
        Ah = dense_compression(contour, 32)[2]
        assert Ah.local_skeletons
        leaf = next(iter(Ah.tree.leaves))
        Ah = with_blocks(Ah, U={**Ah.U, leaf: Ah.U[leaf] + 1e-3})  # break U[skeleton] = I
        assert any("skeleton" in s for s in hb.validate(Ah))


def test_depth_zero_matvec(rng):
    tree = hb.build_tree(5, 10)
    D = rng.standard_normal((5, 5))
    A = hb.HbsMatrix(tree=tree, D={1: D}, U={}, V={}, B12={}, B21={})
    q = rng.standard_normal(5)
    assert np.allclose(hb.hbs_matvec(A, q), D @ q)
    assert np.array_equal(hb.expand_dense(A), D)
    assert not np.shares_memory(hb.expand_dense(A), D)  # a copy, not a view
    assert hb.validate(A) == []


def test_block_matvec_matches_columns(rng, smooth_star_600, corner_star_8000):
    for A in (random_hbs(rng), smooth_star_600[1], corner_star_8000[1], depth_zero_hbs(rng)):
        n = A.tree.n
        for m in BLOCK_WIDTHS:
            X = rng.standard_normal((n, m))
            assert assert_block_matches_columns(lambda x: hb.hbs_matvec(A, x), X).shape == X.shape
        assert hb.hbs_matvec(A, np.zeros((n, 0))).shape == (n, 0)
        # the layouts a caller may hand in: column-major, a strided column
        # view, a single column, integers
        X = rng.standard_normal((n, 14))
        for Y in (np.asfortranarray(X[:, :7]), X[:, ::2], X[:, :1], rng.integers(-5, 6, (n, 7))):
            assert assert_block_matches_columns(lambda x: hb.hbs_matvec(A, x), Y).shape == Y.shape


def test_block_matvec_matches_expand_dense(rng, smooth_star_600):
    for A in (random_hbs(rng), smooth_star_600[1], depth_zero_hbs(rng)):
        E = hb.expand_dense(A)
        for m in BLOCK_WIDTHS:
            X = rng.standard_normal((A.tree.n, m))
            ref = E @ X
            assert np.linalg.norm(hb.hbs_matvec(A, X) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_block_matvec_rejects_wrong_shapes(rng):
    for A in (random_hbs(rng), depth_zero_hbs(rng)):
        n = A.tree.n
        for bad in (np.zeros(n + 1), np.zeros((n, 3, 1)), np.zeros((3, n)),
                    np.zeros((n + 1, 3)), np.float64(1.0)):
            with pytest.raises(ValueError, match=rf"\({n},\) or \({n}, m\)"):
                hb.hbs_matvec(A, bad)
        # a complex input is refused, not cut to its real part
        for bad in (np.ones(n) + 1j, np.ones((n, 3), np.complex64)):
            with pytest.raises(ValueError, match=f"complex dtype {bad.dtype}"):
                hb.hbs_matvec(A, bad)


def test_potential_of_a_block_matches_columns(rng, smooth_star_600):
    grid = smooth_star_600[0]
    targets = hb.interior_probe_points(grid, count=10)
    for m in BLOCK_WIDTHS:
        assert_block_matches_columns(lambda q: hb.eval_dlp_potential(grid, q, targets),
                                     rng.standard_normal((grid.size, m)))
