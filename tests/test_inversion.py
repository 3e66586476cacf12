import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hbsolve as hb
from hbsolve.inversion import (
    BlockSeparableMatrix,
    SingularBlockError,
    apply_inverse,
    bs_invert,
    hbs_invert,
    inverse_to_hbs,
    inverse_transpose,
    reformat_orthonormal,
)
from conftest import (
    BLOCK_WIDTHS,
    COMPRESSED_CONTOURS,
    assert_block_matches_columns,
    dense_compression,
    depth_zero_hbs,
    random_block_separable,
    random_hbs,
    star_grid,
    with_blocks,
)


# ---------------------------------------------------------------------------
# Single-level block-separable inversion
# ---------------------------------------------------------------------------


def test_bs_invert_decoupled_blocks(rng):
    # zero core: A is block diagonal and the inverse is just D^-1 per block
    D = [rng.standard_normal((5, 5)) + 4 * np.eye(5) for _ in range(3)]
    U = [rng.standard_normal((5, 2)) for _ in range(3)]
    A = BlockSeparableMatrix(D=D, U=U, V=U, core=np.zeros((6, 6)))
    inv = bs_invert(A)
    v = rng.standard_normal(15)
    ref = np.linalg.solve(A.to_dense(), v)
    assert np.allclose(inv.apply(v), ref, atol=1e-12)


def test_bs_invert_matches_dense(rng):
    for _ in range(10):
        A = random_block_separable(rng, p=5, n=7, k=2)
        dense = A.to_dense()
        inv = bs_invert(A)
        v = rng.standard_normal(35)
        ref = np.linalg.solve(dense, v)
        err = np.linalg.norm(inv.apply(v) - ref)
        assert err <= 1e-10 * max(np.linalg.norm(ref), np.linalg.norm(v))


def test_bs_invert_names_singular_block(rng):
    A = random_block_separable(rng, p=3, n=4, k=1)
    A.D[1] = np.zeros((4, 4))
    with pytest.raises(SingularBlockError, match="block 1"):
        bs_invert(A)


def test_ill_conditioned_block_warns(rng):
    A = random_block_separable(rng, p=2, n=4, k=1)
    A.D[0] = np.diag([1.0, 1.0, 1.0, 1e-15])
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        bs_invert(A)


def test_bs_invert_spd_reduced_blocks(rng):
    # symmetric positive definite input: the Dhat blocks and the shifted
    # core it produces stay symmetric positive definite
    p, n, k = 4, 6, 2
    import scipy.linalg

    D = []
    U = []
    for _ in range(p):
        M = rng.standard_normal((n, n))
        D.append(M @ M.T + n * np.eye(n))
        U.append(rng.standard_normal((n, k)))
    core = rng.standard_normal((p * k, p * k))
    core = core + core.T
    for i in range(p):
        core[i * k : (i + 1) * k, i * k : (i + 1) * k] = 0.0
    A = BlockSeparableMatrix(D=D, U=U, V=U, core=core)
    dense = A.to_dense()
    shift = (1.0 - np.linalg.eigvalsh(dense).min()) * 1.0
    if shift > 0:
        for i in range(p):
            A.D[i] = A.D[i] + shift * np.eye(n)
    dense = A.to_dense()
    assert np.linalg.eigvalsh(dense).min() > 0
    inv = bs_invert(A)
    for Dh in inv.Dhat:
        assert np.allclose(Dh, Dh.T, atol=1e-10)
        assert np.linalg.eigvalsh(0.5 * (Dh + Dh.T)).min() > 0
    shifted = A.core + scipy.linalg.block_diag(*inv.Dhat)
    assert np.linalg.eigvalsh(0.5 * (shifted + shifted.T)).min() > 0


# ---------------------------------------------------------------------------
# Recursive HBS inversion
# ---------------------------------------------------------------------------


def test_hbs_invert_depth_zero(rng):
    tree = hb.build_tree(6, 10)
    D = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    A = hb.HbsMatrix(tree=tree, D={1: D}, U={}, V={}, B12={}, B21={})
    inv = hbs_invert(A)
    v = rng.standard_normal(6)
    assert np.allclose(apply_inverse(inv, v), np.linalg.solve(D, v), atol=1e-12)


def test_inverse_residual(rng):
    for contour in COMPRESSED_CONTOURS:
        grid, A_dense, Ah = dense_compression(contour, 32)  # N = 320
        inv = hbs_invert(Ah)
        for _ in range(5):
            b = rng.standard_normal(320)
            q = apply_inverse(inv, b)
            assert np.linalg.norm(A_dense @ q - b) <= 1e-8 * np.linalg.norm(b)


def test_inverse_composes_to_identity(rng):
    for contour in COMPRESSED_CONTOURS:
        _, _, Ah = dense_compression(contour, 128)  # N = 1280
        inv = hbs_invert(Ah)
        for _ in range(3):
            q = rng.standard_normal(1280)
            back = apply_inverse(inv, hb.hbs_matvec(Ah, q))
            assert np.linalg.norm(back - q) <= 1e-8 * np.linalg.norm(q)


def test_apply_inverse_dimension_check(rng):
    A = random_hbs(rng)
    inv = hbs_invert(A)
    with pytest.raises(ValueError):
        apply_inverse(inv, np.zeros(7))


def conditioned_hbs(rng, **kwargs):
    """random_hbs with U = V orthonormal, leaf blocks I + (norm 0.1) and B
    blocks of norm <= 0.1, so every block the inversion meets is near I."""
    A = random_hbs(rng, **kwargs)
    U = {tau: np.linalg.qr(A.U[tau])[0] for tau in A.U}
    D = {tau: np.eye(len(D)) + 0.1 * D / np.linalg.norm(D, 2) for tau, D in A.D.items()}
    B12, B21 = ({tau: 0.1 * B / max(np.linalg.norm(B, 2), 1.0) for tau, B in store.items()}
                for store in (A.B12, A.B21))
    return hb.HbsMatrix(A.tree, D=D, U=U, V=U, B12=B12, B21=B21)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 600), st.integers(2, 80), st.integers(1, 8),
       st.sampled_from((0, *BLOCK_WIDTHS)), st.integers(0, 10**6))
def test_block_apply_matches_columns_on_random_hbs(n, target_leaf, max_rank, m, seed):
    rng = np.random.default_rng(seed)
    A = conditioned_hbs(rng, n=n, target_leaf=target_leaf, max_rank=max_rank)
    inv = hbs_invert(A)
    X = rng.standard_normal((n, m))
    for apply in (lambda x: apply_inverse(inv, x), lambda x: hb.hbs_matvec(A, x)):
        assert assert_block_matches_columns(apply, X).shape == (n, m)


def test_block_apply_inverse_matches_columns(rng, smooth_star_600, corner_star_8000):
    # the smooth star at leaf 64 and 128 whatever the default leaf is
    grid = smooth_star_600[0]
    invs = [*(hbs_invert(hb.compress(grid, hb.CompressionConfig(mode="proxy", target_leaf=leaf))[0])
              for leaf in (64, 128)),
            corner_star_8000[2], hbs_invert(depth_zero_hbs(rng))]
    for inv in invs:
        n = inv.tree.n
        for m in BLOCK_WIDTHS:
            X = rng.standard_normal((n, m))
            Q = assert_block_matches_columns(lambda x: apply_inverse(inv, x), X)
            assert Q.shape == X.shape
        assert apply_inverse(inv, np.zeros((n, 0))).shape == (n, 0)
        # the layouts a caller may hand in: column-major, a strided column
        # view, a single column, integers
        X = rng.standard_normal((n, 14))
        for Y in (np.asfortranarray(X[:, :7]), X[:, ::2], X[:, :1], rng.integers(-5, 6, (n, 7))):
            assert assert_block_matches_columns(lambda x: apply_inverse(inv, x), Y).shape == Y.shape


def test_block_apply_inverse_rejects_wrong_shapes(rng):
    for inv in (hbs_invert(random_hbs(rng)), hbs_invert(depth_zero_hbs(rng))):
        n = inv.tree.n
        for bad in (np.zeros(n + 1), np.zeros((n, 3, 1)), np.zeros((3, n)),
                    np.zeros((n + 1, 3)), np.float64(1.0)):
            with pytest.raises(ValueError, match=rf"\({n},\) or \({n}, m\)"):
                apply_inverse(inv, bad)
        # a complex input is refused, not cut to its real part
        for bad in (np.ones(n) + 1j, np.ones((n, 3), np.complex64)):
            with pytest.raises(ValueError, match=f"complex dtype {bad.dtype}"):
                apply_inverse(inv, bad)


def test_bs_inverse_applies_blocks(rng):
    A = random_block_separable(rng, p=5, n=7, k=2)
    dense, inv = A.to_dense(), bs_invert(A)
    for m in (0, *BLOCK_WIDTHS):
        X = rng.standard_normal((35, m))
        Q = assert_block_matches_columns(inv.apply, X)
        assert np.linalg.norm(Q - np.linalg.solve(dense, X)) <= 1e-10 * max(np.linalg.norm(X), 1.0)


def test_hbs_invert_names_singular_node(rng):
    A = random_hbs(rng, n=64, target_leaf=16)
    leaf = next(iter(A.tree.leaves))
    A = with_blocks(A, D={**A.D, leaf: np.zeros_like(A.D[leaf])})
    with pytest.raises(SingularBlockError, match=f"node {leaf}"):
        hbs_invert(A)


def test_condition_estimates_track_two_norm_condition():
    # the acceptance fixtures: smooth star (N = 800) and corner star with
    # 2 grading levels (N = 1700), proxy compression at the default tolerance
    c = hb.CornerStar()
    grids = [star_grid(80, 10), hb.build_grid(c, hb.decompose(c, 6, 2), 17)]
    for grid in grids:
        assert grid.size <= 2000
        A, _ = hb.compress(grid, hb.CompressionConfig(mode="proxy"))
        inv = hbs_invert(A)
        tree = A.tree

        def reduced_block(tau):
            if tree.is_leaf(tau):
                return A.D[tau]
            s1, s2 = 2 * tau, 2 * tau + 1
            return np.block([[inv.Dhat[s1], A.B12[tau]], [A.B21[tau], inv.Dhat[s2]]])

        pairs = [(inv.telemetry[1]["cond_Dtilde"], np.linalg.cond(reduced_block(1)))]
        for tau in range(2, tree.node_count + 1):
            Dt = reduced_block(tau)
            core = A.V[tau].T @ np.linalg.solve(Dt, A.U[tau])
            pairs.append((inv.telemetry[tau]["cond_Dtilde"], np.linalg.cond(Dt)))
            pairs.append((inv.telemetry[tau]["cond_core"], np.linalg.cond(core)))
        ratios = np.array([est / exact for est, exact in pairs])
        assert np.all((ratios >= 0.1) & (ratios <= 10)), (ratios.min(), ratios.max())


def test_inverse_transpose(rng):
    for contour in COMPRESSED_CONTOURS:
        _, A_dense, Ah = dense_compression(contour, 32)
        inv = hbs_invert(Ah)
        B = rng.standard_normal((320, max(BLOCK_WIDTHS)))
        before = apply_inverse(inv, B)
        invT = inverse_transpose(inv)
        # views over inv's own factors, E and F swapped
        for store, t_store in ((inv.E, invT.F), (inv.F, invT.E), (inv.G, invT.G),
                               (inv.Dhat, invT.Dhat)):
            assert store.keys() == t_store.keys()
            assert all(np.shares_memory(store[tau], t_store[tau]) for tau in store)
        for m in BLOCK_WIDTHS:
            Q = assert_block_matches_columns(lambda x: apply_inverse(invT, x), B[:, :m])
            ref = np.linalg.solve(A_dense.T, B[:, :m])
            assert np.linalg.norm(Q - ref) <= 1e-8 * np.linalg.norm(B[:, :m])
        assert np.array_equal(apply_inverse(inv, B), before)


# ---------------------------------------------------------------------------
# Reformatting the factored inverse as an HBS matrix
# ---------------------------------------------------------------------------


def test_inverse_to_hbs_matches_apply(rng):
    for contour in COMPRESSED_CONTOURS:
        _, _, Ah = dense_compression(contour, 64)  # N = 640
        inv = hbs_invert(Ah)
        Binv = inverse_to_hbs(inv)
        assert hb.validate(Binv) == []
        for _ in range(5):
            u = rng.standard_normal(640)
            direct = apply_inverse(inv, u)
            via_hbs = hb.hbs_matvec(Binv, u)
            assert np.linalg.norm(via_hbs - direct) <= 1e-12 * np.linalg.norm(direct)


def test_inverse_to_hbs_one_level_by_hand(rng):
    # two leaves: the reformatted inverse must expand to
    # [[G1 + E1 H11 F1*, E1 H12 F2*], [E2 H21 F1*, G2 + E2 H22 F2*]]
    # where H = G[1] is the dense inverse of the reduced system
    for contour in COMPRESSED_CONTOURS:
        _, _, Ah = dense_compression(contour, 16, target_leaf=128)  # N = 160, one level
        assert Ah.tree.levels == 1
        inv = hbs_invert(Ah)
        B = inverse_to_hbs(inv)
        k1 = inv.Dhat[2].shape[0]
        H = inv.G[1]
        top = np.hstack(
            [inv.G[2] + inv.E[2] @ H[:k1, :k1] @ inv.F[2].T,
             inv.E[2] @ H[:k1, k1:] @ inv.F[3].T]
        )
        bot = np.hstack(
            [inv.E[3] @ H[k1:, :k1] @ inv.F[2].T,
             inv.G[3] + inv.E[3] @ H[k1:, k1:] @ inv.F[3].T]
        )
        assert np.allclose(hb.expand_dense(B), np.vstack([top, bot]), atol=1e-13)


def test_inverse_to_hbs_residual(rng):
    for contour in COMPRESSED_CONTOURS:
        Ah = dense_compression(contour, 32)[2]
        inv = hbs_invert(Ah)
        Binv = inverse_to_hbs(inv)
        # against the matrix it inverts: the star's A_dense differs from it by
        # the compression tolerance, far above this round-off bound
        E = hb.expand_dense(Ah)
        R = hb.expand_dense(Binv) @ E - np.eye(320)
        cond = np.linalg.cond(E)
        assert np.linalg.norm(R) <= 100 * np.finfo(float).eps * cond * 320


def test_reformat_orthonormal_postconditions(rng):
    for _ in range(5):
        A = random_hbs(rng)
        Q = reformat_orthonormal(A)
        # same represented matrix
        E0, E1 = hb.expand_dense(A), hb.expand_dense(Q)
        assert np.linalg.norm(E1 - E0) <= 1e-12 * np.linalg.norm(E0)
        # orthonormal bases
        for tau in Q.U:
            assert np.linalg.norm(Q.U[tau].T @ Q.U[tau] - np.eye(Q.U[tau].shape[1])) <= 1e-12
            assert np.linalg.norm(Q.V[tau].T @ Q.V[tau] - np.eye(Q.V[tau].shape[1])) <= 1e-12
        # B blocks rectangular diagonal, nonnegative, nonincreasing
        for store in (Q.B12, Q.B21):
            for B in store.values():
                d = np.diag(B).copy()
                off = B - np.diag(d)[: B.shape[0], : B.shape[1]] if B.shape[0] == B.shape[1] else None
                full = np.zeros_like(B)
                np.fill_diagonal(full, d)
                assert np.array_equal(B, full)
                assert np.all(d >= 0)
                assert np.all(np.diff(d) <= 1e-14)


def test_reformat_orthonormal_depth_zero(rng):
    tree = hb.build_tree(4, 8)
    D = rng.standard_normal((4, 4))
    A = hb.HbsMatrix(tree=tree, D={1: D}, U={}, V={}, B12={}, B21={})
    Q = reformat_orthonormal(A)
    assert np.array_equal(Q.D[1], D)


def test_reformat_of_reformatted_inverse(rng):
    # the full pipeline shape: invert, reformat to HBS, orthonormalize
    for contour in COMPRESSED_CONTOURS:
        _, A_dense, Ah = dense_compression(contour, 32)
        Binv = reformat_orthonormal(inverse_to_hbs(hbs_invert(Ah)))
        assert hb.validate(Binv) == []
        b = rng.standard_normal(320)
        q = hb.hbs_matvec(Binv, b)
        assert np.linalg.norm(A_dense @ q - b) <= 1e-8 * np.linalg.norm(b)
