import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import hbsolve as hb
from hbsolve import compression
from hbsolve.compression import (
    DENSE_MODE_GUARD,
    CompressionConfig,
    NystromDlpKernel,
    compress,
    compress_dense,
    compress_proxy,
    solve_workflow,
)
from conftest import circle_grid, star_grid


def test_config_validation():
    assert CompressionConfig().mode == "proxy"  # defaults are valid; dense is opt-in
    with pytest.raises(ValueError, match="tol"):
        CompressionConfig(tol=0.0)
    with pytest.raises(ValueError, match="proxy_points"):
        CompressionConfig(proxy_points=4)
    with pytest.raises(ValueError, match="proxy_radius_factor"):
        CompressionConfig(proxy_radius_factor=1.0)
    with pytest.raises(ValueError, match="target_leaf"):
        CompressionConfig(target_leaf=1)
    with pytest.raises(ValueError, match="mode"):
        CompressionConfig(mode="sparse")


def test_block_diagonal_input_gives_zero_ranks(rng):
    n, leaf = 128, 32
    tree = hb.build_tree(n, leaf)
    A = scipy.linalg.block_diag(
        *[rng.standard_normal((leaf, leaf)) for _ in range(n // leaf)]
    )
    Ah, _ = compress_dense(A, tree, CompressionConfig())
    assert all(Ah.rank_of(tau) == 0 for tau in Ah.U)
    assert np.array_equal(hb.expand_dense(Ah), A)


def test_dense_compression_accuracy():
    grid = circle_grid(32, 10)  # N = 320
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, 64)
    Ah, skel = compress_dense(A, tree, CompressionConfig(tol=1e-10))
    assert hb.validate(Ah) == []
    assert np.linalg.norm(hb.expand_dense(Ah) - A) <= 1e-9 * np.linalg.norm(A)


def test_symmetrize_shares_bases():
    grid = circle_grid(32, 10)
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, 64)
    Ah, _ = compress_dense(A, tree, CompressionConfig(symmetrize=True))
    for tau in Ah.U:
        assert np.array_equal(Ah.U[tau], Ah.V[tau])
    assert np.linalg.norm(hb.expand_dense(Ah) - A) <= 1e-8 * np.linalg.norm(A)


def test_dense_guard_directs_to_proxy():
    tree = hb.build_tree(DENSE_MODE_GUARD + 1, 64)
    with pytest.raises(ValueError, match="proxy"):
        compress_dense(np.zeros((2, 2)), tree, CompressionConfig())


def test_dense_mode_refuses_large_n_before_assembling(monkeypatch):
    calls = []
    monkeypatch.setattr(compression.quad, "assemble_dlp", lambda grid: calls.append(grid))
    grid = star_grid(DENSE_MODE_GUARD // 10 + 2, 10)  # N = 8020
    with pytest.raises(ValueError, match="proxy mode"):
        compress(grid, CompressionConfig(mode="dense"))
    assert calls == []


def test_dense_shape_mismatch():
    tree = hb.build_tree(10, 5)
    with pytest.raises(ValueError, match="shape"):
        compress_dense(np.zeros((9, 9)), tree, CompressionConfig())


def test_skeletons_nest():
    grid = star_grid(32, 10)  # N = 320
    Ah, skel = compress(grid, CompressionConfig(mode="dense", target_leaf=40))
    tree = Ah.tree
    for level in range(1, tree.levels):
        for tau in tree.nodes_at_level(level):
            pool_r = np.concatenate([skel.row[2 * tau], skel.row[2 * tau + 1]])
            pool_c = np.concatenate([skel.col[2 * tau], skel.col[2 * tau + 1]])
            assert np.all(np.isin(skel.row[tau], pool_r))
            assert np.all(np.isin(skel.col[tau], pool_c))
    for tau in tree.leaves:
        idx = tree.indices(tau)
        assert np.all(np.isin(skel.row[tau], idx))
        assert np.all(np.isin(skel.col[tau], idx))


def test_b_blocks_are_exact_submatrices():
    grid = star_grid(32, 10)
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, 64)
    Ah, skel = compress_dense(A, tree, CompressionConfig())
    for level in range(0, tree.levels):
        for parent in tree.nodes_at_level(level):
            s1, s2 = 2 * parent, 2 * parent + 1
            assert np.array_equal(Ah.B12[parent], A[np.ix_(skel.row[s1], skel.col[s2])])
            assert np.array_equal(Ah.B21[parent], A[np.ix_(skel.row[s2], skel.col[s1])])
    for tau in tree.leaves:
        idx = tree.indices(tau)
        assert np.array_equal(Ah.D[tau], A[np.ix_(idx, idx)])


def test_proxy_leaf_reproduces_dense_samples():
    # the leaf bases found from proxy samples must interpolate the true
    # off-diagonal rows to the compression tolerance
    grid = star_grid(64, 10)  # N = 640
    A = hb.assemble_dlp(grid)
    cfg = CompressionConfig(mode="proxy", tol=1e-10)
    Ah, skel = compress(grid, cfg)
    tree = Ah.tree
    tau = next(iter(tree.leaves))
    start, stop = tree.ranges[tau]
    comp = np.r_[0:start, stop : tree.n]
    R = A[np.ix_(tree.indices(tau), comp)]
    approx = Ah.U[tau] @ R[Ah.local_skeletons[tau][0]]
    assert np.linalg.norm(R - approx) <= 1e-8 * max(np.linalg.norm(R), 1.0)


def test_proxy_compress_factors_each_side_once(monkeypatch):
    # one CPQR per side per skeletonized node, also where the row and
    # column ranks differ and both sides get pinned to the larger one
    import hbsolve.compression as compression

    calls = []
    id_row = compression.id_row
    monkeypatch.setattr(compression, "id_row",
                        lambda B, tol, rank=None: calls.append(B.shape) or id_row(B, tol, rank))
    Ah, _ = compress(star_grid(64, 10), CompressionConfig(mode="proxy"))
    assert len(calls) == 2 * (Ah.tree.node_count - 1)


def test_proxy_compress_forms_each_id_once(monkeypatch):
    # the lower-rank side is pinned to the larger rank; its coefficients
    # are formed only at that rank, never at its own adaptive rank first
    import hbsolve.compression as compression
    from hbsolve import lowrank

    ranks, formed = [], []
    id_row, form = compression.id_row, lowrank._id_from_factor

    def recording_id_row(B, tol, rank=None):
        dec = id_row(B, tol, rank)
        ranks.append(dec.rank)
        return dec

    monkeypatch.setattr(compression, "id_row", recording_id_row)
    monkeypatch.setattr(lowrank, "_id_from_factor",
                        lambda R, piv, k: formed.append(k) or form(R, piv, k))
    Ah, _ = compress(star_grid(64, 10), CompressionConfig(mode="proxy"))
    assert any(r != c for r, c in zip(ranks[::2], ranks[1::2]))
    assert sorted(formed) == sorted(2 * [Ah.rank_of(tau) for tau in Ah.U])


def test_proxy_matches_dense_expansion():
    grid = star_grid(64, 10)
    A = hb.assemble_dlp(grid)
    Ahp, _ = compress(grid, CompressionConfig(mode="proxy", tol=1e-10))
    err = np.linalg.norm(hb.expand_dense(Ahp) - A)
    assert err <= 1e-8 * np.linalg.norm(A)
    # and agrees with the dense-mode compression to the same order
    Ahd, _ = compress(grid, CompressionConfig(mode="dense", tol=1e-10))
    diff = np.linalg.norm(hb.expand_dense(Ahp) - hb.expand_dense(Ahd))
    assert diff <= 2e-8 * np.linalg.norm(A)


def test_proxy_rank_inflation_is_mild():
    # proxy ranks sit a bounded margin above the true (dense) ranks, and
    # the margin shrinks as the proxy circle moves farther out
    grid = star_grid(32, 10)
    Ahd, _ = compress(grid, CompressionConfig(mode="dense", target_leaf=40))
    near, _ = compress(
        grid, CompressionConfig(mode="proxy", target_leaf=40, proxy_radius_factor=1.5)
    )
    far, _ = compress(
        grid, CompressionConfig(mode="proxy", target_leaf=40, proxy_radius_factor=3.0)
    )
    for tau in Ahd.U:
        assert Ahd.rank_of(tau) <= near.rank_of(tau) <= Ahd.rank_of(tau) + 20
        assert far.rank_of(tau) <= near.rank_of(tau)
        assert far.rank_of(tau) <= Ahd.rank_of(tau) + 10


def test_compress_builds_tree_from_target_leaf():
    grid = circle_grid(16, 10)
    Ah, _ = compress(grid, CompressionConfig(mode="dense", target_leaf=40))
    assert Ah.tree.levels == 2
    assert all(Ah.tree.size_of(t) == 40 for t in Ah.tree.leaves)


@pytest.mark.parametrize("mode", ["proxy", "dense"])
def test_depth_zero_compress_is_the_dense_matrix(mode):
    grid = star_grid(4, 10)  # N = 40, below the target leaf: one node
    exact = hb.assemble_dlp(grid)
    A, skel = compress(grid, CompressionConfig(mode=mode))
    assert A.tree.levels == 0
    assert A.D.keys() == {1} and np.array_equal(A.D[1], exact)
    assert not (A.U or A.V or A.B12 or A.B21 or A.local_skeletons or skel.row or skel.col)
    rhs = hb.harmonic_trace(grid, np.array([3.0, 0.0]))
    q, report = solve_workflow(grid, CompressionConfig(mode=mode), rhs, estimate_error=True)
    ref = np.linalg.solve(exact, rhs)
    assert np.linalg.norm(q - ref) <= 1e-12 * np.linalg.norm(ref)
    assert report["levels"] == 0 and report["ranks"] == {}


def test_solve_workflow_interior_reproduction():
    grid = star_grid(80, 10)  # N = 800
    src = np.array([3.0, 0.0])
    rhs = hb.harmonic_trace(grid, src)
    q, report = solve_workflow(grid, CompressionConfig(mode="proxy"), rhs)
    z = hb.interior_probe_points(grid, count=10)
    u = hb.eval_dlp_potential(grid, q, z)
    exact = np.log(np.linalg.norm(z - src, axis=1))
    assert np.max(np.abs(u - exact)) < 1e-8
    assert report["n"] == 800 and report["mode"] == "proxy"


def test_solve_workflow_zero_rhs():
    grid = circle_grid(16, 10)
    q, _ = solve_workflow(grid, CompressionConfig(mode="dense"), np.zeros(grid.size))
    assert np.allclose(q, 0.0, atol=1e-13)


def test_solve_workflow_rhs_length_check():
    grid = circle_grid(16, 10)
    with pytest.raises(ValueError, match="rhs"):
        solve_workflow(grid, CompressionConfig(), np.zeros(3))


def test_solve_workflow_block_rhs():
    grid = star_grid(48, 10)  # N = 480
    sources = [(3.0, 0.0), (0.5, 2.5), (-2.2, -2.0)]
    F = np.column_stack([hb.harmonic_trace(grid, np.array(x0)) for x0 in sources])
    cfg = CompressionConfig(mode="proxy")
    Q, report = solve_workflow(grid, cfg, F, estimate_error=True)
    assert Q.shape == F.shape
    z = hb.interior_probe_points(grid, count=10)
    for j, x0 in enumerate(sources):
        q, _ = solve_workflow(grid, cfg, F[:, j])
        assert np.linalg.norm(Q[:, j] - q) <= 1e-12 * np.linalg.norm(q)
        exact = np.log(np.linalg.norm(z - np.array(x0), axis=1))
        assert np.max(np.abs(hb.eval_dlp_potential(grid, Q[:, j], z) - exact)) < 1e-8
    # the report describes the factorization, not the right-hand sides
    _, single = solve_workflow(grid, cfg, F[:, 0], estimate_error=True)
    assert set(report) == set(single)
    assert report["ranks"] == single["ranks"]
    assert report["error_estimate"] == single["error_estimate"]


def test_report_residual_is_the_worst_column():
    grid = star_grid(48, 10)
    F = np.column_stack([hb.harmonic_trace(grid, np.array([3.0, 0.0])),
                         np.zeros(grid.size),
                         hb.harmonic_trace(grid, np.array([0.5, 2.5]))])
    cfg = CompressionConfig(mode="proxy", tol=1e-6)
    Q, report = solve_workflow(grid, cfg, F)
    A, _ = hb.compress(grid, cfg)
    R = hb.hbs_matvec(A, Q) - F
    worst = max(np.linalg.norm(R[:, j]) / np.linalg.norm(F[:, j]) for j in (0, 2))
    assert worst > 0
    assert report["residual"] == float(f"{worst:.3g}")
    _, zero = solve_workflow(grid, cfg, np.zeros(grid.size))
    assert zero["residual"] == 0.0


def test_solve_workflow_block_rhs_names_bad_row_and_column():
    grid = circle_grid(16, 10)
    F = np.ones((grid.size, 3))
    F[17, 2] = np.inf
    F[40, 0] = np.nan
    with pytest.raises(ValueError, match="2 non-finite entries, the first at index 17 of column 2"):
        solve_workflow(grid, CompressionConfig(), F)


def test_solve_workflow_rejects_other_shapes():
    grid = circle_grid(16, 10)
    n = grid.size
    for bad in (np.zeros((n, 2, 1)), np.zeros((2, n)), np.zeros((n + 1, 2)), np.float64(0.0)):
        with pytest.raises(ValueError, match=rf"expected \({n},\) or \({n}, m\)"):
            solve_workflow(grid, CompressionConfig(), bad)


def test_corner_grading_improves_solution():
    c = hb.CornerStar()
    src = np.array([3.0, 0.0])
    errs = {}
    for levels in (2, 5):
        grid = hb.build_grid(c, hb.decompose(c, 6, levels), 17)
        rhs = hb.harmonic_trace(grid, src)
        q, _ = solve_workflow(grid, CompressionConfig(mode="proxy"), rhs)
        z = hb.interior_probe_points(grid, count=6)
        u = hb.eval_dlp_potential(grid, q, z)
        exact = np.log(np.linalg.norm(z - src, axis=1))
        errs[levels] = np.max(np.abs(u - exact))
    # the density singularity at the corners limits the per-level rate,
    # but three extra grading levels must clearly pay off
    assert errs[5] < errs[2] / 3


def test_report_schema():
    grid = circle_grid(32, 10)
    rhs = hb.harmonic_trace(grid, np.array([2.0, 1.0]))
    _, report = solve_workflow(
        grid, CompressionConfig(mode="dense"), rhs, estimate_error=True, seed=1
    )
    assert report["schema_version"] == 3
    assert set(report["timings"]) == {"compress", "invert", "apply"}
    assert 0 <= report["residual"] <= 1e-8
    assert all(v >= 0 for v in report["timings"].values())
    for level, stats in report["ranks"].items():
        assert stats["min"] <= stats["mean"] <= stats["max"]
    assert report["condition"]["max_cond_Dtilde"] >= 1.0
    est = report["error_estimate"]
    assert est["method"] == "power" and "samples" not in est
    assert est["err_A"] <= 1e-8
    assert est["bound_factor"] <= 1e-6
    import json

    json.dumps(report)  # everything JSON-serializable


@pytest.mark.parametrize("star", ["smooth_star_600", "corner_star_8000"])
def test_solve_workflow_applies_the_factored_inverse(star, request):
    grid, _, inv = request.getfixturevalue(star)
    sources = [(3.0, 0.0), (0.5, 2.5), (-2.2, -2.0)]
    F = np.column_stack([hb.harmonic_trace(grid, np.array(x0)) for x0 in sources])
    inv_hbs = hb.inverse_to_hbs(inv)
    for rhs in (F[:, 0], F):
        q, _ = solve_workflow(grid, CompressionConfig(mode="proxy"), rhs)
        # the fixture factors the same grid with the same config
        assert np.array_equal(q, hb.apply_inverse(inv, rhs))
        # and the paper's reformat to HBS form gives the same solution
        ref = hb.hbs_matvec(inv_hbs, rhs)
        assert np.all(np.linalg.norm(q - ref, axis=0) <= 1e-11 * np.linalg.norm(ref, axis=0))


def _decompose_grid(contour, panels, corner_levels):
    return hb.build_grid(contour, hb.decompose(contour, panels, corner_levels), 10)


@settings(deadline=None, max_examples=12)
@given(st.one_of(  # N = 300-700, or 800-1200 for the corner stars
           st.builds(lambda arms, amp, panels: _decompose_grid(hb.SmoothStar(arms, amp), panels, 0),
                     st.integers(3, 7), st.floats(0.1, 0.5), st.integers(30, 70)),
           st.builds(lambda seg, r1, r2, levels: _decompose_grid(
                         hb.CornerStar(seg, (r1, r2)), 2, levels),
                     st.sampled_from([8, 10, 12]), st.floats(0.85, 0.95),
                     st.floats(1.05, 1.15), st.integers(4, 6))),
       st.sampled_from([16, 32, 64]))
def test_level_near_fields_match_brute_force(grid, leaf):
    # every level of a proxy compression: the rings enclose their node's
    # active points, and one k-d query per level and side gives each node
    # exactly the other nodes' active points inside its ring
    seen = []

    class Recording(compression._ProxySampler):
        def level_context(self, level, active_r, active_c):
            ctx = super().level_context(level, active_r, active_c)
            seen.append((level, dict(active_r), dict(active_c), ctx))
            return ctx

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compression, "_ProxySampler", Recording)
        Ah, _ = compress(grid, CompressionConfig(target_leaf=leaf))
    tree = Ah.tree
    assert [s[0] for s in seen] == list(range(tree.levels, 0, -1))
    pts = grid.points
    for level, active_r, active_c, (rings, near_r, near_c) in seen:
        nodes = list(tree.nodes_at_level(level))
        assert rings.shape == (len(nodes), 50, 2)
        for i, tau in enumerate(nodes):
            center = rings[i].mean(axis=0)
            radius = np.linalg.norm(rings[i] - center, axis=1)
            assert np.ptp(radius) <= 1e-12 * radius[0]
            radius = radius[0]
            own = tree.indices(tau)
            for active, near in ((active_r, near_r[i]), (active_c, near_c[i])):
                assert np.all(np.linalg.norm(pts[active[tau]] - center, axis=1) < radius)
                assert not np.isin(near, own).any()
                others = np.concatenate([active[t] for t in nodes if t != tau])
                dist = np.linalg.norm(pts[others] - center, axis=1)
                # exact up to rounding on the ring itself
                assert np.all(np.isin(others[dist <= radius * (1 - 1e-12)], near))
                assert np.all(np.isin(near, others[dist <= radius * (1 + 1e-12)]))
                assert len(np.unique(near)) == len(near)
