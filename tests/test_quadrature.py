import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hbsolve as hb
from hbsolve import quadrature as quad
from conftest import circle_grid, star_grid


def test_gauss_legendre_small_rules():
    x, w = quad.gauss_legendre(1)
    assert np.allclose(x, [0.0]) and np.allclose(w, [2.0])
    x, w = quad.gauss_legendre(2)
    assert np.allclose(np.sort(x), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(w, [1.0, 1.0])


def test_gauss_legendre_exactness():
    # 10-point rule integrates degree-19 polynomials exactly
    x, w = quad.gauss_legendre(10)
    assert abs(np.sum(w * x**18) - 2 / 19) < 1e-14
    assert abs(np.sum(w) - 2.0) < 1e-14


@pytest.mark.parametrize("n", [0, -3, 65])
def test_gauss_legendre_range(n):
    with pytest.raises(ValueError):
        quad.gauss_legendre(n)


def test_build_grid_circle():
    grid = circle_grid(16, 10)
    assert grid.size == 160
    assert abs(np.sum(grid.weights) - 2 * np.pi) < 1e-12
    assert np.all(grid.weights > 0)
    assert np.array_equal(grid.panel_of, np.repeat(np.arange(16), 10))
    # contiguous per-panel ordering follows the parameter
    assert np.all(np.diff(grid.t) > 0)


def test_build_grid_reference_node_counts():
    c = hb.CornerStar()
    grid = hb.build_grid(c, hb.decompose(c, 6, 5), 17)
    assert np.all(np.bincount(grid.panel_of) == 17)
    s = hb.Snake()
    grid = hb.build_grid(s, hb.decompose(s, 10, 4), 25)
    assert np.all(np.bincount(grid.panel_of) == 25)


@pytest.mark.parametrize("contour, base, levels", [
    (hb.UnitCircle(), 16, 0), (hb.SmoothStar(), 40, 0), (hb.CornerStar(), 4, 20),
    (hb.Snake(), 6, 4)], ids=["unit_circle", "smooth_star", "corner_star", "snake"])
def test_build_grid_fields_match_the_contour_formulas(contour, base, levels):
    panels = hb.decompose(contour, base, levels)
    grid = hb.build_grid(contour, panels, 12)
    t = grid.t
    p, d, dd = contour._curve(t)
    s = np.hypot(d[:, 0], d[:, 1])
    _, wg = quad.gauss_legendre(12)
    w_ref = (0.5 * np.diff(panels.panels, axis=1) * wg[None, :]).ravel()
    assert np.array_equal(grid.points, p)
    assert np.array_equal(grid.normals, np.stack([d[:, 1] / s, -d[:, 0] / s], axis=-1))
    assert np.array_equal(grid.weights, w_ref * s)
    assert np.array_equal(grid.curvature, (d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]) / s**3)
    # frame, on its own, gives the same formulas
    _, normal, speed, kappa = contour.frame(t)
    assert np.array_equal(normal, grid.normals)
    assert np.array_equal(speed, s)
    assert np.array_equal(kappa, grid.curvature)


def test_build_grid_rejects_single_node_panels():
    c = hb.UnitCircle()
    with pytest.raises(ValueError):
        hb.build_grid(c, hb.decompose(c, 16, 0), 1)


def test_circle_kernel_is_constant():
    # on the unit circle the double-layer kernel is identically 1/(4 pi),
    # so off-diagonal entries are w_j / (4 pi)
    grid = circle_grid(16, 10)
    A = hb.assemble_dlp(grid)
    i, j = np.meshgrid(np.arange(160), np.arange(160), indexing="ij")
    off = i != j
    expected = np.broadcast_to(grid.weights[None, :] / (4 * np.pi), A.shape)
    assert np.max(np.abs(A[off] - expected[off])) < 1e-13


def test_row_sum_identity():
    # integral of the kernel over a closed contour is 1/2, so A @ 1 = 1
    c = hb.UnitCircle()
    grid = hb.build_grid(c, hb.decompose(c, 64, 0), 10)  # N = 640
    A = hb.assemble_dlp(grid)
    assert np.max(np.abs(A @ np.ones(grid.size) - 1.0)) < 1e-10


def test_assemble_rejects_degenerate_grids():
    grid = circle_grid(16, 10)
    grid.points[5] = grid.points[17]  # two distinct nodes coincide
    with pytest.raises(quad.DegenerateGridError):
        hb.assemble_dlp(grid)


def test_assemble_rejects_single_panel():
    c = hb.UnitCircle()
    cuts = np.array([[0.0, 2 * np.pi]])
    panels = hb.PanelDecomposition(panels=cuts, refinement_levels=0)
    grid = hb.build_grid(c, panels, 10)
    with pytest.raises(ValueError, match="2 panels"):
        hb.assemble_dlp(grid)


def test_circle_matrix_is_circulant():
    grid = circle_grid(8, 10)
    A = hb.assemble_dlp(grid)
    rolled = np.roll(np.roll(A, 10, axis=0), 10, axis=1)
    assert np.max(np.abs(A - rolled)) < 1e-12


@pytest.mark.parametrize("contour", [hb.UnitCircle(), hb.SmoothStar()],
                         ids=["circle", "star"])
def test_diagonal_matches_parametric_limit(contour):
    # kernel diagonal = curvature/(4 pi); check the curvature against the
    # limit of K(x(t), x(t+h)) along the curve
    grid = hb.build_grid(contour, hb.decompose(contour, 32, 0), 10)
    t = grid.t[::37]
    for ti, kappa in zip(t, grid.curvature[::37]):
        h = 1e-5
        p, n, _, _ = contour.frame(np.array([ti, ti + h]))
        x0, x1, n1 = p[0], p[1], -n[1]  # n1 inward
        d = x0 - x1
        K = (n1 @ d) / (2 * np.pi * (d @ d))
        assert abs(K - kappa / (4 * np.pi)) < 1e-4 * max(1.0, abs(kappa))


def test_interior_reproduction_smooth_star():
    grid = star_grid(80, 10)  # N = 800
    src = np.array([3.0, 0.0])
    A = hb.assemble_dlp(grid)
    q = np.linalg.solve(A, hb.harmonic_trace(grid, src))
    th = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    z = 0.3 * np.column_stack([np.cos(th), np.sin(th)])
    u = hb.eval_dlp_potential(grid, q, z)
    exact = np.log(np.linalg.norm(z - src, axis=1))
    assert np.max(np.abs(u - exact)) < 1e-8


def test_refinement_convergence_on_corner_star():
    c = hb.CornerStar()
    src = np.array([3.0, 0.0])
    th = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    z = 0.3 * np.column_stack([np.cos(th), np.sin(th)])
    exact = np.log(np.linalg.norm(z - src, axis=1))
    errs = []
    for levels in (2, 4, 6, 8):
        grid = hb.build_grid(c, hb.decompose(c, 6, levels), 17)
        A = hb.assemble_dlp(grid)
        q = np.linalg.solve(A, hb.harmonic_trace(grid, src))
        u = hb.eval_dlp_potential(grid, q, z)
        errs.append(np.max(np.abs(u - exact)))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_dense_matvec_streams_match(monkeypatch):
    grid = star_grid(32, 10)
    A = hb.assemble_dlp(grid)
    v = np.random.default_rng(3).standard_normal(grid.size)
    monkeypatch.setattr(quad, "DENSE_BLOCK_ROWS", 77)  # panels that do not divide N
    assert np.allclose(quad.dense_matvec(grid, v), A @ v, rtol=1e-13, atol=1e-13)
    assert np.allclose(quad.dense_matvec_transpose(grid, v), A.T @ v,
                       rtol=1e-13, atol=1e-13)


def test_winding_number_and_probes():
    grid = star_grid(40, 10)
    w = quad.winding_number(grid, [[0.0, 0.0], [5.0, 0.0]])
    assert w.dtype.kind == "i" and np.array_equal(w, [1, 0])
    z = quad.interior_probe_points(grid, count=7)
    assert z.shape == (7, 2)
    assert np.array_equal(quad.winding_number(grid, z), np.ones(7))


def _arctan2_winding(points, targets):
    """Reference: the signed angle the node polygon sweeps around each
    target, summed over its edges, in turns (a float)."""
    v = points[None, :, :] - targets[:, None, :]
    w = np.roll(v, -1, axis=1)
    return np.sum(np.arctan2(v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0],
                             np.einsum("ijk,ijk->ij", v, w)), axis=1) / (2 * np.pi)


_WINDING_CONTOURS = st.one_of(
    st.builds(lambda arms, amp: (hb.SmoothStar(arms, amp), 24, 0),
              st.integers(1, 8), st.floats(0.05, 0.6)),
    st.builds(lambda seg, r0, r1: (hb.CornerStar(seg, (r0, r1)), 2, 4),
              st.sampled_from([4, 6, 10]), st.floats(0.7, 1.0), st.floats(1.0, 1.3)),
    st.builds(lambda waves, amp, gap: (hb.Snake(waves, amp, gap), 4, 3),
              st.integers(1, 3), st.floats(0.3, 1.5), st.floats(0.1, 0.5)),
)


@settings(deadline=None, max_examples=30)
@given(_WINDING_CONTOURS, st.integers(0, 2**32 - 1))
def test_winding_number_is_the_rounded_angle_sum(case, seed):
    contour, base, levels = case
    grid = hb.build_grid(contour, hb.decompose(contour, base, levels), 8)
    rng = np.random.default_rng(seed)
    lo, hi = grid.points.min(axis=0), grid.points.max(axis=0)
    pad = 0.2 * (hi - lo)
    # targets anywhere in the box, and just off the nodes on either side
    near = rng.choice(grid.size, 60)
    offset = rng.uniform(-0.02, 0.02, (60, 1)) * np.max(hi - lo)
    targets = np.concatenate([rng.uniform(lo - pad, hi + pad, (60, 2)),
                              grid.points[near] + offset * grid.normals[near]])
    ref = _arctan2_winding(grid.points, targets)
    whole = np.abs(ref - np.rint(ref)) < 1e-6
    assert whole.mean() > 0.9
    assert np.array_equal(quad.winding_number(grid, targets)[whole], np.rint(ref[whole]))


def test_winding_number_edge_cases():
    grid = circle_grid(16, 10)
    pts = grid.points
    # the ray from a target at a node's own y runs through that node (the
    # top and the bottom pair of nodes share a y, so (0, y) is on the polygon)
    right = pts[(pts[:, 0] > 0) & (np.abs(pts[:, 1]) < 0.99)]
    level = np.column_stack([np.zeros(len(right)), right[:, 1]])
    assert np.array_equal(quad.winding_number(grid, level), np.ones(len(right)))
    # and outside on either side of the polygon at a node's y, or far away
    for x in (-2.0, 2.0):
        beside = np.column_stack([np.full(grid.size, x), pts[:, 1]])
        assert np.array_equal(quad.winding_number(grid, beside), np.zeros(grid.size))
    assert np.array_equal(quad.winding_number(grid, [[1e6, -3e5], [0.0, 1e9]]), [0, 0])
    # the same polygon traversed clockwise
    reverse = dataclasses.replace(grid, points=pts[::-1].copy())
    assert np.array_equal(quad.winding_number(reverse, [[0.0, 0.0], [0.3, -0.2], [5.0, 0.0]]),
                          [-1, -1, 0])


@pytest.mark.parametrize("count", [0, 2.5, -1])
def test_probe_points_reject_a_bad_count(count):
    c = hb.SmoothStar()
    grid = hb.build_grid(c, hb.decompose(c, 40, 0), 10)  # 400 nodes, 2400 candidates
    with pytest.raises(ValueError, match="count"):
        quad.interior_probe_points(grid, count)


def test_probe_points_match_the_unchunked_formula():
    # at N = 1200 the candidates go 873 rows at a time; count = 300 makes
    # 1200 seeds, so 7200 candidates against the nodes in several chunks
    grid = star_grid(120, 10)
    count = 300
    pts = grid.points
    c = pts.mean(axis=0)
    scale = np.max(np.linalg.norm(pts - c, axis=1))
    stride = max(1, grid.size // (4 * count))
    seeds, normals = pts[::stride], grid.normals[::stride]
    cands = np.concatenate([c + s * (seeds - c) for s in (0.2, 0.4, 0.6)]
                           + [seeds - d * scale * normals for d in (0.02, 0.05, 0.1)])
    assert cands.shape[0] > 2 * (2**20 // grid.size)
    v = pts[None, :, :] - cands[:, None, :]
    w = np.roll(v, -1, axis=1)
    winding = np.sum(np.arctan2(v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0],
                                np.einsum("ijk,ijk->ij", v, w)), axis=1) / (2 * np.pi)
    assert np.all(np.abs(winding - np.rint(winding)) < 1e-6)
    assert np.array_equal(quad.winding_number(grid, cands), np.rint(winding))
    cands = cands[np.abs(winding - 1.0) < 1e-6]
    dist = np.min(np.linalg.norm(cands[:, None, :] - pts[None, :, :], axis=2), axis=1)
    assert np.array_equal(quad.interior_probe_points(grid, count),
                          cands[np.argsort(-dist)[:count]])


@pytest.mark.parametrize("contour, base, levels", [
    (hb.SmoothStar(), 40, 0), (hb.CornerStar(), 4, 20), (hb.Snake(), 6, 4)],
    ids=["smooth_star", "corner_star", "snake"])
def test_harmonic_trace_is_the_log_of_the_norm(contour, base, levels):
    grid = hb.build_grid(contour, hb.decompose(contour, base, levels), 12)
    for source in [(3.0, 0.0), (0.5, 2.5), (-40.0, 7.25), (1e-3, -12.0)]:
        exact = np.log(np.linalg.norm(grid.points - np.array(source), axis=1))
        assert np.array_equal(quad.harmonic_trace(grid, source), exact)
        assert np.array_equal(quad.harmonic_trace(grid, np.array(source)), exact)


def test_grid_csv_roundtrip(tmp_path):
    grid = star_grid(40, 10)
    path = tmp_path / "grid.csv"
    quad.save_grid_csv(path, grid)
    back = quad.load_grid_csv(path)
    assert np.array_equal(back.t, grid.t)
    assert np.array_equal(back.points, grid.points)
    assert np.array_equal(back.weights, grid.weights)
    assert np.array_equal(back.panel_of, grid.panel_of)
    # curvature is refit from the node coordinates, not stored
    assert np.max(np.abs(back.curvature - grid.curvature)) < 1e-6


# -- kernel blocks against the dense-difference formulation ------------------


def einsum_dlp_block(grid, rows, cols):
    """Reference: (n, m, 2) differences reduced with einsum, self pairs by mask."""
    d = grid.points[rows][:, None, :] - grid.points[cols][None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    num = np.einsum("jk,ijk->ij", -grid.normals[cols], d)
    with np.errstate(invalid="ignore", divide="ignore"):
        K = num / (2 * np.pi * r2)
    same = rows[:, None] == cols[None, :]
    K[same] = np.broadcast_to(grid.curvature[cols] / (4 * np.pi), K.shape)[same]
    return K


def einsum_nystrom_block(grid, rows, cols):
    A = einsum_dlp_block(grid, rows, cols) * grid.weights[cols][None, :]
    A[rows[:, None] == cols[None, :]] += 0.5
    return A


def index_sets(rng, n):
    """Row/column index pairs: overlapping, disjoint, duplicated, empty."""
    idx = np.arange(n)
    yield idx, idx
    yield rng.permutation(n)[:70], rng.permutation(n)[:90]
    yield idx[:60], idx[100:180]
    yield rng.integers(0, 40, 50), rng.integers(0, 40, 65)  # many repeats
    yield np.array([5, 5, 7, 5]), np.array([7, 5, 5, 9, 7])
    yield idx[:0], idx[:30]
    yield idx[:30], idx[:0]


def assert_close_blocks(got, ref):
    assert got.shape == ref.shape
    if ref.size:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_kernel_blocks_match_einsum_reference():
    grid = star_grid(24, 10)  # N = 240
    rng = np.random.default_rng(11)
    for rows, cols in index_sets(rng, grid.size):
        assert_close_blocks(quad.nystrom_block(grid, rows, cols),
                            einsum_nystrom_block(grid, rows, cols))


def test_repeated_indices_all_get_the_limit():
    grid = star_grid(24, 10)
    rows, cols = np.array([3, 3, 8]), np.array([3, 8, 3, 3])
    A = quad.nystrom_block(grid, rows, cols)
    limit = grid.curvature / (4 * np.pi) * grid.weights + 0.5
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            if r == c:
                assert A[i, j] == limit[r]


def test_potential_matches_einsum_reference():
    grid = star_grid(24, 10)
    rng = np.random.default_rng(12)
    q = rng.standard_normal(grid.size)
    z = quad.interior_probe_points(grid, count=8)
    d = z[:, None, :] - grid.points[None, :, :]
    K = np.einsum("jk,ijk->ij", -grid.normals, d) / (2 * np.pi * np.einsum("ijk,ijk->ij", d, d))
    wq = grid.weights * q
    scale = np.abs(K) @ np.abs(wq)
    assert np.all(np.abs(quad.eval_dlp_potential(grid, q, z) - K @ wq) <= 1e-14 * scale)


def test_proxy_blocks_match_einsum_reference():
    grid = star_grid(24, 10)
    kernel = hb.NystromDlpKernel(grid)
    rng = np.random.default_rng(13)
    theta = 2 * np.pi * np.arange(50) / 50
    proxy = 0.1 + 1.7 * np.column_stack([np.cos(theta), np.sin(theta)])
    for idx in (rng.permutation(grid.size)[:64], rng.integers(0, 30, 40), np.arange(0)):
        d = grid.points[idx][:, None, :] - proxy[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        assert_close_blocks(kernel.row_proxy(idx, proxy), 0.5 * np.log(r2))
        ref = (np.einsum("ik,ijk->ij", grid.normals[idx], d) / (2 * np.pi * r2)
               * grid.weights[idx][:, None])
        assert_close_blocks(kernel.col_proxy(idx, proxy), ref)


def test_coincident_nodes_raise_in_any_block():
    grid = star_grid(24, 10)
    grid.points[5] = grid.points[17]
    for rows, cols in ((np.arange(10), np.arange(15, 20)),   # no self pair
                       (np.arange(20), np.arange(20)),        # self pairs too
                       (np.array([17, 5]), np.array([5]))):
        with pytest.raises(quad.DegenerateGridError):
            quad.nystrom_block(grid, rows, cols)
    # nearly coincident (r2 > 0, below the tolerance) inside an off-diagonal
    # block, which has no self pairs
    grid.points[5] = grid.points[17] + [4e-15, 0.0]
    with pytest.raises(quad.DegenerateGridError):
        quad.nystrom_block(grid, np.arange(0, 10), np.arange(10, 20))
    # repeated indices on both sides of a good grid: the self entries (0, 1),
    # (1, 1) and (2, 0) are diagonal entries, the others plain kernel entries
    good = star_grid(24, 10)
    rows, cols = np.array([3, 3, 7]), np.array([7, 3])
    A = hb.assemble_dlp(good)
    assert np.array_equal(quad.nystrom_block(good, rows, cols), A[np.ix_(rows, cols)])
