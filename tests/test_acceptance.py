"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line (uncaptured) after its assertions, so
a full run reads as a checklist.  Tolerances are the contract values, not
tuned to the implementation.
"""

import time

import numpy as np
import pytest

import hbsolve as hb
from hbsolve.diagnostics import estimate_solver_error
from hbsolve.inversion import (
    BlockSeparableMatrix,
    apply_inverse,
    bs_invert,
    hbs_invert,
    inverse_to_hbs,
    reformat_orthonormal,
)
from hbsolve.lowrank import id_row
from conftest import random_hbs, star_grid


@pytest.fixture
def announce(capsys):
    def _say(msg):
        with capsys.disabled():
            print(f"\n{msg}")

    return _say


def smooth_star_800():
    return star_grid(80, 10)


@pytest.fixture(scope="module")
def star800_dense_solver():
    """Shared instance for criteria 5 and 11: N=800 smooth star, dense
    compression at tol 1e-10, with its factored inverse."""
    grid = smooth_star_800()
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, 64)
    Ah, _ = hb.compress_dense(A, tree, hb.CompressionConfig(tol=1e-10))
    return grid, A, Ah, hbs_invert(Ah)


def test_criterion_01_id_contract(announce):
    t0 = time.monotonic()
    rng = np.random.default_rng(10)
    worst_err, worst_coeff = 0.0, 0.0
    for _ in range(200):
        m, n = rng.integers(5, 201, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        B = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        B += 1e-12 * rng.standard_normal((m, n))
        dec = id_row(B, 1e-10)
        err = np.linalg.norm(B - dec.coeffs @ B[dec.skeleton]) / np.linalg.norm(B)
        worst_err = max(worst_err, err)
        if dec.rank:
            worst_coeff = max(worst_coeff, np.max(np.abs(dec.coeffs)))
        assert err <= 1e-10
        assert worst_coeff <= 2.0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    announce(f"PASS criterion 1: 200 IDs, worst residual {worst_err:.2e}, "
             f"worst coefficient {worst_coeff:.3f}, {elapsed:.1f}s")


def test_criterion_02_block_separable_inverse(announce):
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 9))
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, min(5, n) + 1))
        D = [rng.standard_normal((n, n)) + 2 * n * np.eye(n) for _ in range(p)]
        U = [rng.standard_normal((n, k)) for _ in range(p)]
        V = [rng.standard_normal((n, k)) for _ in range(p)]
        core = rng.standard_normal((p * k, p * k))
        for i in range(p):
            core[i * k : (i + 1) * k, i * k : (i + 1) * k] = 0.0
        A = BlockSeparableMatrix(D=D, U=U, V=V, core=core)
        inv = bs_invert(A)
        dense = A.to_dense()
        for _ in range(3):
            v = rng.standard_normal(p * n)
            ref = np.linalg.solve(dense, v)
            rel = np.linalg.norm(inv.apply(v) - ref) / np.linalg.norm(ref)
            worst = max(worst, rel)
            assert rel <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    announce(f"PASS criterion 2: 50 block-separable inverses vs dense LU, "
             f"worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_spd_chain(announce):
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    n, leaf = 256, 32
    worst_eig = np.inf
    for _ in range(20):
        pts = rng.uniform(0, 1, size=(n, 2))
        pts = pts[np.argsort(pts[:, 0] + 0.1 * pts[:, 1])]  # roughly 1-D order
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        A = np.exp(-d2 / (2 * 0.05**2)) + 0.5 * np.eye(n)
        assert np.linalg.eigvalsh(A).min() > 0
        tree = hb.build_tree(n, leaf)
        Ah, _ = hb.compress_dense(A, tree, hb.CompressionConfig(symmetrize=True))
        inv = hbs_invert(Ah)
        for tau, Dh in inv.Dhat.items():
            if Dh.size:
                worst_eig = min(worst_eig, np.linalg.eigvalsh(0.5 * (Dh + Dh.T)).min())
        # every reduced block (children's Dhat coupled by the sibling blocks)
        for level in range(0, tree.levels):
            for tau in tree.nodes_at_level(level):
                s1, s2 = 2 * tau, 2 * tau + 1
                red = np.block(
                    [[inv.Dhat[s1], Ah.B12[tau]], [Ah.B21[tau], inv.Dhat[s2]]]
                )
                worst_eig = min(
                    worst_eig, np.linalg.eigvalsh(0.5 * (red + red.T)).min()
                )
        assert worst_eig > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    announce(f"PASS criterion 3: 20 SPD chains, smallest eigenvalue across all "
             f"reduced blocks {worst_eig:.3e} > 0, {elapsed:.1f}s")


def test_criterion_04_hbs_oracle_equivalence(announce):
    t0 = time.monotonic()
    rng = np.random.default_rng(13)
    cases = []
    star = hb.SmoothStar()
    cases.append(("smooth star", hb.build_grid(star, hb.decompose(star, 80, 0), 10)))
    corner = hb.CornerStar()
    cases.append(("corner star",
                  hb.build_grid(corner, hb.decompose(corner, 6, 2), 10)))
    snake = hb.Snake(waves=1)
    cases.append(("snake", hb.build_grid(snake, hb.decompose(snake, 10, 1), 25)))
    summary = []
    for name, grid in cases:
        assert grid.size <= 1000
        A = hb.assemble_dlp(grid)
        tree = hb.build_tree(grid.size, 64)
        Ah, _ = hb.compress_dense(A, tree, hb.CompressionConfig(tol=1e-10))
        frob = np.linalg.norm(hb.expand_dense(Ah) - A) / np.linalg.norm(A)
        assert frob <= 20 * 1e-10
        worst_mv = 0.0
        for _ in range(5):
            q = rng.standard_normal(grid.size)
            ref = A @ q
            worst_mv = max(
                worst_mv,
                np.linalg.norm(hb.hbs_matvec(Ah, q) - ref) / np.linalg.norm(ref),
            )
        assert worst_mv <= 1e-9
        summary.append(f"{name} N={grid.size} frob {frob:.1e} matvec {worst_mv:.1e}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    announce(f"PASS criterion 4: {'; '.join(summary)}, {elapsed:.1f}s")


def test_criterion_05_inverse_residual(announce, star800_dense_solver):
    grid, A, Ah, inv = star800_dense_solver
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        f = rng.standard_normal(grid.size)
        q = apply_inverse(inv, f)
        rel = np.linalg.norm(A @ q - f) / np.linalg.norm(f)
        worst = max(worst, rel)
        assert rel <= 1e-8
    announce(f"PASS criterion 5: N=800 smooth star, worst residual over "
             f"20 right-hand sides {worst:.2e} <= 1e-8")


def test_criterion_06_interior_harmonic_reproduction(announce):
    grid = smooth_star_800()
    src = np.array([3.0, 0.0])
    cfg = hb.CompressionConfig(mode="proxy", proxy_points=50, proxy_radius_factor=1.5)
    q, _ = hb.solve_workflow(grid, cfg, hb.harmonic_trace(grid, src))
    z = hb.interior_probe_points(grid, count=10)
    u = hb.eval_dlp_potential(grid, q, z)
    exact = np.log(np.linalg.norm(z - src, axis=1))
    err = np.max(np.abs(u - exact))
    assert err <= 1e-8
    announce(f"PASS criterion 6: N=800 proxy solve reproduces the interior "
             f"potential to {err:.2e} (>= 8 digits) at 10 points")


def test_criterion_07_corner_robustness(announce):
    c = hb.CornerStar()
    src = np.array([3.0, 0.0])
    cfg = hb.CompressionConfig(mode="proxy")
    errs = []
    for levels in range(2, 9):
        grid = hb.build_grid(c, hb.decompose(c, 6, levels), 17)
        q, _ = hb.solve_workflow(grid, cfg, hb.harmonic_trace(grid, src))
        z = hb.interior_probe_points(grid, count=6)
        u = hb.eval_dlp_potential(grid, q, z)
        exact = np.log(np.linalg.norm(z - src, axis=1))
        errs.append(np.max(np.abs(u - exact)))
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] <= 1e-6
    announce("PASS criterion 7: corner star errors decrease monotonically "
             + " > ".join(f"{e:.1e}" for e in errs))


def test_criterion_08_linear_scaling(announce):
    t_all = time.monotonic()
    star = hb.SmoothStar()
    cfg = hb.CompressionConfig(mode="proxy")
    sizes = (10000, 20000, 40000)
    cases = {}
    for n_target in sizes:
        panels = hb.decompose(star, n_target // 10, 0)
        grid = hb.build_grid(star, panels, 10)
        cases[n_target] = (grid, hb.harmonic_trace(grid, np.array([3.0, 0.0])))
    # median of five samples per stage (of 40 for apply, which takes only
    # milliseconds).  The machine's speed drifts over seconds, so the sizes
    # take turns within each round rather than sampling one size at a time
    samples = {n: ([], [], []) for n in sizes}
    for _ in range(5):
        for n_target in sizes:
            grid, u = cases[n_target]
            compress_s, invert_s, apply_s = samples[n_target]
            t0 = time.monotonic()
            Ah, _ = hb.compress(grid, cfg)
            t1 = time.monotonic()
            inv = hbs_invert(Ah)
            t2 = time.monotonic()
            compress_s.append(t1 - t0)
            invert_s.append(t2 - t1)
            apply_s.extend(_timed(lambda: apply_inverse(inv, u)) for _ in range(8))
    rows = {n: [np.median(s) for s in samples[n]] for n in sizes}
    lines = []
    for a, b in ((10000, 20000), (20000, 40000)):
        for i, what in enumerate(("compress", "invert", "apply")):
            ratio = rows[b][i] / rows[a][i]
            lines.append(f"{what} {a // 1000}k->{b // 1000}k x{ratio:.2f}")
            assert ratio <= 2.6, lines
    elapsed = time.monotonic() - t_all
    assert elapsed < 600.0
    announce(f"PASS criterion 8: {', '.join(lines)}, total {elapsed:.0f}s")


def _timed(fn):
    t0 = time.monotonic()
    fn()
    return time.monotonic() - t0


def test_criterion_09_orthonormal_reformat(announce):
    rng = np.random.default_rng(15)
    worst_orth, worst_rel = 0.0, 0.0
    for _ in range(20):
        A = random_hbs(rng)
        Q = reformat_orthonormal(A)
        for tau in Q.U:
            k = Q.U[tau].shape[1]
            worst_orth = max(
                worst_orth,
                np.linalg.norm(Q.U[tau].T @ Q.U[tau] - np.eye(k)),
                np.linalg.norm(Q.V[tau].T @ Q.V[tau] - np.eye(Q.V[tau].shape[1])),
            )
        for store in (Q.B12, Q.B21):
            for B in store.values():
                diag_only = np.zeros_like(B)
                np.fill_diagonal(diag_only, np.diag(B))
                assert np.array_equal(B, diag_only)
        E0, E1 = hb.expand_dense(A), hb.expand_dense(Q)
        worst_rel = max(worst_rel, np.linalg.norm(E1 - E0) / np.linalg.norm(E0))
    assert worst_orth <= 1e-12
    assert worst_rel <= 1e-12
    announce(f"PASS criterion 9: 20 reformats, worst orthonormality defect "
             f"{worst_orth:.1e}, worst expansion drift {worst_rel:.1e}")


def test_criterion_10_inverse_reformat_equivalence(announce):
    grid = star_grid(64, 10)  # N = 640
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, 64)
    Ah, _ = hb.compress_dense(A, tree, hb.CompressionConfig(tol=1e-10))
    inv = hbs_invert(Ah)
    Binv = inverse_to_hbs(inv)
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(640)
        direct = apply_inverse(inv, u)
        rel = np.linalg.norm(hb.hbs_matvec(Binv, u) - direct) / np.linalg.norm(direct)
        worst = max(worst, rel)
        assert rel <= 1e-12
    announce(f"PASS criterion 10: N=640, reformatted inverse matches the "
             f"factored apply to {worst:.1e} on 20 vectors")


def test_criterion_11_error_bound_soundness(announce, star800_dense_solver):
    grid, A, Ah, inv = star800_dense_solver
    err_A, norm_inv, _ = estimate_solver_error(A, Ah, inv, iters=100)
    rng = np.random.default_rng(14)  # same right-hand sides as criterion 5
    worst_ratio = 0.0
    for _ in range(20):
        f = rng.standard_normal(grid.size)
        q = apply_inverse(inv, f)
        q_exact = np.linalg.solve(A, f)
        observed = np.linalg.norm(q - q_exact)
        bound = err_A * norm_inv * np.linalg.norm(q_exact)
        assert observed <= bound
        worst_ratio = max(worst_ratio, observed / bound)
    announce(f"PASS criterion 11: bound dominates the observed error on all "
             f"20 instances (worst observed/bound = {worst_ratio:.2e})")
