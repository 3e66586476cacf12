import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hbsolve as hb
from hbsolve import diagnostics, quadrature
from hbsolve.diagnostics import POWER_CAP, estimate_solver_error, power_norm, sampled_error
from hbsolve.inversion import hbs_invert
from conftest import star_grid


def dense_ops(A):
    return (lambda v: A @ v), (lambda v: A.T @ v), A.shape[0]


def scalar_power_norm(apply, apply_adjoint, n, iters=50, seed=0):
    """The scalar estimate the block one is checked against: `iters` steps of
    power iteration on A* A from one random vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = apply(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = apply_adjoint(w / nw)
        sigma = np.linalg.norm(v)
        if sigma == 0.0:
            return 0.0
        # v is now A* u for a unit vector u, so ||v|| -> sigma_max
        v /= sigma
    return float(sigma)


def test_power_norm_rejects_too_few_iters():
    mv, mvT, n = dense_ops(np.eye(2))
    with pytest.raises(ValueError):
        power_norm(mv, mvT, (n, diagnostics.BLOCK_COLUMNS), iters=1)


@pytest.mark.parametrize("dim", [2, (2,), (2, 8, 1)], ids=["int", "1-tuple", "3-tuple"])
def test_power_norm_needs_a_block_shape(dim):
    mv, mvT, _ = dense_ops(np.eye(2))
    with pytest.raises(ValueError, match=r"\(N, m\) block shape"):
        power_norm(mv, mvT, dim)


def test_power_norm_random_matrix(rng):
    A = rng.standard_normal((200, 200))
    mv, mvT, n = dense_ops(A)
    sigma = power_norm(mv, mvT, (n, diagnostics.BLOCK_COLUMNS), iters=200)
    exact = np.linalg.norm(A, 2)
    assert sigma <= exact + 1e-12  # the block estimate never overestimates
    assert sigma > 0.99 * exact


BREAKDOWNS = {
    "zero": (np.zeros((8, 8)), 0.0),
    "identity": (np.eye(8), 1.0),
    "diagonal": (np.diag([3.0, 1.0, 1.0]), 3.0),
    "rank_one": (np.outer(np.arange(1.0, 21.0), np.ones(20)), np.sqrt(20 * 2870)),
    "n_below_m": (np.diag([2.0, -5.0, 1.0, 0.5, 3.0, 1.0]), 5.0),
}


@pytest.mark.parametrize("case", sorted(BREAKDOWNS))
def test_block_norm_breakdowns(case):
    A, norm = BREAKDOWNS[case]
    mv, mvT, n = dense_ops(A)
    sigma = power_norm(mv, mvT, (n, diagnostics.BLOCK_COLUMNS))
    assert isinstance(sigma, float)
    assert abs(sigma - norm) <= 1e-12 * max(norm, 1.0)


def test_certified_solve_on_fewer_nodes_than_block_columns():
    c = hb.SmoothStar()
    grid = hb.build_grid(c, hb.decompose(c, 2, 0), 3)  # N = 6, a depth-0 tree
    assert grid.size < diagnostics.BLOCK_COLUMNS
    rhs = hb.harmonic_trace(grid, np.array([3.0, 0.0]))
    _, report = hb.solve_workflow(grid, hb.CompressionConfig(mode="proxy"), rhs,
                                  estimate_error=True)
    assert report["levels"] == 0
    est = report["error_estimate"]
    assert np.isfinite(est["bound_factor"])
    inv_norm = np.linalg.norm(np.linalg.inv(hb.assemble_dlp(grid)), 2)
    assert np.isclose(est["norm_inv"], inv_norm, rtol=1e-2)


def test_estimate_on_near_exact_compression():
    grid = star_grid(64, 10)  # N = 640
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, 64)
    Ah, _ = hb.compress_dense(A, tree, hb.CompressionConfig(tol=1e-12))
    err_A, norm_inv, bound = estimate_solver_error(A, Ah, hbs_invert(Ah))
    assert err_A <= 1e-10 * np.linalg.norm(A, 2)
    assert norm_inv > 0
    assert bound == err_A * norm_inv


def test_err_A_tracks_true_difference():
    grid = star_grid(64, 10)
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, 64)
    Ah, _ = hb.compress_dense(A, tree, hb.CompressionConfig(tol=1e-6))
    err_A, _, _ = estimate_solver_error(A, Ah, hbs_invert(Ah), iters=100)
    true_diff = np.linalg.norm(A - hb.expand_dense(Ah), 2)
    assert err_A <= true_diff + 1e-14
    assert err_A >= true_diff / 2


def test_grid_oracle_matches_dense_oracle():
    grid = star_grid(32, 10)
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, 64)
    Ah, _ = hb.compress_dense(A, tree, hb.CompressionConfig())
    inv = hbs_invert(Ah)
    from_dense = estimate_solver_error(A, Ah, inv)
    from_grid = estimate_solver_error(grid, Ah, inv)
    assert np.allclose(from_dense, from_grid, rtol=1e-10, atol=1e-16)


def test_bound_dominates_observed_error(rng):
    grid = star_grid(64, 10)
    A = hb.assemble_dlp(grid)
    tree = hb.build_tree(grid.size, 64)
    Ah, _ = hb.compress_dense(A, tree, hb.CompressionConfig(tol=1e-8))
    inv = hbs_invert(Ah)
    _, _, bound = estimate_solver_error(A, Ah, inv, iters=100)
    from hbsolve.inversion import apply_inverse

    for _ in range(20):
        rhs = rng.standard_normal(grid.size)
        q_exact = np.linalg.solve(A, rhs)
        q = apply_inverse(inv, rhs)
        rel = np.linalg.norm(q - q_exact) / np.linalg.norm(q_exact)
        # the bound is a power-iteration estimate, so allow slack for the
        # slight underestimation of the operator norms
        assert rel <= 1.1 * bound + 1e-14


def counting(monkeypatch, module, name):
    """Replace module.name with a wrapper; returns the list of its calls."""
    calls, orig = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def proxy_factorization(grid, tol=1e-10):
    A, _ = hb.compress(grid, hb.CompressionConfig(mode="proxy", tol=tol))
    return A, hbs_invert(A)


def test_grid_estimate_assembles_the_exact_operator_once(monkeypatch):
    grid = star_grid(80, 10)  # N = 800, the README quick start
    Ah, inv = proxy_factorization(grid)
    streamed = counting(monkeypatch, quadrature, "dense_matvec")
    streamed_T = counting(monkeypatch, quadrature, "dense_matvec_transpose")
    assembled = counting(monkeypatch, quadrature, "assemble_dlp")
    from_grid = estimate_solver_error(grid, Ah, inv)
    assert len(assembled) == 1 and not streamed and not streamed_T
    assert from_grid == estimate_solver_error(hb.assemble_dlp(grid), Ah, inv)
    # one panel: the streamed path forms this same matrix and product
    monkeypatch.setattr(diagnostics, "EXACT_ASSEMBLY_BYTES", 0)
    assert from_grid == estimate_solver_error(grid, Ah, inv)


def counting_steps(monkeypatch):
    """Wrap diagnostics.power_norm; returns the list of forward applies each
    of its calls made, one entry per call."""
    steps, orig = [], diagnostics.power_norm

    def wrapper(apply, apply_adjoint, dim, **kwargs):
        steps.append(0)

        def counted(v):
            steps[-1] += 1
            return apply(v)

        return orig(counted, apply_adjoint, dim, **kwargs)

    monkeypatch.setattr(diagnostics, "power_norm", wrapper)
    return steps


def test_grid_estimate_streams_above_the_assembly_budget(monkeypatch):
    grid = star_grid(150, 10)  # N = 1500: two row panels per streamed pass
    Ah, inv = proxy_factorization(grid)
    assembled = estimate_solver_error(grid, Ah, inv, iters=10)
    monkeypatch.setattr(diagnostics, "EXACT_ASSEMBLY_BYTES", 0)
    steps = counting_steps(monkeypatch)
    streamed = counting(monkeypatch, quadrature, "dense_matvec")
    streamed_T = counting(monkeypatch, quadrature, "dense_matvec_transpose")
    panels = counting(monkeypatch, quadrature, "nystrom_block")
    from_stream = estimate_solver_error(grid, Ah, inv, iters=10)
    err_steps = steps[0]  # err_A runs first, then norm_inv
    assert len(steps) == 2 and 2 <= err_steps <= 10
    # one forward and one adjoint streamed pass per block step, each of two
    # panels, each pass carrying the whole block
    assert len(streamed) == len(streamed_T) == err_steps
    assert len(panels) == 2 * 2 * err_steps
    block = (grid.size, diagnostics.BLOCK_COLUMNS)
    assert all(q.shape == block for _, q in streamed + streamed_T)
    (err_s, inv_s, _), (err_a, inv_a, _) = from_stream, assembled
    assert inv_s == inv_a
    # err_A is a difference of O(1) products (||A|| ~ 1), so the panels'
    # summation order moves it by a few machine epsilons, not relatively
    assert abs(err_s - err_a) <= 50 * np.finfo(float).eps


def test_sampled_error_scales_its_rows_to_the_frobenius_norm(monkeypatch):
    grid = star_grid(60, 10)  # N = 600
    Ah, _ = proxy_factorization(grid, 1e-6)
    R = hb.assemble_dlp(grid) - hb.expand_dense(Ah)
    rows = np.random.default_rng(3).choice(grid.size, 32, replace=False)
    expected = np.sqrt(grid.size / 32) * np.linalg.norm(R[rows])
    assert np.isclose(sampled_error(grid, Ah, seed=3), expected, rtol=1e-6)
    monkeypatch.setattr(diagnostics, "SAMPLED_ROWS", grid.size)
    assert np.isclose(sampled_error(grid, Ah, seed=3), np.linalg.norm(R), rtol=1e-6)


def test_sampled_error_on_fewer_nodes_than_sampled_rows():
    c = hb.SmoothStar()
    grid = hb.build_grid(c, hb.decompose(c, 2, 0), 10)  # N = 20
    assert grid.size < diagnostics.SAMPLED_ROWS
    Ah, _ = hb.compress(grid, hb.CompressionConfig(tol=1e-3, target_leaf=4, mode="dense"))
    R = hb.assemble_dlp(grid) - hb.expand_dense(Ah)
    assert np.linalg.norm(R) > 0
    # every row is sampled, which gives the Frobenius norm itself
    assert np.isclose(sampled_error(grid, Ah, seed=0), np.linalg.norm(R), rtol=1e-6)


def grid_on(contour, panels, corner_levels, nodes):
    return hb.build_grid(contour, hb.decompose(contour, panels, corner_levels), nodes)


CONTOURS = {
    "circle": lambda: grid_on(hb.UnitCircle(), 150, 0, 10),
    "smooth_star": lambda: grid_on(hb.SmoothStar(), 200, 0, 10),
    "corner_star": lambda: grid_on(hb.CornerStar(), 4, 5, 16),
    "snake": lambda: grid_on(hb.Snake(), 10, 4, 16),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("contour", sorted(CONTOURS))
def test_sampled_error_agrees_with_power(contour, tol):
    grid = CONTOURS[contour]()
    assert 8 * grid.size**2 <= diagnostics.EXACT_ASSEMBLY_BYTES
    Ah, inv = proxy_factorization(grid, tol)
    power, _, _ = estimate_solver_error(grid, Ah, inv)
    sampled = sampled_error(grid, Ah, seed=0)
    assert power / 10 <= sampled <= 10 * power


# soundness of the default block estimates, fixed before the first run:
# never above the dense 2-norm, nor more than this far below the 50-step
# scalar power estimate
ABOVE_DENSE = 1e-12
BELOW_POWER = 0.005


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("contour", sorted(CONTOURS))
def test_block_estimates_are_sound(contour, tol):
    grid = CONTOURS[contour]()
    Ah, inv = proxy_factorization(grid, tol)
    A = hb.assemble_dlp(grid)
    err_A, norm_inv, _ = estimate_solver_error(A, Ah, inv)

    At, invT = hb.hbs_transpose(Ah), hb.inverse_transpose(inv)
    power_err = scalar_power_norm(lambda v: A @ v - hb.hbs_matvec(Ah, v),
                                  lambda v: A.T @ v - hb.hbs_matvec(At, v), grid.size, seed=0)
    power_inv = scalar_power_norm(lambda v: hb.apply_inverse(inv, v),
                                  lambda v: hb.apply_inverse(invT, v), grid.size, seed=1)
    dense_err = np.linalg.norm(A - hb.expand_dense(Ah), 2)
    dense_inv = np.linalg.norm(hb.apply_inverse(inv, np.eye(grid.size)), 2)
    # A - A_approx is formed from O(||A||) products, so neither it nor any
    # estimate of it resolves less than round-off of ||A||
    roundoff = np.finfo(float).eps * np.sqrt(np.linalg.norm(A, 1) * np.linalg.norm(A, np.inf))

    assert err_A <= dense_err * (1 + ABOVE_DENSE) + roundoff
    assert err_A >= power_err * (1 - BELOW_POWER)
    assert norm_inv <= dense_inv * (1 + ABOVE_DENSE)
    assert norm_inv >= power_inv * (1 - BELOW_POWER)


def test_solve_workflow_samples_err_A_above_the_power_cap():
    grid = star_grid(POWER_CAP // 10 + 1, 10)
    assert grid.size > POWER_CAP
    rhs = hb.harmonic_trace(grid, np.array([3.0, 0.0]))
    _, report = hb.solve_workflow(grid, hb.CompressionConfig(mode="proxy"), rhs,
                                  estimate_error=True)
    est = report["error_estimate"]
    assert est["method"] == "sampled" and est["samples"] == diagnostics.SAMPLED_ROWS
    assert 0 < est["err_A"] <= 1e-8
    assert np.isfinite(est["bound_factor"]) and est["bound_factor"] > 0


# compression error against tolerance, fixed before the first run
ERR_A_PER_TOL = 100

random_grids = st.one_of(  # N = 1000, or 800-1200 for the corner stars
    st.builds(lambda arms, amp: grid_on(hb.SmoothStar(arms, amp), 100, 0, 10),
              st.integers(4, 6), st.floats(0.2, 0.4)),
    st.builds(lambda seg, r1, r2: grid_on(hb.CornerStar(seg, (r1, r2)), 2, 4, 10),
              st.sampled_from([8, 10, 12]), st.floats(0.85, 0.95), st.floats(1.05, 1.15)),
)


@settings(deadline=None, max_examples=15)
@given(random_grids, st.floats(-12, -6))
def test_power_err_A_meets_tolerance(grid, log_tol):
    tol = 10.0**log_tol
    Ah, inv = proxy_factorization(grid, tol)
    err_A, _, _ = estimate_solver_error(grid, Ah, inv)
    assert err_A <= ERR_A_PER_TOL * tol
