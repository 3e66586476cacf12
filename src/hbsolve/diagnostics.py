"""A posteriori error estimation for the compressed solver.

The solver's solution error obeys

    ||q_approx - q|| <= ||A_approx^-1|| ||A - A_approx|| ||q||,

so estimating the two operator norms bounds the error without ever
solving exactly.  Both norms are estimated by a block subspace iteration
on the normal operator: BLOCK_COLUMNS orthonormal columns go through one
block apply and one block adjoint apply per step, and the largest singular
value of the small triangular factor is the estimate.  That is a lower
bound on the operator norm (up to round-off) for non-symmetric operators
too.  The iteration stops once a step raises the estimate by less than
BLOCK_RTOL relatively, so a well-separated top singular value costs a few
steps and a clustered one more, up to the step cap.

The exact operator A is the Nystrom matrix of a QuadratureGrid.  When
its 8 N^2 bytes fit EXACT_ASSEMBLY_BYTES it is assembled once and every
step is a dense block product with the stored matrix; above that budget
each step re-forms it in panels (quadrature.dense_matvec), O(N^2) kernel
evaluations per step that serve all the block's columns at once.  Where
even that is too dear, `sampled_error` estimates ||A - A_approx||_F from a
few exact rows in O(s N) instead; that is a random estimate, not a bound.
`error_estimate` picks between the two by N and fills the solve report's
certificate; solve_workflow and the scaling sweep both call it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr

from . import quadrature as quad
from .hbs import HbsMatrix, hbs_matvec, hbs_transpose
from .inversion import HbsInverse, apply_inverse, inverse_transpose
from .quadrature import QuadratureGrid

# the exact matrix is assembled once up to this size (N <= 2896), else streamed
EXACT_ASSEMBLY_BYTES = 64 * 2**20
# error_estimate's err_A: the block estimate against the exact operator up to
# this N, each step O(N^2); above it, SAMPLED_ROWS exact rows in O(N)
POWER_CAP = 8000
SAMPLED_ROWS = 32
# the block norm estimates: columns per block, and the relative rise of
# the estimate below which one more step is not taken
BLOCK_COLUMNS = 8
BLOCK_RTOL = 1e-4


def power_norm(apply, apply_adjoint, dim, iters=50, seed=0):
    """Block estimate of ||A|| for a linear operator A, from a random
    dim = (N, m) block; a lower bound on the norm up to round-off.

    apply and apply_adjoint take (N, k) blocks with k <= m.  V starts as an
    orthonormal basis of the seeded random block; each step takes
    A V = Q R, then A* Q = V R', both by QR, and estimates
    ||A* Q||_2 = ||R'||_2, a lower bound on ||A|| since Q has orthonormal
    columns.  Householder QR keeps Q and V orthonormal even when A V has
    rank below m, so a zero operator gives 0 and a rank-1 one its norm.
    The estimates never fall (up to round-off); the iteration stops after
    the first step that raises its estimate by at most BLOCK_RTOL
    relatively, or after `iters` steps.
    """
    if np.ndim(dim) != 1 or len(dim) != 2:
        raise ValueError(f"dim must be an (N, m) block shape, got {dim!r}")
    if iters < 2:
        raise ValueError("iters must be >= 2")

    def orth(X):
        return qr(X, mode="economic", check_finite=False)

    V = orth(np.random.default_rng(seed).standard_normal(dim))[0]
    sigma = 0.0
    for _ in range(iters):
        V, R = orth(apply_adjoint(orth(apply(V))[0]))
        previous, sigma = sigma, np.linalg.norm(R, 2)
        if sigma - previous <= BLOCK_RTOL * sigma:
            break
    return float(max(sigma, previous))


def _exact_matvecs(A_exact):
    """Forward/adjoint matvec callbacks for a dense array or a grid.

    A grid's matrix is assembled once when it fits EXACT_ASSEMBLY_BYTES and
    streamed in panels on every call above that budget.
    """
    if isinstance(A_exact, QuadratureGrid):
        grid = A_exact
        if 8 * grid.size**2 > EXACT_ASSEMBLY_BYTES:
            return (
                lambda v: quad.dense_matvec(grid, v),
                lambda v: quad.dense_matvec_transpose(grid, v),
                grid.size,
            )
        A_exact = quad.assemble_dlp(grid)
    A = np.asarray(A_exact, float)
    return (lambda v: A @ v), (lambda v: A.T @ v), A.shape[0]


def inverse_norm(inv: HbsInverse, *, iters=50, seed=0):
    """Block estimate of ||A_approx^-1|| from the factored inverse."""
    invT = inverse_transpose(inv)
    return power_norm(
        lambda v: apply_inverse(inv, v),
        lambda v: apply_inverse(invT, v),
        (inv.tree.n, BLOCK_COLUMNS), iters=iters, seed=seed,
    )


def estimate_solver_error(A_exact, A_approx: HbsMatrix, inv: HbsInverse, *,
                          iters=50, seed=0):
    """Returns (err_A, norm_inv, bound_factor).

    err_A estimates ||A - A_approx||, norm_inv estimates ||A_approx^-1||,
    and their product bounds ||q_approx - q|| / ||q||.  A_exact is either
    the dense matrix or a QuadratureGrid (assembled once, or streamed).
    Each norm is a block estimate of BLOCK_COLUMNS columns and at most
    `iters` steps.
    """
    mv, mvT, n = _exact_matvecs(A_exact)
    At = hbs_transpose(A_approx)
    err_A = power_norm(
        lambda v: mv(v) - hbs_matvec(A_approx, v),
        lambda v: mvT(v) - hbs_matvec(At, v),
        (n, BLOCK_COLUMNS), iters=iters, seed=seed,
    )
    norm_inv = inverse_norm(inv, iters=iters, seed=seed + 1)
    return err_A, norm_inv, err_A * norm_inv


def sampled_error(grid: QuadratureGrid, A: HbsMatrix, seed):
    """Estimate of ||A_exact - A|| from s = min(SAMPLED_ROWS, N) distinct
    random rows, in O(s N).

    The exact rows come from the kernel, the same rows of A from one block
    product of A^T with the s unit columns.  sqrt(N/s) ||rows of A_exact - A||_F
    is an unbiased estimate of the Frobenius norm of the difference (with
    all N rows, it is that norm).  It is an estimate, not a bound: when the
    error sits in a few rows the sample can miss them and fall below the
    spectral norm.
    """
    n = grid.size
    s = min(SAMPLED_ROWS, n)
    rows = np.sort(np.random.default_rng(seed).choice(n, s, replace=False))
    E = np.zeros((n, s))
    E[rows, np.arange(s)] = 1.0
    approx = hbs_matvec(hbs_transpose(A), E).T
    exact = quad.nystrom_block(grid, rows, np.arange(n))
    return float(np.sqrt(n / s) * np.linalg.norm(exact - approx))


def _sig3(x):
    """x to the 3 significant digits that report and BENCH numbers carry."""
    return float(f"{x:.3g}")


def error_estimate(grid: QuadratureGrid, A: HbsMatrix, inv: HbsInverse, seed):
    """The solve report's error_estimate: err_A, norm_inv and their product
    bound_factor to 3 digits, and the method that gave err_A.

    Up to N = POWER_CAP, err_A is the block estimate against the exact
    operator ("power"); above it, the sampled estimate from SAMPLED_ROWS
    exact rows ("sampled", a random Frobenius-norm estimate, not a bound).
    norm_inv is always the block estimate on the factored inverse.  err_A
    draws from `seed`, norm_inv from seed + 1.
    """
    if grid.size <= POWER_CAP:
        err_A, norm_inv, _ = estimate_solver_error(grid, A, inv, seed=seed)
        method = {"method": "power"}
    else:
        err_A = sampled_error(grid, A, seed)
        norm_inv = inverse_norm(inv, seed=seed + 1)
        method = {"method": "sampled", "samples": SAMPLED_ROWS}
    return {"err_A": _sig3(err_A), "norm_inv": _sig3(norm_inv),
            "bound_factor": _sig3(err_A * norm_inv), **method}
